"""Cross-language aspect disagreement report (the BSF output artifact)."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .classifier import ClassifierError, HashedLinearClassifier
from .lexicon import AspectLexicon, match_sentences

__all__ = ["BsfReport", "cross_language_report"]


@dataclass(frozen=True)
class BsfReport:
    labels: tuple[str, ...]
    matrix: dict            # src label -> {tgt label -> percentage of src volume}
    volumes: dict           # src label -> sentence count
    flagged_ids: tuple[int, ...]
    matched_count: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "labels": list(self.labels),
                "matrix": self.matrix,
                "volumes": self.volumes,
                "flagged_ids": list(self.flagged_ids),
                "matched_count": self.matched_count,
            },
            ensure_ascii=False,
        )

    def to_text(self) -> str:
        width = max(18, max(len(l) for l in self.labels) + 2)
        header = " " * width + "".join(f"{l:>{width}}" for l in self.labels)
        lines = [f"matched sentences: {self.matched_count}", header]
        for src in self.labels:
            row = self.matrix[src]
            cells = "".join(f"{row[tgt]:>{width - 1}.1f}%" for tgt in self.labels)
            lines.append(f"{src:<{width}}{cells}")
        lines.append(f"flagged: {len(self.flagged_ids)} sentence(s) "
                     f"{list(self.flagged_ids[:20])}")
        return "\n".join(lines)


def cross_language_report(
    pairs: list[tuple[str, str]],
    lexicon_src: AspectLexicon,
    lexicon_tgt: AspectLexicon | None,
    clf_src: HashedLinearClassifier,
    clf_tgt: HashedLinearClassifier,
) -> BsfReport:
    """Classify both sides of the pairs `lexicon_src` matches; rows of the matrix are
    normalized by the source-label volumes, off-diagonal pairs are flagged.
    `lexicon_tgt` is unused and may be None (kept until ROADMAP item 5(c))."""
    if clf_src.labels != clf_tgt.labels:
        raise ClassifierError(
            f"classifiers must share a label set: {clf_src.labels} vs {clf_tgt.labels}"
        )
    labels = clf_src.labels
    matched = match_sentences([src for src, _ in pairs], lexicon_src)
    counts = {src: {tgt: 0 for tgt in labels} for src in labels}
    flagged = []
    for i in matched:
        src_label = clf_src.predict(pairs[i][0])
        tgt_label = clf_tgt.predict(pairs[i][1])
        counts[src_label][tgt_label] += 1
        if src_label != tgt_label:
            flagged.append(i)
    matrix = {}
    volumes = {}
    for src in labels:
        volume = sum(counts[src].values())
        volumes[src] = volume
        if volume:
            matrix[src] = {tgt: 100.0 * counts[src][tgt] / volume for tgt in labels}
        else:
            matrix[src] = {tgt: 0.0 for tgt in labels}
    return BsfReport(labels, matrix, volumes, tuple(flagged), len(matched))
