"""Adequacy/fluency score-sheet ingestion, aggregation, and BLEU correlation.

Raters work offline; results arrive as CSV sheets.  Means are computed
sentence-first (average the raters within a sentence, then average over
sentences).  Agreement is quadratic-weighted kappa over the rater pair.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .corpus import read_lines

__all__ = [
    "AdequacyFluencyRecord",
    "SystemSummary",
    "EvaluationSummary",
    "CorrelationReport",
    "ScoreError",
    "ingest_scores",
    "summarize",
    "weighted_kappa",
    "pearson",
    "spearman",
    "correlate",
]

DEFAULT_RANGE = (1, 4)


class ScoreError(ValueError):
    pass


class AdequacyFluencyRecord(NamedTuple):
    sentence_id: int
    rater_id: str
    system: str
    adequacy: int
    fluency: int


_SHEET_COLUMNS = ("sentence_id", "rater_id", "system", "adequacy", "fluency")


def _check_range(score_range: tuple[int, int]) -> tuple[int, int]:
    low, high = score_range
    if low > high:
        raise ScoreError(f"score range {low}-{high} is empty: its minimum exceeds its maximum")
    if not -sys.float_info.max <= low <= high <= sys.float_info.max:
        raise ScoreError("a score range bound does not fit a float")
    return low, high


def ingest_scores(path: str, score_range: tuple[int, int] = DEFAULT_RANGE) -> list[AdequacyFluencyRecord]:
    """Read and validate a score sheet CSV.

    Expected header: sentence_id,rater_id,system,adequacy,fluency, in any
    order and with any other columns.  Blank rows are skipped.  Rejects an
    empty score range, a row that lacks one of these cells, a non-integer
    id or score, out-of-range scores and duplicate (sentence, rater, system)
    keys, naming the file line the offending row starts on.
    """
    low, high = _check_range(score_range)
    # quoted fields may span lines, so the reader gets each line's newline back
    reader = csv.reader(line + "\n" for line in read_lines(path))
    rows = []   # (file line the row starts on, row)
    end = 0     # file line the last row read ends on
    try:
        for row in reader:
            rows.append((end + 1, row))
            end = reader.line_num
    except csv.Error as exc:
        raise ScoreError(f"{path}: line {reader.line_num}: {exc}") from None
    header = rows[0][1] if rows else []
    if not set(_SHEET_COLUMNS).issubset(header):
        raise ScoreError(f"{path}: header must contain {sorted(_SHEET_COLUMNS)}")
    # a repeated column name reads its last column, as `csv.DictReader` does
    column = {name: i for i, name in enumerate(header)}
    sid, rater, system, adequacy, fluency = (column[name] for name in _SHEET_COLUMNS)
    records = []
    seen = set()
    for line, row in rows[1:]:
        if not row:
            continue
        try:
            record = AdequacyFluencyRecord(int(row[sid]), row[rater], row[system],
                                           int(row[adequacy]), int(row[fluency]))
        except (IndexError, ValueError):
            raise ScoreError(f"{path}: line {line}: malformed record {row}") from None
        for name, score in (("adequacy", record.adequacy), ("fluency", record.fluency)):
            if not low <= score <= high:
                raise ScoreError(
                    f"{path}: line {line}: {name}={score} outside range {low}-{high}"
                )
        key = (record.sentence_id, record.rater_id, record.system)
        if key in seen:
            raise ScoreError(f"{path}: line {line}: duplicate key {key}")
        seen.add(key)
        records.append(record)
    return records


@dataclass(frozen=True)
class SystemSummary:
    mean_adequacy: float
    mean_fluency: float
    rater_means: dict            # rater -> (adequacy mean, fluency mean)
    kappa_adequacy: float | None
    kappa_fluency: float | None
    n: int


@dataclass(frozen=True)
class EvaluationSummary:
    systems: dict  # system -> SystemSummary

    def to_json(self) -> str:
        # hand-written, not `asdict`: the keys are not the field names, which perfbench reads
        payload = {}
        for name, s in self.systems.items():
            payload[name] = {
                "adequacy": s.mean_adequacy,
                "fluency": s.mean_fluency,
                "raters": {r: list(v) for r, v in s.rater_means.items()},
                "kappa_adequacy": s.kappa_adequacy,
                "kappa_fluency": s.kappa_fluency,
                "n": s.n,
            }
        return json.dumps(payload)


def weighted_kappa(pairs: list[tuple[int, int]], score_range: tuple[int, int] = DEFAULT_RANGE) -> float | None:
    """Quadratic-weighted kappa for one rater pair; None when undefined
    (no variance in either rater's scores)."""
    low, high = score_range
    size = high - low + 1
    if size < 2 or not pairs:
        return None
    # sums over the observed scores only, in (a, b) order: an empty cell would add 0.0
    n, scale = len(pairs), (size - 1) ** 2
    marginal_a, marginal_b, num = {}, {}, 0
    for (a, b), count in sorted(Counter(pairs).items()):
        marginal_a[a] = marginal_a.get(a, 0) + count
        marginal_b[b] = marginal_b.get(b, 0) + count
        num += (a - b) ** 2 / scale * count
    den = sum((a - b) ** 2 / scale * ma * mb / n
              for a, ma in sorted(marginal_a.items()) for b, mb in sorted(marginal_b.items()))
    if den == 0.0:
        return None
    return 1.0 - num / den


def summarize(records: list[AdequacyFluencyRecord],
              score_range: tuple[int, int] = DEFAULT_RANGE) -> EvaluationSummary:
    """Per-system means (sentence-first aggregation) and rater agreement."""
    _check_range(score_range)
    if not records:
        raise ScoreError("no records to summarize")
    by_system = defaultdict(list)
    for record in records:
        by_system[record.system].append(record)
    summaries = {}
    for system, recs in sorted(by_system.items()):
        by_sentence = defaultdict(list)
        for r in recs:
            by_sentence[r.sentence_id].append(r)
        adequacy = [sum(r.adequacy for r in group) / len(group) for group in by_sentence.values()]
        fluency = [sum(r.fluency for r in group) / len(group) for group in by_sentence.values()]
        raters = sorted({r.rater_id for r in recs})
        rater_means = {}
        for rater in raters:
            own = [r for r in recs if r.rater_id == rater]
            rater_means[rater] = (
                sum(r.adequacy for r in own) / len(own),
                sum(r.fluency for r in own) / len(own),
            )
        kappa_a = kappa_f = None
        if len(raters) == 2:
            first, second = raters
            a_scores = {r.sentence_id: r for r in recs if r.rater_id == first}
            b_scores = {r.sentence_id: r for r in recs if r.rater_id == second}
            common = sorted(set(a_scores) & set(b_scores))
            kappa_a = weighted_kappa(
                [(a_scores[i].adequacy, b_scores[i].adequacy) for i in common], score_range)
            kappa_f = weighted_kappa(
                [(a_scores[i].fluency, b_scores[i].fluency) for i in common], score_range)
        summaries[system] = SystemSummary(
            sum(adequacy) / len(adequacy),
            sum(fluency) / len(fluency),
            rater_means,
            kappa_a,
            kappa_f,
            len(by_sentence),
        )
    return EvaluationSummary(summaries)


# ---------------------------------------------------------------------------
# correlation with BLEU


def pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        return float("nan")
    return cov / math.sqrt(vx * vy)


def _ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def spearman(xs: list[float], ys: list[float]) -> float:
    return pearson(_ranks(xs), _ranks(ys))


@dataclass(frozen=True)
class CorrelationReport:
    systems: tuple[str, ...]
    bleu: tuple[float, ...]
    human: tuple[float, ...]
    pearson_r: float
    spearman_rho: float
    bleu_argmax: str
    human_argmax: str
    argmax_disagreement: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def correlate(bleu_by_system: dict, human_by_system: dict) -> CorrelationReport:
    """Pearson/Spearman over the systems scored by both metrics, plus the
    headline check: does BLEU's best system match the human-rated best?"""
    common = sorted(set(bleu_by_system) & set(human_by_system))
    if len(common) < 2:
        raise ScoreError(f"need at least 2 common systems, got {len(common)}")
    for system in common:
        if not -sys.float_info.max <= bleu_by_system[system] <= sys.float_info.max:   # NaN fails too
            raise ScoreError(f"BLEU score of system {system!r} is not a finite float")
    bleu = [float(bleu_by_system[s]) for s in common]
    human = [float(human_by_system[s]) for s in common]
    bleu_best = common[max(range(len(common)), key=lambda i: bleu[i])]
    human_best = common[max(range(len(common)), key=lambda i: human[i])]
    return CorrelationReport(
        tuple(common),
        tuple(bleu),
        tuple(human),
        pearson(bleu, human),
        spearman(bleu, human),
        bleu_best,
        human_best,
        bleu_best != human_best,
    )
