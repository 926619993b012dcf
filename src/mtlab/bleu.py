"""Corpus- and sentence-level BLEU: clipped n-gram precisions, brevity penalty.

Scores are on the 0-100 scale.  Corpus scoring pools clipped counts over
all pairs before taking ratios; it is not an average of sentence scores.

Per pair and order, the candidate's n-grams are first collected as a set.
When no candidate n-gram repeats, every clipped count is 1 if the reference
holds the n-gram and 0 if not, so the order's matches are the size of the
set's intersection with the reference n-grams.  An order whose candidate
repeats an n-gram falls back to clipping one Counter per side.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["ScoringConfig", "BleuReport", "BleuError", "corpus_bleu", "sentence_bleu"]


MAX_N = 4
SMOOTHINGS = ("none", "add_one")


class BleuError(ValueError):
    pass


@dataclass(frozen=True)
class ScoringConfig:
    smoothing: str = "none"          # one of SMOOTHINGS; applies to corpus and sentence BLEU
    case_sensitive: bool = True

    def __post_init__(self):
        if self.smoothing not in SMOOTHINGS:
            raise BleuError(
                f"smoothing must be one of {', '.join(SMOOTHINGS)}, got {self.smoothing!r}")

    def split(self, text: str) -> list[str]:
        if not self.case_sensitive:
            text = text.lower()
        return text.split()

    def describe(self) -> dict:
        return {
            "max_n": MAX_N,
            "smoothing": self.smoothing,
            "case_sensitive": self.case_sensitive,
            "tokenization": "whitespace",
        }


@dataclass(frozen=True)
class BleuReport:
    score: float
    brevity_penalty: float
    precisions: tuple[float, ...]
    candidate_length: int
    reference_length: int
    config: ScoringConfig = field(default_factory=ScoringConfig)

    def to_json(self) -> str:
        return json.dumps(
            {
                "score": self.score,
                "bp": self.brevity_penalty,
                **{f"p{i + 1}": p for i, p in enumerate(self.precisions)},
                "candidate_length": self.candidate_length,
                "reference_length": self.reference_length,
                "config": self.config.describe(),
            }
        )


def _score(matches: list[int], totals: list[int], cand_len: int, ref_len: int,
           config: ScoringConfig) -> BleuReport:
    precisions = []
    for n in range(MAX_N):
        m, t = matches[n], totals[n]
        if m == 0 and config.smoothing == "add_one":
            precisions.append(1.0 / (t + 1))
        elif t == 0:
            precisions.append(0.0)
        else:
            precisions.append(m / t)
    if cand_len == 0:
        bp = 0.0
    else:
        bp = min(1.0, math.exp(1.0 - ref_len / cand_len))
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        log_mean = sum(math.log(p) for p in precisions) / MAX_N
        score = bp * math.exp(log_mean) * 100.0
    return BleuReport(score, bp, tuple(precisions), cand_len, ref_len, config)


def corpus_bleu(candidates: list[str], references: list[str],
                config: ScoringConfig = ScoringConfig()) -> BleuReport:
    """Pooled clipped-count BLEU over a corpus of candidate/reference pairs."""
    if len(candidates) != len(references):
        raise BleuError(
            f"candidate/reference pairing mismatch: {len(candidates)} vs {len(references)}"
        )
    if not candidates:
        raise BleuError("cannot score an empty corpus")
    matches = [0] * MAX_N
    totals = [0] * MAX_N
    cand_len = ref_len = 0
    for cand, ref in zip(candidates, references):
        cand_toks = config.split(cand)
        ref_toks = config.split(ref)
        cand_len += len(cand_toks)
        ref_len += len(ref_toks)
        # one shifted copy per order; zipping the first n + 1 yields the n + 1-grams
        c_shifts = (cand_toks, cand_toks[1:], cand_toks[2:], cand_toks[3:])
        r_shifts = (ref_toks, ref_toks[1:], ref_toks[2:], ref_toks[3:])
        for n in range(MAX_N):
            total = len(cand_toks) - n
            if total <= 0:
                break
            totals[n] += total
            grams = set(zip(*c_shifts[:n + 1]))
            if len(grams) == total:
                matches[n] += len(grams.intersection(zip(*r_shifts[:n + 1])))
                continue
            ref_counts = Counter(zip(*r_shifts[:n + 1]))
            for gram, count in Counter(zip(*c_shifts[:n + 1])).items():
                in_ref = ref_counts.get(gram)
                if in_ref:
                    matches[n] += count if count < in_ref else in_ref
    return _score(matches, totals, cand_len, ref_len, config)


def sentence_bleu(candidate: str, reference: str,
                  config: ScoringConfig = ScoringConfig()) -> BleuReport:
    """Single-pair BLEU; configure smoothing to avoid hard zeros."""
    if not candidate or not reference:
        raise BleuError("candidate and reference must be non-empty")
    return corpus_bleu([candidate], [reference], config)
