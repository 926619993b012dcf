"""Corpus- and sentence-level BLEU: clipped n-gram precisions, brevity penalty.

Scores are on the 0-100 scale.  Corpus scoring pools clipped counts over
all pairs before taking ratios; it is not an average of sentence scores.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["ScoringConfig", "BleuReport", "BleuError", "corpus_bleu", "sentence_bleu"]


MAX_N = 4


class BleuError(ValueError):
    pass


@dataclass(frozen=True)
class ScoringConfig:
    smoothing: str = "none"          # "none" | "add_one"  (sentence-level only)
    case_sensitive: bool = True

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


def _ngrams(tokens: list[str]) -> Counter:
    """Counts of every n-gram of orders 1..MAX_N; grams of different orders
    never collide, because their lengths differ."""
    return Counter(gram for n in range(1, MAX_N + 1)
                   for gram in zip(*[tokens[i:] for i in range(n)]))


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
        ref_counts = _ngrams(ref_toks)
        for gram, count in _ngrams(cand_toks).items():
            ref = ref_counts.get(gram)
            if ref:
                matches[len(gram) - 1] += count if count < ref else ref
        for n in range(MAX_N):
            totals[n] += max(len(cand_toks) - n, 0)
    return _score(matches, totals, cand_len, ref_len, config)


def sentence_bleu(candidate: str, reference: str,
                  config: ScoringConfig = ScoringConfig()) -> BleuReport:
    """Single-pair BLEU; configure smoothing to avoid hard zeros."""
    if not candidate or not reference:
        raise BleuError("candidate and reference must be non-empty")
    return corpus_bleu([candidate], [reference], config)
