"""Corpus- and sentence-level BLEU: clipped n-gram precisions, brevity penalty.

Scores are on the 0-100 scale.  Corpus scoring pools clipped counts over
all pairs before taking ratios; it is not an average of sentence scores.

Per pair, if one side's tokens are all distinct (after case folding), so
are all its n-grams, and each order's clipped matches are the number of
distinct n-grams the two sides share.  That side becomes a token -> position
map, and reading the other side through it gives `m` (a negative sentinel
for a token the map lacks).  Each `i` with `m[i] >= 0` starts a unigram
match at position `m[i]` of the distinct side, and a start of an n-gram
match also starts an n + 1-gram match when `m[i + n] == m[i] + n`.  Each
order counts the distinct positions its starts name.  When both sides repeat
a token, every order clips one Counter per side.

A pair's statistics are one flat record, in sacreBLEU's order: candidate
length, reference length, the clipped matches per order, then the candidate
n-grams per order.  `_count_pair` is the one function that counts it, and
`_score` turns any record, a pair's or a sum over pairs, into a report.
Sentence BLEU memoizes each pair's record in the module memo `_pairs`
(`memo.Memo`), keyed by (candidate, reference, case_sensitive); smoothing
does not change the counts.  So a pair is counted once however often it
is scored.  Corpus BLEU sums the records: one it finds in either generation
of the memo, or one it counts and does not store, so its memory does not
grow with the corpus.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import add

from .memo import Memo

__all__ = ["ScoringConfig", "BleuReport", "BleuError", "corpus_bleu", "sentence_bleu"]


MAX_N = 4
SMOOTHINGS = ("none", "add_one")
PAIR_MEMO_LIMIT = 1 << 12   # pairs a generation of `_pairs`; each keeps two sentences alive


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
        # hand-written, not `asdict`: the keys ("bp", "p1".."p4") are not the field names
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


def _score(stats: Sequence[int], config: ScoringConfig) -> BleuReport:
    cand_len, ref_len, *counts = stats
    matches, totals = counts[:MAX_N], counts[MAX_N:]
    if config.smoothing == "add_one":
        precisions = tuple([m / t if m else 1.0 / (t + 1) for m, t in zip(matches, totals)])
    else:
        precisions = tuple([m / t if t else 0.0 for m, t in zip(matches, totals)])
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len)) if cand_len else 0.0
    if 0.0 in precisions:
        score = 0.0
    else:
        score = bp * math.exp(sum(map(math.log, precisions)) / MAX_N) * 100.0
    return BleuReport(score, bp, precisions, cand_len, ref_len, config)


def _clip(cand_toks: list[str], ref_toks: list[str], matches: list[int]) -> None:
    """Add clipped matches per order for a candidate that repeats a token, so
    its unigrams, as plain tokens, go straight to the Counters."""
    # one shifted copy per order; zipping the first n + 1 yields the n + 1-grams
    c_shifts = (cand_toks, cand_toks[1:], cand_toks[2:], cand_toks[3:])
    r_shifts = (ref_toks, ref_toks[1:], ref_toks[2:], ref_toks[3:])
    cand_grams, ref_grams = cand_toks, ref_toks
    for n in range(min(len(cand_toks), MAX_N)):
        if n:
            cand_grams, ref_grams = zip(*c_shifts[:n + 1]), zip(*r_shifts[:n + 1])
        ref_counts = Counter(ref_grams)
        for gram, count in Counter(cand_grams).items():
            in_ref = ref_counts.get(gram)
            if in_ref:
                matches[n] += count if count < in_ref else in_ref


# `m` entry of a token the distinct side lacks; `_MISS + n` for n < MAX_N is
# neither a position nor `_MISS`, so a miss never starts a bigram match
_MISS = -MAX_N
_PAD = (_MISS,) * (MAX_N - 1)


# (candidate, reference, case_sensitive) -> that pair's statistics record
_pairs = Memo(PAIR_MEMO_LIMIT)


def _count_pair(key: tuple[str, str, bool], config: ScoringConfig) -> tuple[int, ...]:
    """One pair's statistics record: candidate and reference length, then
    clipped matches and candidate n-grams per order."""
    cand_toks = config.split(key[0])
    ref_toks = config.split(key[1])
    length = len(cand_toks)
    matches = [0] * MAX_N
    totals = [length - n if n < length else 0 for n in range(MAX_N)]
    if len(set(ref_toks)) == len(ref_toks):
        keyed, probe = ref_toks, cand_toks
    elif len(set(cand_toks)) == length:
        keyed, probe = cand_toks, ref_toks
    else:
        _clip(cand_toks, ref_toks, matches)
        return (length, len(ref_toks), *matches, *totals)
    where = {tok: i for i, tok in enumerate(keyed)}
    m = list(map(where.get, probe, repeat(_MISS)))
    hits = set(m)
    hits.discard(_MISS)
    if hits:
        matches[0] = len(hits)
        # when no position of the distinct side is hit twice, every start left
        # in an order names a different n-gram
        distinct = len(hits) + m.count(_MISS) == len(m)
        m += _PAD
        starts = range(len(probe))
        for n in range(1, MAX_N):
            starts = [i for i in starts if m[i + n] == m[i] + n]
            if not starts:
                break
            matches[n] = len(starts) if distinct else len({m[i] for i in starts})
    return (length, len(ref_toks), *matches, *totals)


def corpus_bleu(candidates: list[str], references: list[str],
                config: ScoringConfig = ScoringConfig()) -> BleuReport:
    """Pooled clipped-count BLEU over a corpus of candidate/reference pairs."""
    if len(candidates) != len(references):
        raise BleuError(
            f"candidate/reference pairing mismatch: {len(candidates)} vs {len(references)}"
        )
    if not candidates:
        raise BleuError("cannot score an empty corpus")
    # read both generations of the memo and store nothing in it
    get, get_previous = _pairs.get, _pairs.previous.get
    stats = (0,) * (2 + 2 * MAX_N)
    for key in zip(candidates, references, repeat(config.case_sensitive)):
        stats = tuple(map(add, stats, get(key) or get_previous(key) or _count_pair(key, config)))
    if not stats[1]:
        raise BleuError("the references hold no token")
    return _score(stats, config)


def sentence_bleu(candidate: str, reference: str,
                  config: ScoringConfig = ScoringConfig()) -> BleuReport:
    """Single-pair BLEU; configure smoothing to avoid hard zeros."""
    key = (candidate, reference, config.case_sensitive)
    stats = _pairs.get(key) or _pairs.fill(key, _count_pair, config)
    if not stats[0] or not stats[1]:
        raise BleuError("candidate and reference must each hold a token")
    return _score(stats, config)
