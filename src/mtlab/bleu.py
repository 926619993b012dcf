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

Sentence BLEU keeps each pair's counts in the module memo `_pairs`
(`memo.Memo`), keyed by (candidate, reference, case_sensitive); smoothing
does not change the counts.  So a pair is counted once however often it
is scored.  Corpus BLEU sums the memoized counts of the pairs sentence
BLEU has scored, in either generation, and counts any other pair straight
into its sums without storing it, so a corpus of new pairs costs at most
two memo lookups a pair (none when the memo is empty) and keeps none of
them alive.
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


def _score(matches: Sequence[int], totals: Sequence[int], cand_len: int, ref_len: int,
           config: ScoringConfig) -> BleuReport:
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


def _add_pair(cand_toks: list[str], ref_toks: list[str], matches: list[int],
              totals: list[int]) -> None:
    """Add one pair's clipped matches and candidate n-gram counts, per order."""
    length = len(cand_toks)
    for n in range(min(length, MAX_N)):
        totals[n] += length - n
    if len(set(ref_toks)) == len(ref_toks):
        keyed, probe = ref_toks, cand_toks
    elif len(set(cand_toks)) == length:
        keyed, probe = cand_toks, ref_toks
    else:
        _clip(cand_toks, ref_toks, matches)
        return
    where = {tok: i for i, tok in enumerate(keyed)}
    m = list(map(where.get, probe, repeat(_MISS)))
    hits = set(m)
    hits.discard(_MISS)
    if not hits:
        return
    matches[0] += len(hits)
    # when no position of the distinct side is hit twice, every start left
    # in an order names a different n-gram
    distinct = len(hits) + m.count(_MISS) == len(m)
    m += _PAD
    starts = range(len(probe))
    for n in range(1, MAX_N):
        starts = [i for i in starts if m[i + n] == m[i] + n]
        if not starts:
            return
        matches[n] += len(starts) if distinct else len({m[i] for i in starts})


# (candidate, reference, case_sensitive) -> (clipped matches per order,
# candidate n-grams per order, candidate length, reference length)
_pairs = Memo(PAIR_MEMO_LIMIT)


def _count_pair(key: tuple[str, str, bool],
                config: ScoringConfig) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    cand_toks = config.split(key[0])
    ref_toks = config.split(key[1])
    matches = [0] * MAX_N
    totals = [0] * MAX_N
    _add_pair(cand_toks, ref_toks, matches, totals)
    return tuple(matches), tuple(totals), len(cand_toks), len(ref_toks)


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
    # read both generations and store nothing; skip hashing when the memo is empty
    get, get_previous, case = _pairs.get, _pairs.previous.get, config.case_sensitive
    for cand, ref in zip(candidates, references):
        stats = (get(key := (cand, ref, case)) or get_previous(key)) if _pairs else None
        if stats is None:
            cand_toks = config.split(cand)
            ref_toks = config.split(ref)
            cand_len += len(cand_toks)
            ref_len += len(ref_toks)
            _add_pair(cand_toks, ref_toks, matches, totals)
        else:
            pair_matches, pair_totals, pair_cand_len, pair_ref_len = stats
            matches = list(map(add, matches, pair_matches))
            totals = list(map(add, totals, pair_totals))
            cand_len += pair_cand_len
            ref_len += pair_ref_len
    if not ref_len:
        raise BleuError("the references hold no token")
    return _score(matches, totals, cand_len, ref_len, config)


def sentence_bleu(candidate: str, reference: str,
                  config: ScoringConfig = ScoringConfig()) -> BleuReport:
    """Single-pair BLEU; configure smoothing to avoid hard zeros."""
    key = (candidate, reference, config.case_sensitive)
    matches, totals, cand_len, ref_len = _pairs.get(key) or _pairs.fill(key, _count_pair, config)
    if not cand_len or not ref_len:
        raise BleuError("candidate and reference must each hold a token")
    return _score(matches, totals, cand_len, ref_len, config)
