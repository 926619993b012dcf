"""Multiclass logistic regression over hashed unigram+bigram counts.

Features are hashed with FNV-1a 64 (fixed and platform independent)
truncated to `bits` bits; collisions are tolerated.  Each feature string's
hash is remembered in a memo (`memo.Memo`).  Training is plain softmax
SGD with a small L2 term applied to the touched columns.

A classifier stores only the slots that training touched (or that its file
lists): `slots` holds them sorted, and column `j` of `weights` belongs to
`slots[j]`.  One more column, the last, stays zero and stands for every
other slot, so memory scales with the stored slots, not with `2**bits`.

The trained weights are pinned to the bit, so each step fixes its float
order: it gathers the touched columns once as `w`, scores `w @ cnt + bias`
(one BLAS gemv), normalizes with `scores.max()`, `np.exp` and `prob.sum()`,
and updates `w -= lr * (prob[:, None] * cnt + l2 * w)` before writing `w`
back.  Scoring maps a slot that was never trained to the zero column
instead of dropping it, so the gemv sees the same operands in the same
order as a gather from the full `2**bits` table and sums to the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..corpus import read_lines, write_lines
from ..memo import Memo
from ..rng import stream
from .embeddings import _parse_values
from .lexicon import _tokens

__all__ = [
    "ClassifierSpec",
    "HashedLinearClassifier",
    "ClassifierError",
    "EvaluationMetrics",
    "fnv1a64",
    "train_classifier",
    "evaluate_classifier",
    "save_classifier",
    "load_classifier",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
MAX_BITS = 24   # slot ids below 2**24; only the trained slots take memory
HASH_MEMO_LIMIT = 1 << 15   # feature strings in each generation of `_hashes`

_hashes = Memo(HASH_MEMO_LIMIT)   # feature string -> fnv1a64 value


class ClassifierError(ValueError):
    pass


def fnv1a64(text: str) -> int:
    value = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


@dataclass(frozen=True)
class ClassifierSpec:
    bits: int = 18
    use_bigrams: bool = True
    lr: float = 0.5
    epochs: int = 12
    l2: float = 1e-6


def hashed_features(text: str, bits: int, use_bigrams: bool = True) -> dict[int, float]:
    """Sparse {slot: count} vector; unigram and bigram key spaces are tagged
    so they never alias each other directly."""
    size = 1 << bits
    toks = _tokens(text)
    keys = ["u:" + tok for tok in toks]
    if use_bigrams:
        keys += ["b:" + a + " " + b for a, b in zip(toks, toks[1:])]
    counts: dict[int, float] = {}
    get = _hashes.get   # bound once, as `memo.Memo` advises for a loop
    for key in keys:
        slot = (get(key) or _hashes.fill(key, fnv1a64)) % size
        counts[slot] = counts.get(slot, 0.0) + 1.0
    return counts


def _feature_arrays(text: str, bits: int, use_bigrams: bool,
                    columns: dict[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(slots, counts) of `hashed_features`, or with `columns` each slot's column
    (`len(columns)`, the zero column, for a slot not in it).  Scores are
    `weights[:, cols] @ counts + bias`, which is `bias` for a text without features."""
    feats = hashed_features(text, bits, use_bigrams)
    keys = feats if columns is None else map(columns.get, feats, repeat(len(columns)))
    return (np.fromiter(keys, dtype=np.int64, count=len(feats)),
            np.fromiter(feats.values(), dtype=np.float64, count=len(feats)))


@dataclass
class HashedLinearClassifier:
    labels: tuple[str, ...]
    slots: np.ndarray            # (n_slots,) sorted slot ids that carry weights
    weights: np.ndarray          # (n_labels, n_slots + 1); the last column is zero
    bias: np.ndarray             # (n_labels,)
    spec: ClassifierSpec

    def __post_init__(self):
        self._columns = dict(zip(self.slots.tolist(), range(len(self.slots))))   # slot -> column

    def scores(self, text: str) -> np.ndarray:
        cols, cnt = _feature_arrays(text, self.spec.bits, self.spec.use_bigrams, self._columns)
        # a fancy-index gather, like training's: `take` would change its layout,
        # and with it the gemv kernel and the bits
        return self.weights[:, cols] @ cnt + self.bias

    def predict(self, text: str) -> str:
        return self.labels[int(np.argmax(self.scores(text)))]


def train_classifier(
    labeled: list[tuple[str, str]],
    spec: ClassifierSpec = ClassifierSpec(),
    seed: int = 0,
) -> HashedLinearClassifier:
    """Softmax SGD over hashed n-gram counts; deterministic per seed."""
    if not 1 <= spec.bits <= MAX_BITS:
        raise ClassifierError(f"bits must be in 1..{MAX_BITS}, got {spec.bits}")
    if spec.epochs < 1:
        raise ClassifierError(f"epochs must be at least 1, got {spec.epochs}")
    if not (math.isfinite(spec.lr) and spec.lr > 0):
        raise ClassifierError(f"lr must be finite and positive, got {spec.lr}")
    if not (math.isfinite(spec.l2) and spec.l2 >= 0):
        raise ClassifierError(f"l2 must be finite and non-negative, got {spec.l2}")
    labels = tuple(sorted({label for _, label in labeled}))
    if len(labels) < 2:
        raise ClassifierError(f"need at least 2 distinct labels, got {labels}")
    label_index = {label: i for i, label in enumerate(labels)}
    features = [_feature_arrays(text, spec.bits, spec.use_bigrams) for text, _ in labeled]
    slots = np.unique(np.concatenate([idx for idx, _ in features]))
    features = [(np.searchsorted(slots, idx), cnt) for idx, cnt in features]
    weights = np.zeros((len(labels), len(slots) + 1))
    bias = np.zeros(len(labels))
    targets = [label_index[label] for _, label in labeled]

    lr, l2 = spec.lr, spec.l2
    for epoch in range(spec.epochs):
        order = stream(seed, f"clf-epoch-{epoch}").permutation(len(labeled))
        for i in order.tolist():
            idx, cnt = features[i]
            w = weights[:, idx]
            scores = w @ cnt + bias
            scores -= scores.max()
            prob = np.exp(scores)
            prob /= prob.sum()
            prob[targets[i]] -= 1.0
            w -= lr * (prob[:, None] * cnt + l2 * w)
            weights[:, idx] = w
            bias -= lr * prob
    return HashedLinearClassifier(labels, slots, weights, bias, spec)


@dataclass(frozen=True)
class EvaluationMetrics:
    per_label: dict
    accuracy: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    n: int

    def to_text(self) -> str:
        lines = [f"{'label':<20} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>8}"]
        for label, m in self.per_label.items():
            lines.append(
                f"{label:<20} {m['precision']:>9.2f} {m['recall']:>9.2f} "
                f"{m['f1']:>9.2f} {m['support']:>8d}"
            )
        lines.append(
            f"{'average (weighted)':<20} {self.weighted_precision:>9.2f} "
            f"{self.weighted_recall:>9.2f} {self.weighted_f1:>9.2f} {self.n:>8d}"
        )
        return "\n".join(lines)


def evaluate_classifier(
    clf: HashedLinearClassifier, heldout: list[tuple[str, str]]
) -> EvaluationMetrics:
    """One-vs-rest precision/recall/F1 per label, plus macro and weighted means."""
    if not heldout:
        raise ClassifierError("held-out set is empty")
    predictions = [clf.predict(text) for text, _ in heldout]
    truths = [label for _, label in heldout]
    per_label = {}
    f1s = []
    for label in clf.labels:
        tp = sum(1 for p, t in zip(predictions, truths) if p == label and t == label)
        fp = sum(1 for p, t in zip(predictions, truths) if p == label and t != label)
        fn = sum(1 for p, t in zip(predictions, truths) if p != label and t == label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_label[label] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": tp + fn,
        }
        f1s.append(f1)
    n = len(heldout)
    accuracy = sum(1 for p, t in zip(predictions, truths) if p == t) / n
    weights = [per_label[label]["support"] / n for label in clf.labels]
    weighted = lambda key: sum(per_label[l][key] * w for l, w in zip(clf.labels, weights))
    return EvaluationMetrics(
        per_label,
        accuracy,
        sum(f1s) / len(f1s),
        weighted("precision"),
        weighted("recall"),
        weighted("f1"),
        n,
    )


_CLF_HEADER = "bsfclf-v1"


def save_classifier(clf: HashedLinearClassifier, path: str) -> None:
    """Auditability-first text dump: labels, bias, then nonzero weight columns."""
    nonzero = np.nonzero(np.any(clf.weights != 0.0, axis=0))[0]
    write_lines([f"{_CLF_HEADER} {clf.spec.bits} {len(clf.labels)} {int(clf.spec.use_bigrams)}",
                 "\t".join(clf.labels),
                 "bias " + " ".join(repr(float(x)) for x in clf.bias),
                 *(f"{clf.slots[col]} " + " ".join(repr(float(x)) for x in clf.weights[:, col])
                   for col in nonzero)], path)


def load_classifier(path: str) -> HashedLinearClassifier:
    lines = read_lines(path)
    if len(lines) < 3 or lines[0].split()[:1] != [_CLF_HEADER]:
        raise ClassifierError(f"{path}: not a {_CLF_HEADER} file")
    try:
        bits, n_labels, use_bigrams = (int(x) for x in lines[0].split()[1:])
    except ValueError:
        raise ClassifierError(
            f"{path}: line 1: expected '{_CLF_HEADER} <bits> <labels> <bigrams>'") from None
    if not 1 <= bits <= MAX_BITS:
        raise ClassifierError(f"{path}: line 1: bits must be in 1..{MAX_BITS}, got {bits}")
    size = 1 << bits
    labels = tuple(lines[1].split("\t"))
    if len(labels) != n_labels:
        raise ClassifierError(f"{path}: line 2: expected {n_labels} labels, got {len(labels)}")
    bias = np.array(_parse_values(path, 3, lines[2].split()[1:], n_labels, ClassifierError))
    by_slot: dict[int, list[float]] = {}   # a repeated slot's last line wins
    for lineno, line in enumerate(lines[3:], start=4):
        parts = line.split()
        if not parts:
            continue
        if not parts[0].isdecimal() or int(parts[0]) >= size:
            raise ClassifierError(f"{path}: line {lineno}: slot {parts[0]!r} not in [0, 2**{bits})")
        by_slot[int(parts[0])] = _parse_values(path, lineno, parts[1:], n_labels,
                                               ClassifierError)
    slots = np.array(sorted(by_slot), dtype=np.int64)
    weights = np.zeros((n_labels, len(slots) + 1))
    for col, slot in enumerate(slots.tolist()):
        weights[:, col] = by_slot[slot]
    spec = ClassifierSpec(bits=bits, use_bigrams=bool(use_bigrams))
    return HashedLinearClassifier(labels, slots, weights, bias, spec)
