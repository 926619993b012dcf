"""Skip-gram negative-sampling word embeddings, desk scale.

Plain numpy implementation of the classic recipe: frequent-word
subsampling, unigram^0.75 negative table, linearly decaying learning
rate.  Deterministic for a given seed.

The vectors are pinned to the bit, so the loop fixes its float order and
its draws from the one seeded stream: per sentence one keep draw per word,
per center one window draw and then `negatives` draws for each context in
order.  Each context gathers its output rows once, scores them with
`1.0 / (1.0 + np.exp(-vouts @ vin))`, updates the input row in place first
(`vin -= grad @ vouts`), then the gathered rows with the updated row
(`vouts -= grad[:, None] * vin`), and scatters them back, so a repeated
negative keeps its last row.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..corpus import read_lines, write_lines
from ..rng import stream

__all__ = [
    "Embeddings",
    "EmbeddingError",
    "train_embeddings",
    "load_embeddings",
    "save_embeddings",
]

LOW_DATA_TOKENS = 1000
INITIAL_LR = 0.025
# Far above the classic web-scale value: desk corpora have tiny
# vocabularies where every word counts as frequent.
SUBSAMPLE_THRESHOLD = 1e-2


class EmbeddingError(ValueError):
    pass


@dataclass
class Embeddings:
    vectors: dict[str, np.ndarray]
    dim: int

    def cosine(self, a: str, b: str) -> float:
        va, vb = self.vectors[a], self.vectors[b]
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(va @ vb / (na * nb))

    def neighbors(self, word: str, k: int) -> list[tuple[str, float]]:
        """Top-k words by cosine similarity, excluding the word itself."""
        scored = [(other, self.cosine(word, other)) for other in self.vectors if other != word]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]


def train_embeddings(
    sentences: list[list[str]],
    dim: int = 32,
    window: int = 4,
    negatives: int = 5,
    epochs: int = 3,
    seed: int = 0,
) -> Embeddings:
    """Train skip-gram vectors with negative sampling on tokenized sentences.

    Multi-word phrases must be pre-joined into single tokens (for example
    with underscores) before training.  Every word gets a vector.
    """
    if dim < 1 or window < 1 or negatives < 1 or epochs < 1:
        raise EmbeddingError("dim, window, negatives and epochs must all be positive")
    counts = Counter(tok for sent in sentences for tok in sent)
    total_tokens = sum(counts.values())
    if total_tokens == 0:
        raise EmbeddingError("cannot train embeddings on an empty corpus")
    if total_tokens < LOW_DATA_TOKENS:
        warnings.warn(
            f"embedding corpus has only {total_tokens} tokens; vectors will be noisy",
            UserWarning,
        )
    vocab = sorted(counts)
    index = {w: i for i, w in enumerate(vocab)}
    v = len(vocab)

    rng = stream(seed, "word2vec")
    vec_in = (rng.random((v, dim)) - 0.5) / dim
    vec_out = np.zeros((v, dim))

    # unigram^0.75 negative-sampling table
    freq = np.array([counts[w] for w in vocab], dtype=np.float64)
    noise = freq ** 0.75
    noise /= noise.sum()
    noise_cdf = np.cumsum(noise)

    # subsampling keep-probability for frequent words
    keep = np.minimum(1.0, np.sqrt(SUBSAMPLE_THRESHOLD / (freq / total_tokens))
                      + SUBSAMPLE_THRESHOLD / (freq / total_tokens)).tolist()

    total_centers = max(1, total_tokens * epochs)
    processed = 0
    # bound once, so no draw goes through `np.searchsorted`'s Python wrapper; `take` makes
    # the same C-contiguous copy as `vec_out[targets]`, so the gemv kernel and the bits stay
    random, integers, noise_index = rng.random, rng.integers, noise_cdf.searchsorted
    for epoch in range(epochs):
        for sent in sentences:
            ids = [index[t] for t in sent]
            kept = [i for i, draw in zip(ids, random(len(ids)).tolist()) if draw < keep[i]]
            for pos, center in enumerate(kept):
                processed += 1
                lr = max(INITIAL_LR * (1.0 - processed / total_centers), INITIAL_LR * 1e-4)
                span = 1 + int(integers(window))
                lo = max(0, pos - span)
                hi = min(len(kept), pos + span + 1)
                contexts = kept[lo:pos] + kept[pos + 1:hi]
                # one row of negatives per context, drawn in the per-context order
                draws = noise_index(random(negatives * len(contexts)))
                for context, negs in zip(contexts, draws.reshape(-1, negatives).tolist()):
                    targets = np.array([center] + [n for n in negs if n != center])
                    vin = vec_in[context]
                    vouts = vec_out.take(targets, axis=0)
                    grad = 1.0 / (1.0 + np.exp(-vouts @ vin))
                    grad[0] -= 1.0  # label 1 for the center, 0 for each negative
                    grad *= lr
                    vin -= grad @ vouts
                    vouts -= grad[:, None] * vin
                    vec_out[targets] = vouts
    return Embeddings({w: vec_in[index[w]].copy() for w in vocab}, dim)


def save_embeddings(emb: Embeddings, path: str) -> None:
    """Standard text vector format: `count dim` header, then one word per line."""
    write_lines([f"{len(emb.vectors)} {emb.dim}",
                 *(word + " " + " ".join(repr(float(x)) for x in vec)
                   for word, vec in emb.vectors.items())], path)


def _parse_values(path: str, lineno: int, items: list[str], count: int, error: type) -> list[float]:
    """`count` floats from one line of a model file; `error` names the line."""
    if len(items) != count:
        raise error(f"{path}: line {lineno}: expected {count} values, got {len(items)}")
    try:
        return [float(x) for x in items]
    except ValueError as exc:
        raise error(f"{path}: line {lineno}: {exc}") from None


def load_embeddings(path: str) -> Embeddings:
    lines = read_lines(path)
    try:
        count, dim = (int(x) for x in lines[0].split())
    except (IndexError, ValueError):
        raise EmbeddingError(f"{path}: line 1: header must be 'count dim'") from None
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        word, *items = line.split(" ")
        values = np.array(_parse_values(path, lineno, items, dim, EmbeddingError))
        if word in vectors:
            warnings.warn(f"{path}: duplicate word {word!r}, last occurrence wins", UserWarning)
        vectors[word] = values
    if len(vectors) != count:
        warnings.warn(
            f"{path}: header claims {count} words, found {len(vectors)}", UserWarning
        )
    return Embeddings(vectors, dim)
