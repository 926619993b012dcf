"""Parallel-corpus loading, validation, splitting and subsampling.

`read_lines`, `read_pairs` and `write_lines` are the one reader and writer
of line-oriented text files: UTF-8, LF or CRLF line ends, and errors that
name the file and the line.

A corpus is an ordered list of aligned sentence pairs.  Freshly loaded
corpora carry ids 0..n-1; derived corpora (splits, subsamples) keep the
ids of their parent so that disjointness and nesting can be checked by id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "SentencePair",
    "ParallelCorpus",
    "CorpusSplit",
    "CorpusError",
    "AlignmentError",
    "CorpusSizeError",
    "read_lines",
    "read_pairs",
    "write_lines",
    "load_parallel",
    "load_tsv",
    "write_parallel",
    "split",
    "subsample",
]


class CorpusError(ValueError):
    pass


class AlignmentError(CorpusError):
    """Source and target files disagree on line count."""


class CorpusSizeError(CorpusError):
    """Requested size is incompatible with the corpus size."""


@dataclass(frozen=True)
class SentencePair:
    source: str
    target: str
    id: int


@dataclass(frozen=True)
class ParallelCorpus:
    pairs: tuple[SentencePair, ...]
    dropped_count: int = 0  # blank-sided pairs removed at load time

    def __post_init__(self):
        ids = [p.id for p in self.pairs]
        if len(set(ids)) != len(ids):
            raise CorpusError("pair ids are not unique")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def ids(self) -> set[int]:
        return {p.id for p in self.pairs}

    def sources(self) -> list[str]:
        return [p.source for p in self.pairs]

    def targets(self) -> list[str]:
        return [p.target for p in self.pairs]


@dataclass(frozen=True)
class CorpusSplit:
    train: ParallelCorpus
    validation: ParallelCorpus
    seed: int


def read_lines(path: str) -> list[str]:
    """Lines of a UTF-8 text file; CorpusError names the line of a bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[: exc.start].count(b"\n") + 1
        raise CorpusError(f"{path}: invalid UTF-8 at line {line}") from None
    # LF and CRLF accepted; a trailing newline does not create an empty line
    text = text.replace("\r\n", "\n")
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n") if text else []


def read_pairs(path: str) -> list[tuple[str, str]]:
    """(left, right) fields of a TSV file with exactly one tab per line."""
    pairs = []
    for i, line in enumerate(read_lines(path), start=1):
        left, tab, right = line.partition("\t")
        if not tab or "\t" in right:
            raise CorpusError(f"{path}: line {i} must contain exactly one tab")
        pairs.append((left, right))
    return pairs


def write_lines(lines: list[str], path: str) -> None:
    """Each line followed by LF, UTF-8 encoded."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _build(rows: list[tuple[str, str]]) -> ParallelCorpus:
    pairs = []
    dropped = 0
    for src, tgt in rows:
        if not src.strip() or not tgt.strip():
            dropped += 1
            continue
        pairs.append(SentencePair(src, tgt, len(pairs)))
    return ParallelCorpus(tuple(pairs), dropped_count=dropped)


def load_parallel(source_path: str, target_path: str) -> ParallelCorpus:
    """Load two aligned one-sentence-per-line files into a corpus.

    Pairs with either side blank are dropped; the count is recorded on the
    corpus.  Raises AlignmentError when the line counts differ.
    """
    src_lines = read_lines(source_path)
    tgt_lines = read_lines(target_path)
    if len(src_lines) != len(tgt_lines):
        raise AlignmentError(
            f"line count mismatch: {source_path} has {len(src_lines)}, "
            f"{target_path} has {len(tgt_lines)}"
        )
    return _build(list(zip(src_lines, tgt_lines)))


def load_tsv(path: str) -> ParallelCorpus:
    """Load a two-column TSV corpus (exactly one tab per line)."""
    return _build(read_pairs(path))


def write_parallel(corpus: ParallelCorpus, source_path: str, target_path: str) -> None:
    """Inverse of load_parallel for corpora without dropped lines."""
    write_lines(corpus.sources(), source_path)
    write_lines(corpus.targets(), target_path)


def split(corpus: ParallelCorpus, validation_size: int, seed: int) -> CorpusSplit:
    """Deterministic seeded split into train and validation parts.

    The validation set is a uniform random sample of `validation_size`
    pairs; the same seed always yields the identical split.
    """
    if validation_size >= len(corpus):
        raise CorpusSizeError(
            f"validation size {validation_size} must be smaller than corpus size {len(corpus)}"
        )
    if validation_size < 0:
        raise CorpusSizeError("validation size must be non-negative")
    order = list(corpus.pairs)
    random.Random(seed).shuffle(order)
    val = tuple(sorted(order[:validation_size], key=lambda p: p.id))
    train = tuple(sorted(order[validation_size:], key=lambda p: p.id))
    return CorpusSplit(train=ParallelCorpus(train), validation=ParallelCorpus(val), seed=seed)


def subsample(corpus: ParallelCorpus, sizes: list[int], seed: int) -> list[ParallelCorpus]:
    """Nested seeded subsets: the k-th corpus contains the (k-1)-th.

    Mirrors a growing-corpus experiment: one shuffled order is drawn and
    each requested size is a prefix of it, so smaller subsets are always
    contained in larger ones.
    """
    if not sizes:
        return []
    if max(sizes) > len(corpus):
        raise CorpusSizeError(f"subsample size {max(sizes)} exceeds corpus size {len(corpus)}")
    if min(sizes) < 0:
        raise CorpusSizeError("subsample sizes must be non-negative")
    order = list(corpus.pairs)
    random.Random(seed).shuffle(order)
    # every subset is a prefix of the same shuffled order, so any smaller
    # subset is contained in any larger one regardless of request order
    out = []
    for size in sizes:
        pairs = tuple(sorted(order[:size], key=lambda p: p.id))
        out.append(ParallelCorpus(pairs))
    return out
