"""Aspect lexicons: seed expansion through embedding neighborhoods and
keyword sentence matching.

The proofreading step is an offline file round trip: candidates are
exported with `save_terms`, a language specialist edits the list, and the
approved file is re-imported with `load_terms`.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

from ..corpus import read_lines, write_lines
from .embeddings import Embeddings

__all__ = ["AspectLexicon", "expand_seeds", "match_sentences", "load_terms", "save_terms"]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _tokens(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN_RE.findall(text)]


@dataclass
class AspectLexicon:
    aspect: str = ""  # aspect and language only name the lexicon in match_sentences' error
    language: str = ""
    approved_terms: list[str] = field(default_factory=list)


def expand_seeds(
    emb: Embeddings, seeds: list[str], k: int, min_sim: float = 0.0
) -> list[tuple[str, float]]:
    """Union of the top-k cosine neighbors of each seed, deduplicated by
    best similarity, seeds themselves excluded, sorted best-first."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if math.isnan(min_sim):
        raise ValueError("min_sim must be a number, got nan")
    present = [s for s in seeds if s in emb.vectors]
    missing = [s for s in seeds if s not in emb.vectors]
    if missing:
        warnings.warn(f"seeds missing from embedding vocabulary: {missing}", UserWarning)
    if not present:
        warnings.warn("all seeds are out of vocabulary; no candidates", UserWarning)
        return []
    best: dict[str, float] = {}
    seed_set = set(seeds)
    for seed in present:
        for word, sim in emb.neighbors(seed, k):
            if word in seed_set or sim < min_sim:
                continue
            if word not in best or sim > best[word]:
                best[word] = sim
    return sorted(best.items(), key=lambda item: (-item[1], item[0]))


def match_sentences(sentences: list[str], lexicon: AspectLexicon) -> list[int]:
    """Indices of sentences containing any lexicon term.

    Matching is case-insensitive on whole tokens; multi-word terms must
    appear as contiguous token sequences.  A term without tokens (blank, or
    punctuation only) is dropped: it would match every sentence.
    """
    by_width: dict[int, set[tuple[str, ...]]] = {}
    for term in lexicon.approved_terms:
        if toks := tuple(_tokens(term)):
            by_width.setdefault(len(toks), set()).add(toks)
    if not by_width:
        raise ValueError(f"lexicon {lexicon.aspect}/{lexicon.language} has no usable terms")
    matched = []
    for i, sentence in enumerate(sentences):
        toks = _tokens(sentence)
        for width, terms in by_width.items():
            # each window of `width` tokens is one set lookup among the terms
            if not terms.isdisjoint(zip(*[toks[k:] for k in range(width)])):
                matched.append(i)
                break
    return matched


def load_terms(path: str) -> list[str]:
    """One term per line; `#` starts a comment; a file with no usable term raises ValueError."""
    terms = [line.split("#", 1)[0].strip() for line in read_lines(path)]
    terms = [term for term in terms if term]
    if not any(_tokens(term) for term in terms):
        raise ValueError(f"terms file {path} has no usable terms")
    return terms


def save_terms(terms: list[tuple[str, float]], path: str, header: str) -> None:
    """Writes (term, similarity) candidate pairs under a `# header` line."""
    write_lines([f"# {header}", *(f"{term}  # cosine {sim:.4f}" for term, sim in terms)], path)
