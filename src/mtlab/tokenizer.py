"""Subword tokenization: BPE training/application, case features, exact inversion.

A sentence is pre-split into units (words, digit runs, punctuation runs,
placeholders, odd whitespace).  Words are lowercased and annotated with a
case feature; mixed-case words are split at case boundaries first.  BPE
merges are learned over the unit frequency dictionary and never cross unit
boundaries.  Joiner flags record which adjacent pieces had no space between
them, so detokenization is byte-exact for every input sentence.

Training follows the subword-nmt recipe (Sennrich, Haddow and Birch 2016):
the unit frequency dictionary comes from pre-splitting each distinct
whitespace chunk once, and each merge takes the most frequent pair from a
lazily invalidated max-heap over incrementally maintained pair counts;
merging a word in place changes only the counts of the pairs next to
each merge site.

Application caches per word, as subword-nmt does: each `BpeModel` keeps
two memos (`memo.Memo`), unit -> pieces and chunk -> tokens, so a chunk
seen before is neither pre-split nor merged again.  The memos live and die
with the model.  A chunk's memoized tokens end not joined, the form before
the default single-space separator, so most chunks are copied in as they
are.  A new chunk that is a plain word (letters with no capital after
the first, plus at most one trailing non-alphanumeric character) is
pre-split by one guard instead of the per-character class loop, since
no case boundary or placeholder can fall inside it.  A new unit is merged
in place on one symbol list: each step takes the leftmost lowest-ranked
pair and merges its occurrences from there on.  Rendering, parsing and
detokenizing each take one pass over the tokens: `render_tokens` escapes
only pieces that are not plain alphanumerics, `parse_tokens` unescapes
only bodies holding a backslash and accepts exactly the lines
`render_tokens` writes, and `detokenize` restores case inline.
`parse_tokens` parses each distinct item once: a module memo
(`memo.Memo`) maps an item to its token.

The per-item records, `_Unit` (a pre-split unit) and `AnnotatedToken`, are
NamedTuples, cheap to build and compare; a tokenized sentence is a tuple of
`AnnotatedToken`s, as in subword-nmt a segmented sentence is a sequence.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, groupby
from typing import NamedTuple

from .corpus import ParallelCorpus, read_lines, write_lines
from .memo import Memo

__all__ = [
    "CASE_C",
    "CASE_L",
    "CASE_U",
    "CASE_N",
    "MARKER",
    "PLACEHOLDER_RE",
    "format_placeholder",
    "AnnotatedToken",
    "BpeModel",
    "TokenizerError",
    "train_bpe",
    "train_bpe_texts",
    "tokenize",
    "detokenize",
    "save_model",
    "load_model",
    "render_tokens",
    "parse_tokens",
]

CASE_C = "C"  # true case: initial capital, rest lower
CASE_L = "L"  # all lower
CASE_U = "U"  # all capitals
CASE_N = "N"  # non-alphabetic (piece kept verbatim)
_CASES = frozenset((CASE_C, CASE_L, CASE_U, CASE_N))

# the joiner, which marks a spaceless gap in the one-line text form; one
# non-alphanumeric character, as `render_tokens` and `_parse_item` assume
MARKER = "■"

# placeholder tokens pass through pre-splitting whole and are never merged;
# group 1 is the index
PLACEHOLDER_RE = re.compile(r"⟦[A-Z][A-Z0-9]*_(\d+)⟧")

# `\s` on a str pattern matches exactly the characters `str.isspace` accepts
_SPACE_RUN_RE = re.compile(r"(\s+)")
# the letter, digit and other runs of an ASCII chunk
_ASCII_RUN_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9]+")

# keys a generation in the model memos and the parse memo; with both
# generations full, on Zipf text, the two model memos take about 45 MB
MEMO_LIMIT = 1 << 15


def format_placeholder(code: str, index: int) -> str:
    return f"⟦{code}_{index}⟧"


class TokenizerError(ValueError):
    pass


class AnnotatedToken(NamedTuple):
    piece: str
    case: str
    joined_right: bool = False  # no space between this piece and the next


@dataclass
class BpeModel:
    """Ordered merge list plus the base alphabet; immutable after training.

    Applying the model fills two memos of MEMO_LIMIT keys a generation:
    `_cache` maps a unit's text to its pieces, and `_chunks` maps a chunk
    (a whitespace-free run, or one whitespace run) to its tokens, all
    joined right but the last: the closed form, as the chunk reads before
    a single-space separator or at the end of a sentence.
    """

    merges: tuple[tuple[str, str], ...]
    alphabet: frozenset[str]
    mode: str = "joint"
    _ranks: dict = field(init=False, repr=False, compare=False)
    _cache: Memo = field(init=False, repr=False, compare=False)
    _chunks: Memo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._cache = Memo(MEMO_LIMIT)
        self._chunks = Memo(MEMO_LIMIT)

    @property
    def merge_count(self) -> int:
        return len(self.merges)


# ---------------------------------------------------------------------------
# pre-splitting


class _Unit(NamedTuple):
    text: str          # lowercased for cased words, verbatim otherwise
    case: str
    atomic: bool       # placeholders / whitespace: never BPE-split


def _classify(fragment: str, cased: bool = False) -> tuple[str, str]:
    """Return (piece_text, case) such that restoring case is byte-exact.

    Falls back to a verbatim N unit whenever lower/upper round-tripping
    would not reproduce the original (rare Unicode casing edge cases).
    A caller that knows the fragment holds a cased character passes
    `cased=True` to skip the scan for one.
    """
    if not cased and not any(c.islower() or c.isupper() for c in fragment):
        return fragment, CASE_N
    low = fragment.lower()
    if fragment == low:
        return low, CASE_L
    if low and fragment == low[0].upper() + low[1:]:
        return low, CASE_C
    if fragment == low.upper():
        return low, CASE_U
    return fragment, CASE_N


def _case_fragments(run: str) -> list[str]:
    """Split a letter run at case boundaries (WiFi -> Wi|Fi, HTTPServer -> HTTP|Server)."""
    starts = [0]
    for i in range(1, len(run)):
        if run[i].isupper() and run[i - 1].islower():
            starts.append(i)
        elif (
            run[i].islower()
            and run[i - 1].isupper()
            and i >= 2
            and run[i - 2].isupper()
        ):
            starts.append(i - 1)
    starts.append(len(run))
    # the second rule can emit a start directly after the first rule's; dedupe
    starts = sorted(set(starts))
    return [run[a:b] for a, b in zip(starts, starts[1:])]


def _plain_units(text: str) -> list[_Unit]:
    """Units of placeholder-free, whitespace-free text: letter runs split
    at case boundaries, digit runs and other runs.

    For ASCII, `[A-Za-z]`, `[0-9]` and the rest are exactly `str.isalpha`,
    `str.isdigit` and the rest, so one regex finds the runs, and every
    letter is cased; other text takes the per-character class loop.
    """
    is_ascii = text.isascii()
    if is_ascii:
        runs = _ASCII_RUN_RE.findall(text)
    else:
        cat = lambda c: "L" if c.isalpha() else ("D" if c.isdigit() else "O")
        runs = ["".join(grp) for _, grp in groupby(text, key=cat)]
    units = []
    for run in runs:
        if not run[0].isalpha():
            units.append(_Unit(run, CASE_N, False))
        elif len(run) == 1 or run[1:].islower():   # no capital after the first letter
            units.append(_Unit(*_classify(run, is_ascii), False))
        else:
            units.extend(_Unit(*_classify(frag, is_ascii), False) for frag in _case_fragments(run))
    return units


def _chunk_units(chunk: str) -> list[_Unit]:
    """Split one chunk into units.

    A whitespace run is one atomic unit; a whitespace-free chunk splits into
    placeholders (atomic; an ASCII chunk holds none) and `_plain_units`.
    """
    if chunk[0].isspace():
        return [_Unit(chunk, CASE_N, True)]
    # a plain word, optionally with one non-alphanumeric ("O" class) tail
    # character: nothing after its first letter is upper case, so no case
    # boundary falls inside it, and no placeholder fits in the tail; past
    # one letter, `islower` has proved a cased character
    word = chunk if len(chunk) == 1 or chunk[-1].isalnum() else chunk[:-1]
    if word.isalpha() and (len(word) == 1 or word[1:].islower()):
        units = [_Unit(*_classify(word, len(word) > 1), False)]
        if len(word) < len(chunk):
            units.append(_Unit(chunk[-1], CASE_N, False))
        return units
    if chunk.isascii():
        return _plain_units(chunk)
    units: list[_Unit] = []
    pos = 0
    for m in PLACEHOLDER_RE.finditer(chunk):
        units += _plain_units(chunk[pos : m.start()])
        units.append(_Unit(m.group(), CASE_N, True))
        pos = m.end()
    units += _plain_units(chunk[pos:])
    return units


def _split_chunks(sentence: str) -> list[tuple[str, bool]]:
    """Split a sentence into (chunk, joined_right) pairs.

    A chunk is a whitespace-free run or a whitespace run.  A single space
    between two whitespace-free runs is the default separator: it is not a
    chunk, and the chunk before it is not joined right.  Every other
    whitespace run (leading, trailing, longer, or of other whitespace
    characters) is a chunk of its own.  The last chunk is not joined right.
    """
    # runs alternate text, whitespace, text, ...; only the first and last text can be empty
    runs = _SPACE_RUN_RE.split(sentence)
    chunks: list[tuple[str, bool]] = []
    for i, run in enumerate(runs):
        if not run:
            continue
        if run == " " and runs[i - 1] and runs[i + 1]:
            chunks[-1] = (chunks[-1][0], False)
        else:
            chunks.append((run, True))
    if chunks:
        chunks[-1] = (chunks[-1][0], False)
    return chunks


def _presplit(sentence: str) -> list[_Unit]:
    return [unit for chunk, _ in _split_chunks(sentence) for unit in _chunk_units(chunk)]


# ---------------------------------------------------------------------------
# training


def _unit_frequencies(texts) -> dict[str, int]:
    """Frequency of every non-atomic unit, pre-splitting each distinct chunk once.

    Exact: `str.split()` breaks on the same characters as `str.isspace`, a
    unit never spans whitespace, and whitespace units are atomic.
    """
    chunks = Counter(chain.from_iterable(map(str.split, texts)))
    counts: dict[str, int] = {}
    get = counts.get
    for chunk, n in chunks.items():
        for unit in _chunk_units(chunk):
            if not unit.atomic:
                counts[unit.text] = get(unit.text, 0) + n
    return counts


def _train_merges(unit_freqs: dict[str, int], merge_count: int) -> tuple[list[tuple[str, str]], set[str]]:
    """Greedy merge learning with incremental pair-count maintenance.

    Pair counts are word-frequency weighted; ties break to the
    lexicographically smallest (left, right) pair.  Training stops early
    once no pair occurs at least twice.

    The best pair comes from a lazily invalidated heap keyed (-count, pair).
    Every pair that occurs at least twice has an entry whose count is at
    least the current one: a popped entry whose count is stale is pushed
    back with the current count, and after each merge the pairs that touch
    the new symbol (the only ones whose count can grow) are pushed again.

    Each word is a symbol list merged in place, left to right without
    overlaps, as subword-nmt's `update_pair_statistics` does: a merge site
    between `prev` and `next` moves the counts of (prev, left) and
    (right, next) to (prev, merged) and (merged, next), and takes one off
    the best pair; no other pair of the word changes.  The pair -> words
    index keeps a list per pair that only grows (bar the merged pair's
    entry), and a merge indexes only the pairs holding the new symbol.  An
    id is skipped only when it equals the list's last entry, so a word adds
    itself once per pass but may recur after other words.  A repeat is
    harmless: a listed word that no longer holds the pair has no site and
    is left alone, and no count or heap key depends on the visiting order.

    The counts and the index are plain dicts read through bound `get`s:
    CPython specializes a subscript only on an exact `dict`, and a `Counter`
    or `defaultdict` would also run `__missing__` for each new key.
    """
    words = [list(w) for w in unit_freqs]
    freqs = list(unit_freqs.values())
    alphabet = {c for w in words for c in w}

    pair_counts: dict[tuple[str, str], int] = {}
    pair_where: dict[tuple[str, str], list[int]] = {}
    count_of, where_of = pair_counts.get, pair_where.get
    for wi, word in enumerate(words):
        freq = freqs[wi]
        for pair in zip(word, word[1:]):
            pair_counts[pair] = count_of(pair, 0) + freq
            where = where_of(pair)
            if where is None:
                pair_where[pair] = [wi]
            elif where[-1] != wi:
                where.append(wi)
    heap = [(-count, pair) for pair, count in pair_counts.items() if count >= 2]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while heap and len(merges) < merge_count:
        neg_count, best = heapq.heappop(heap)
        count = count_of(best, 0)
        if count != -neg_count:
            if count >= 2:
                heapq.heappush(heap, (-count, best))
            continue
        merges.append(best)
        left, right = best
        merged = left + right
        grown = set()
        for wi in pair_where.pop(best):
            word = words[wi]
            freq = freqs[wi]
            last = len(word) - 1
            i = 0
            while i < last:
                if word[i] == left and word[i + 1] == right:
                    pair_counts[best] -= freq
                    if i:
                        prev = word[i - 1]
                        pair_counts[prev, left] -= freq
                        pair = (prev, merged)
                        pair_counts[pair] = count_of(pair, 0) + freq
                        where = where_of(pair)
                        if where is None:
                            pair_where[pair] = [wi]
                        elif where[-1] != wi:
                            where.append(wi)
                        grown.add(pair)
                    if i < last - 1:
                        nxt = word[i + 2]
                        pair_counts[right, nxt] -= freq
                        pair = (merged, nxt)
                        pair_counts[pair] = count_of(pair, 0) + freq
                        where = where_of(pair)
                        if where is None:
                            pair_where[pair] = [wi]
                        elif where[-1] != wi:
                            where.append(wi)
                        grown.add(pair)
                    word[i : i + 2] = [merged]
                    last -= 1
                i += 1
        for pair in grown:
            if pair_counts[pair] >= 2:
                heapq.heappush(heap, (-pair_counts[pair], pair))
    return merges, alphabet


def train_bpe_texts(texts: list[str], merge_count: int, mode: str = "joint") -> BpeModel:
    """Train a single model over an arbitrary text collection."""
    if merge_count < 0:
        raise TokenizerError("merge_count must be non-negative")
    freqs = _unit_frequencies(texts)
    if not freqs:
        raise TokenizerError("cannot train on an empty corpus")
    merges, alphabet = _train_merges(freqs, merge_count)
    return BpeModel(tuple(merges), frozenset(alphabet), mode)


def train_bpe(corpus: ParallelCorpus, merge_count: int, mode: str = "joint"):
    """Train on a parallel corpus: one joint model, or a (source, target) pair."""
    if mode == "joint":
        return train_bpe_texts(corpus.sources() + corpus.targets(), merge_count, "joint")
    if mode == "separate":
        src = train_bpe_texts(corpus.sources(), merge_count, "separate-source")
        tgt = train_bpe_texts(corpus.targets(), merge_count, "separate-target")
        return src, tgt
    raise TokenizerError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# application


def _encode_unit(text: str, model: BpeModel) -> tuple[str, ...]:
    """Apply merges in training order within one unit (rank-based).

    Each step merges, in place, every occurrence of the lowest-ranked pair
    from its leftmost one on; none lies before it, so this merges the
    whole unit left to right without overlaps.
    """
    symbols = list(text)
    rank_of = model._ranks.get
    unranked = len(model.merges)  # above every rank, even with a merge listed twice
    while (pairs := len(symbols) - 1) > 0:
        best = unranked
        for i in range(pairs):
            rank = rank_of((symbols[i], symbols[i + 1]), unranked)
            if rank < best:
                best, at = rank, i
        if best == unranked:
            break
        left, right = symbols[at], symbols[at + 1]
        merged = left + right
        i = at
        while i < len(symbols) - 1:
            if symbols[i] == left and symbols[i + 1] == right:
                symbols[i : i + 2] = [merged]
            i += 1
    return tuple(symbols)


def _encode_chunk(chunk: str, model: BpeModel) -> tuple[AnnotatedToken, ...]:
    """A chunk's annotated pieces, all joined right but the last."""
    tokens: list[AnnotatedToken] = []
    cache = model._cache
    for unit in _chunk_units(chunk):
        if unit.atomic:
            tokens.append(AnnotatedToken(unit.text, unit.case, True))
            continue
        pieces = cache.get(unit.text) or cache.fill(unit.text, _encode_unit, model)
        for j, piece in enumerate(pieces):
            case = CASE_L if j and unit.case == CASE_C else unit.case
            tokens.append(AnnotatedToken(piece, case, True))
    last = tokens[-1]
    tokens[-1] = AnnotatedToken(last.piece, last.case, False)
    return tuple(tokens)


def tokenize(model: BpeModel, sentence: str) -> tuple[AnnotatedToken, ...]:
    """Segment a sentence into annotated subword pieces.

    Total: characters outside the alphabet simply pass through as
    single-character pieces.
    """
    tokens: list[AnnotatedToken] = []
    memo = model._chunks
    get = memo.get   # bound once, as `memo.Memo` advises for a loop
    for chunk, joined in _split_chunks(sentence):
        tokens.extend(get(chunk) or memo.fill(chunk, _encode_chunk, model))
        if joined:
            last = tokens[-1]
            tokens[-1] = AnnotatedToken(last.piece, last.case, True)
    return tuple(tokens)


def detokenize(tokens: tuple[AnnotatedToken, ...]) -> str:
    """Exact inverse of tokenize: joiners collapse spaces, case features
    restore the original casing."""
    out: list[str] = []
    gap = ""
    for piece, case, joined in tokens:
        if case == CASE_C:
            piece = piece[:1].upper() + piece[1:]
        elif case == CASE_U:
            piece = piece.upper()
        out.append(gap + piece)
        gap = "" if joined else " "
    return "".join(out)


# ---------------------------------------------------------------------------
# text renderings

# character -> the letter that follows the backslash in its escape; one
# translate pass does every escape, so no escape's output is escaped again
_ESCAPE_LETTERS = {"\\": "\\", " ": "s", "\t": "t", "\n": "n", "\r": "r", "|": "p", MARKER: "m"}
_ESCAPES = str.maketrans({c: "\\" + e for c, e in _ESCAPE_LETTERS.items()})
_UNESCAPES = {e: c for c, e in _ESCAPE_LETTERS.items()}
_ESCAPE_SEQ_RE = re.compile(r"\\(.?)", re.DOTALL)


def _escape(piece: str) -> str:
    return piece.translate(_ESCAPES)


def _unescape(piece: str) -> str:
    """Inverse of _escape; an unknown escape or a lone backslash at the end
    raises TokenizerError."""
    if "\\" not in piece:
        return piece

    def decode(m: re.Match) -> str:
        char = _UNESCAPES.get(m.group(1))
        if char is None:
            raise TokenizerError(f"unknown escape {m.group()!r} in {piece!r}" if m.group(1)
                                 else f"lone backslash at the end of {piece!r}")
        return char

    return _ESCAPE_SEQ_RE.sub(decode, piece)


def render_tokens(tokens: tuple[AnnotatedToken, ...]) -> str:
    """One-line text form: `piece|CASE` items separated by single spaces.

    A spaceless gap puts the marker on the left piece's right edge, except
    that a gap before a non-alphabetic token marks that token's left edge
    instead (matching the conventional look: `wi■ fi ■,`).
    """
    last = len(tokens) - 1
    items = []
    after_joined = False
    for i, (piece, case, joined) in enumerate(tokens):
        lead = after_joined and case == CASE_N
        trail = joined and i < last and tokens[i + 1].case != CASE_N
        body = piece if piece.isalnum() else _escape(piece)
        items.append(f"{MARKER if lead else ''}{body}{MARKER if trail else ''}|{case}")
        after_joined = joined
    return " ".join(items)


def _parse_item(item: str, first: bool = False) -> tuple[AnnotatedToken, bool]:
    """One rendered item as (token, left-marked); the token is joined right
    when the item has a right mark.  Raises TokenizerError on every fault
    that needs no neighbouring item to see.  An item that comes `first` in
    its line also raises on a left mark, ahead of the body checks, so that
    such an item names its left mark even when its body is faulty too."""
    body, sep, case = item.rpartition("|")
    if not sep or case not in _CASES:
        raise TokenizerError(f"malformed token item {item!r}")
    lead = body.startswith(MARKER)
    if lead:
        body = body[1:]
    trail = body.endswith(MARKER)
    if trail:
        body = body[:-1]
    if not body:
        raise TokenizerError(f"token item {item!r} has an empty piece")
    if MARKER in body and "|" not in body:
        raise TokenizerError(f"token item {item!r} holds a raw marker inside its piece")
    if lead and (first or case != CASE_N):
        raise TokenizerError(f"token item {item!r} has a left mark, which only an N piece "
                             "after another token takes")
    if not body.isalnum():
        if "|" in body:
            raise TokenizerError(f"token item {item!r} holds an unescaped '|'")
        # only a backslash or a raw tab, LF or CR (not printable) calls for an escape
        if "\\" in body or not body.isprintable():
            piece = _unescape(body)
            if _escape(piece) != body:
                raise TokenizerError(f"token item {item!r} is not escaped as render_tokens escapes it")
            body = piece
    return AnnotatedToken(body, case, trail), lead


# item -> _parse_item(item); a raising item is never stored
_parsed = Memo(MEMO_LIMIT)


def parse_tokens(text: str) -> tuple[AnnotatedToken, ...]:
    """Inverse of render_tokens, accepting exactly the lines it writes.

    A malformed item, an unescaped `|`, a bad escape, an empty piece (which
    tokenize never yields), a raw marker inside a piece, a body escaped
    other than as render_tokens escapes it, or a mark where render_tokens
    puts none (a left mark on the first item or before a piece that is not
    N, a right mark on the last item or before an N piece) raises
    TokenizerError.

    Each distinct item is parsed once: `_parse_item` checks it alone, its
    result is kept in the module memo `_parsed`, and this loop makes only
    the checks that need a neighbour.  The returned tokens are shared with
    the memo; they are immutable.
    """
    if not text:
        return ()
    if text.startswith(MARKER):   # a left-marked first item, which always raises
        _parse_item(text.partition(" ")[0], first=True)
    tokens: list[AnnotatedToken] = []
    trailed = False   # the previous item ends with a right mark
    get = _parsed.get   # bound once, as `memo.Memo` advises for a loop
    for item in text.split(" "):
        token, lead = get(item) or _parsed.fill(item, _parse_item)
        if lead:   # a left mark joins the previous token
            prev = tokens[-1]
            tokens[-1] = AnnotatedToken(prev.piece, prev.case, True)
        if trailed and token.case == CASE_N:
            raise TokenizerError(f"token item {item!r} is an N piece after a right mark")
        tokens.append(token)
        trailed = token.joined_right
    if trailed:
        raise TokenizerError(f"the last token item {item!r} has a right mark")
    return tuple(tokens)


# ---------------------------------------------------------------------------
# model files

_MODEL_HEADER = "bpe-v1"


def save_model(model: BpeModel, path: str) -> None:
    """Versioned header, one merge per line; alphabet appended for losslessness."""
    chars = [_escape(c) for c in sorted(model.alphabet)]
    write_lines([f"{_MODEL_HEADER} {model.mode} {model.merge_count}",
                 *(f"{left} {right}" for left, right in model.merges),
                 *("#alphabet " + " ".join(chars[i : i + 64]) for i in range(0, len(chars), 64))],
                path)


def load_model(path: str) -> BpeModel:
    lines = read_lines(path)
    if not lines or not lines[0].startswith(_MODEL_HEADER + " "):
        raise TokenizerError(f"{path}: not a {_MODEL_HEADER} model file")
    try:
        _, mode, count_text = lines[0].split(" ")
        count = int(count_text)
    except ValueError:
        raise TokenizerError(f"{path}: line 1: expected '{_MODEL_HEADER} <mode> <count>'") from None
    merges = []
    alphabet: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if line.startswith("#alphabet"):
            try:
                alphabet.update(_unescape(item) for item in line.split(" ")[1:])
            except TokenizerError as exc:
                raise TokenizerError(f"{path}: line {lineno}: {exc}") from None
            continue
        try:
            left, right = line.split(" ")
        except ValueError:
            raise TokenizerError(f"{path}: line {lineno}: expected two symbols, got {line!r}") from None
        merges.append((left, right))
    if len(merges) != count:
        raise TokenizerError(f"{path}: line 1: header claims {count} merges, found {len(merges)}")
    return BpeModel(tuple(merges), frozenset(alphabet), mode)
