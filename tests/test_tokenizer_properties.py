"""Hypothesis property tests for the tokenizer: round trips, markers and BPE training."""

import random
import re
import string
import sys
from collections import Counter
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtlab import tokenizer as tk
from test_tokenizer import oracle_bpe

MODEL = tk.train_bpe_texts(
    ["the winter hotel offers a restaurant with wifi and garden views",
     "guests can walk to the station in ten minutes",
     "ein haus am see mit blick auf den garten"] * 4,
    120,
)

words = st.text(alphabet=string.ascii_letters + "äöüß", min_size=1, max_size=10)
punctuation = st.sampled_from([",", ".", "!", "?", ";", ":", "-", "(", ")", '"'])
numbers = st.integers(min_value=0, max_value=99999).map(str)
placeholders = st.builds(tk.format_placeholder, st.sampled_from(["DIST", "DUR", "TIME", "DATE"]),
                         st.integers(min_value=0, max_value=9))
chunk = st.one_of(words, numbers, placeholders,
                  st.tuples(words, punctuation).map("".join),
                  st.tuples(numbers, punctuation, words).map("".join))
sentences = st.lists(chunk, min_size=0, max_size=12).map(" ".join)

# a three-letter alphabet in mixed case makes pair-count ties common; the
# separators cover every whitespace run _presplit treats specially
tie_chunk = st.one_of(st.text(alphabet="abcAB", min_size=1, max_size=6), placeholders,
                      st.tuples(st.text(alphabet="abc", min_size=1, max_size=4),
                                st.sampled_from([",", "-", "7"])).map("".join))
separator = st.sampled_from([" ", " ", " ", "  ", "\t", "\u3000", "\x1c"])
tie_text = st.lists(st.tuples(separator, tie_chunk), max_size=8).map(
    lambda parts: "".join(sep + chunk for sep, chunk in parts)[1:])
tie_texts = st.lists(tie_text, min_size=1, max_size=8)


def _has_units(texts):
    return any(not unit.atomic for text in texts for unit in tk._presplit(text))


@given(sentences)
@settings(max_examples=300, deadline=None)
def test_round_trip_on_sentence_like_text(sentence):
    assert tk.detokenize(tk.tokenize(MODEL, sentence)) == sentence


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_round_trip_on_arbitrary_text(text):
    assert tk.detokenize(tk.tokenize(MODEL, text)) == text


@given(sentences)
@settings(max_examples=150, deadline=None)
def test_rendered_form_parses_back(sentence):
    ts = tk.tokenize(MODEL, sentence)
    assert tk.parse_tokens(tk.render_tokens(ts)) == ts


# markers like `@@` and `aba` overlap themselves, so a piece such as `@`
# or `ab` followed by the marker also starts with it; the other characters
# clash with the item separator or with the escapes
markers = st.one_of(
    st.sampled_from(["@@", "aba", "■■", "@|@", "e", "", " ", "a b", "s", "ps", "\\"]),
    st.text(alphabet="@a|■eLstnrpm\\ \t\u3000", max_size=4),
    st.text(max_size=3),
)
marker_chunk = st.one_of(chunk, st.sampled_from(["@", "a", "ab", "|", "\\"]))
marker_sentences = st.lists(st.tuples(st.sampled_from(["", " ", "  ", "\t"]), marker_chunk),
                            max_size=12).map(lambda parts: "".join(sep + c for sep, c in parts))


@given(st.one_of(sentences, marker_sentences), markers)
@settings(max_examples=500, deadline=None)
def test_every_accepted_marker_round_trips(sentence, marker):
    ts = tk.tokenize(MODEL, sentence)
    try:
        rendered = tk.render_tokens(ts, marker)
    except tk.TokenizerError:
        with pytest.raises(tk.TokenizerError):
            tk.parse_tokens("a|L", marker)
        return
    assert tk.parse_tokens(rendered, marker) == ts


@given(st.text(alphabet=string.ascii_letters, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_piece_sequences_case_invariant(word):
    lower = tk.tokenize(MODEL, word.lower()).pieces()
    upper = tk.tokenize(MODEL, word.upper()).pieces()
    assert lower == upper


@given(tie_texts, st.integers(min_value=0, max_value=40))
@settings(max_examples=300, deadline=None)
def test_merge_list_matches_oracle_on_tie_heavy_texts(texts, merge_count):
    assume(_has_units(texts))
    assert list(tk.train_bpe_texts(texts, merge_count).merges) == oracle_bpe(texts, merge_count)


@given(tie_texts, st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_merges_ignore_line_order(texts, seed):
    assume(_has_units(texts))
    shuffled = list(texts)
    random.Random(seed).shuffle(shuffled)
    assert tk.train_bpe_texts(shuffled, 40).merges == tk.train_bpe_texts(texts, 40).merges


@given(st.one_of(tie_texts, st.lists(st.text(max_size=40), max_size=6)))
@settings(max_examples=300, deadline=None)
def test_unit_frequencies_match_per_sentence_presplit(texts):
    expected = Counter(unit.text for text in texts for unit in tk._presplit(text)
                       if not unit.atomic)
    assert tk._unit_frequencies(texts) == expected


def _reference_chunk_units(chunk):
    """Pre-splitting of one chunk as a character-class `groupby`, split at
    case boundaries: the loop every chunk took before the plain-word guard."""
    if chunk[0].isspace():
        return [tk._Unit(chunk, tk.CASE_N, True, True)]
    units = []

    def emit_plain(text):
        cat = lambda c: "L" if c.isalpha() else ("D" if c.isdigit() else "O")
        for kind, grp in groupby(text, key=cat):
            run = "".join(grp)
            if kind == "L":
                for frag in tk._case_fragments(run):
                    piece, case = tk._classify(frag)
                    units.append(tk._Unit(piece, case, False, True))
            else:
                units.append(tk._Unit(run, tk.CASE_N, False, True))

    pos = 0
    for m in tk.PLACEHOLDER_RE.finditer(chunk):
        if m.start() > pos:
            emit_plain(chunk[pos : m.start()])
        units.append(tk._Unit(m.group(), tk.CASE_N, True, True))
        pos = m.end()
    if pos < len(chunk):
        emit_plain(chunk[pos:])
    return units


def _reference_encode_unit(model, text):
    """Merges in rank order, rebuilding the symbol tuple with `_merge_word`
    at every step; no memo."""
    symbols = tuple(text)
    while len(symbols) > 1:
        best_rank, best_pair = None, None
        for pair in zip(symbols, symbols[1:]):
            rank = model._ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank, best_pair = rank, pair
        if best_pair is None:
            break
        symbols = tk._merge_word(symbols, *best_pair, "".join(best_pair))
    return symbols


def _reference_presplit(sentence):
    """Pre-splitting as runs of `str.isspace`: a single interior space is the
    separator, any other whitespace run is an atomic unit."""
    units = []
    runs = ["".join(grp) for _, grp in groupby(sentence, key=str.isspace)]
    for i, run in enumerate(runs):
        if run[0].isspace():
            if 0 < i < len(runs) - 1 and run == " ":
                units[-1] = tk._Unit(units[-1].text, units[-1].case, units[-1].atomic, False)
                continue
            units.append(tk._Unit(run, tk.CASE_N, True, True))
        else:
            units.extend(_reference_chunk_units(run))
    if units:
        units[-1] = tk._Unit(units[-1].text, units[-1].case, units[-1].atomic, False)
    return units


def _reference_tokenize(model, sentence):
    """Tokenization unit by unit: pre-split, then encode each unit."""
    tokens = []
    for unit in _reference_presplit(sentence):
        if unit.atomic:
            tokens.append(tk.AnnotatedToken(unit.text, unit.case, unit.joined_right))
            continue
        pieces = _reference_encode_unit(model, unit.text)
        for j, piece in enumerate(pieces):
            case = tk.CASE_L if unit.case == tk.CASE_C and j > 0 else unit.case
            joined = j < len(pieces) - 1 or unit.joined_right
            tokens.append(tk.AnnotatedToken(piece, case, joined))
    return tk.TokenizedSentence(tuple(tokens))


# whitespace that is not a plain space: U+0085 and U+001C are `str.isspace`
# but not split on by every tokenizer; U+3000 is the ideographic space
odd_space = st.sampled_from([" ", " ", " ", "  ", "\t", " \t", "\n", "\u3000", "\x85", "\x1c"])
# cased edge characters: titlecase ǅ, İ and ß (whose case maps change
# length), final sigma, the ligature ﬁ, and alphanumerics that are not
# letters (½ is numeric, ² a digit, ٣ a decimal); then word + tail chunks
odd_chunk = st.one_of(chunk, placeholders,
                      st.sampled_from(["WiFi", "HTTPServer", "iPhone", "ß", "ǅ", "İ", "ΣΑΣ", "ﬁ",
                                       "½", "²", "٣", "Word.", "wort½", "ab⟦", "Ǆa", "aǅ."]),
                      st.text(alphabet="aAbB7.,⟦⟧_İ", min_size=1, max_size=6))
odd_texts = st.tuples(st.lists(st.tuples(odd_space, odd_chunk), max_size=10),
                      st.booleans(), st.sampled_from(["", "", " ", "\t", "\x85"])).map(
    lambda t: "".join(sep + c for sep, c in t[0])[0 if t[1] else 1:] + t[2])


@pytest.mark.parametrize("limit", [tk.MEMO_LIMIT, 1])
@given(st.one_of(odd_texts, st.text(alphabet="aAb ⟦⟧D_0\t\u3000\x85\x1c.", max_size=30),
                 st.text(max_size=30)))
@settings(max_examples=300, deadline=None)
def test_tokenize_matches_unit_by_unit_reference(limit, text):
    reference = _reference_tokenize(tk.BpeModel(MODEL.merges, MODEL.alphabet), text)
    model = tk.BpeModel(MODEL.merges, MODEL.alphabet)
    with mock.patch.object(tk, "MEMO_LIMIT", limit):
        first = tk.tokenize(model, text)
        second = tk.tokenize(model, text)  # every chunk is memoized now, unless bounded out
    assert first == second == reference
    assert tk._presplit(text) == _reference_presplit(text)
    assert len(model._chunks) <= limit and len(model._cache) <= limit


def test_full_memo_starts_over():
    model = tk.BpeModel(MODEL.merges, MODEL.alphabet)
    with mock.patch.object(tk, "MEMO_LIMIT", 2):
        for chunk in ("hotel", "garden", "views", "station"):
            tk.tokenize(model, chunk)
    assert "station" in model._chunks and "station" in model._cache
    assert len(model._chunks) <= 2 and len(model._cache) <= 2


def test_space_class_is_str_isspace():
    # pre-splitting finds whitespace runs with `\s`; it must match `str.isspace` exactly
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]


def test_plain_word_guard_matches_reference_on_every_cased_or_alphanumeric_bmp_char():
    # the guard pre-splits letter-only words (plus one non-alphanumeric tail)
    # without the class loop; every character that can sit in a word must
    # give the reference's units alone, with a tail, and inside a word
    chars = [c for c in map(chr, range(0x10000)) if c.isalnum() or c.islower() or c.isupper()]
    chunks = [*chars, *(c + "." for c in chars), *("a" + c for c in chars),
              *("A" + c + "b" for c in chars)]
    wrong = [chunk for chunk, units, expected in zip(
        chunks, map(tk._chunk_units, chunks), map(_reference_chunk_units, chunks))
        if units != expected]
    assert wrong == []


# merge lists over two letters whose symbols repeat (aa, abab): the in-place
# merge must take each occurrence left to right, as `_merge_word` does.  A
# merge may be listed twice, as a model file may hold it; `_ranks` keeps its
# last rank and so has fewer entries than the merge list.
two_letter_symbols = st.text(alphabet="ab", min_size=1, max_size=4)
two_letter_merges = st.lists(st.tuples(two_letter_symbols, two_letter_symbols), max_size=12)


@given(two_letter_merges, st.lists(st.text(alphabet="ab", min_size=1, max_size=14), max_size=8))
@settings(max_examples=300, deadline=None)
def test_encode_unit_matches_tuple_merge_reference(merges, texts):
    model = tk.BpeModel(tuple(merges), frozenset("ab"))
    for text in texts:
        assert tk._encode_unit(model, text) == _reference_encode_unit(model, text)


@pytest.mark.parametrize("merges, text, pieces", [
    ([("a", "a")], "aaaaa", ("aa", "aa", "a")),
    ([("a", "a"), ("aa", "aa")], "aaaaaaa", ("aaaa", "aa", "a")),
    ([("a", "b"), ("ab", "ab")], "ababa", ("abab", "a")),
    ([("b", "a"), ("a", "b")], "ababab", ("a", "ba", "ba", "b")),
    ([("a", "b"), ("a", "b"), ("b", "a")], "abba", ("ab", "ba")),
    ([("a", "b"), ("a", "b"), ("b", "b")], "abbb", ("ab", "bb")),
])
def test_encode_unit_on_repeated_symbols(merges, text, pieces):
    model = tk.BpeModel(tuple(merges), frozenset("ab"))
    assert _reference_encode_unit(model, text) == pieces
    assert tk._encode_unit(model, text) == pieces
    assert model._cache == {text: pieces}


def _reference_render(ts, marker=tk.DEFAULT_MARKER):
    """`render_tokens` before the one-pass rewrite: index look-ups around every token."""
    overlaps = False
    if marker != tk.DEFAULT_MARKER:
        tk.check_marker(marker)
        overlaps = any(marker.startswith(marker[k:]) for k in range(1, len(marker)))
    items = []
    for i, token in enumerate(ts.tokens):
        lead = i > 0 and ts.tokens[i - 1].joined_right and token.case == tk.CASE_N
        trail = (token.joined_right and i + 1 < len(ts.tokens)
                 and ts.tokens[i + 1].case != tk.CASE_N)
        body = tk._escape(token.piece, marker)
        if overlaps and trail and not lead and (body + marker).startswith(marker):
            body = "\\e" + body
        items.append((marker if lead else "") + body + (marker if trail else "") + "|" + token.case)
    return " ".join(items)


def _reference_parse(text, marker=tk.DEFAULT_MARKER):
    """`parse_tokens` before the one-pass rewrite (it let empty pieces and raw
    bars through)."""
    if marker != tk.DEFAULT_MARKER:
        tk.check_marker(marker)
    if not text:
        return tk.TokenizedSentence()
    parsed = []
    for item in text.split(" "):
        body, sep, case = item.rpartition("|")
        if not sep or case not in tk._CASES:
            raise tk.TokenizerError(f"malformed token item {item!r}")
        if body.startswith(marker):
            body = body[len(marker):]
            if parsed:
                parsed[-1][2] = True
        trail = body.endswith(marker)
        if trail:
            body = body[: -len(marker)]
        parsed.append([tk._unescape(body, marker), case, trail])
    return tk.TokenizedSentence(tuple([tk.AnnotatedToken(*p) for p in parsed]))


# `x` is alphanumeric, so a piece holding it must still be escaped; `ab`
# and `Ω` are longer or non-ASCII markers that do not overlap themselves
render_markers = st.sampled_from(["■", "@@", "x", "ab", "Ω"])
odd_piece = st.text(alphabet="ab\\| \t\n\rx@Ω■ezL", min_size=1, max_size=5)
odd_tokens = st.lists(st.builds(tk.AnnotatedToken, st.one_of(odd_piece, words),
                                st.sampled_from(sorted(tk._CASES)), st.booleans()), max_size=10)


@given(odd_tokens, render_markers)
@settings(max_examples=500, deadline=None)
def test_render_and_parse_match_reference(tokens, marker):
    if tokens:
        tokens[-1] = tokens[-1]._replace(joined_right=False)
    ts = tk.TokenizedSentence(tuple(tokens))
    rendered = tk.render_tokens(ts, marker)
    assert rendered == _reference_render(ts, marker)
    assert tk.parse_tokens(rendered, marker) == _reference_parse(rendered, marker) == ts


item_text = st.lists(st.tuples(st.text(alphabet="ab\\■@xΩms|", max_size=4),
                               st.sampled_from(["|L", "|N", "|C", "|X", ""])),
                     min_size=1, max_size=6).map(lambda items: " ".join(b + c for b, c in items))


_KNOWN_ESCAPE_RE = re.compile(r"\\[\\stnrpme]")


def _lossy(text):
    """True if an item body holds what render_tokens never writes: a raw `|`,
    or a backslash that starts no escape (an unknown letter or the end)."""
    return any("|" in body or "\\" in _KNOWN_ESCAPE_RE.sub("", body)
               for body, _, _ in (item.rpartition("|") for item in text.split(" ")))


@given(item_text, render_markers)
@settings(max_examples=500, deadline=None)
def test_parse_matches_reference_on_arbitrary_items(text, marker):
    try:
        expected = _reference_parse(text, marker)
    except tk.TokenizerError:
        expected = None
    if expected is None or not all(expected.pieces()) or _lossy(text):
        with pytest.raises(tk.TokenizerError):
            tk.parse_tokens(text, marker)
    else:
        assert tk.parse_tokens(text, marker) == expected
