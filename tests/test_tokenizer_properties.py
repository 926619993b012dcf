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
            units.extend(tk._chunk_units(run))
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
        pieces = tk._encode_unit(model, unit.text)
        for j, piece in enumerate(pieces):
            case = tk.CASE_L if unit.case == tk.CASE_C and j > 0 else unit.case
            joined = j < len(pieces) - 1 or unit.joined_right
            tokens.append(tk.AnnotatedToken(piece, case, joined))
    return tk.TokenizedSentence(tuple(tokens))


# whitespace that is not a plain space: U+0085 and U+001C are `str.isspace`
# but not split on by every tokenizer; U+3000 is the ideographic space
odd_space = st.sampled_from([" ", " ", " ", "  ", "\t", " \t", "\n", "\u3000", "\x85", "\x1c"])
odd_chunk = st.one_of(chunk, placeholders, st.sampled_from(["WiFi", "HTTPServer", "iPhone", "ß"]),
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
