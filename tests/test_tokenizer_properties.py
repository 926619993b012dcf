"""Hypothesis property tests for the tokenizer: round trips, the rendered form and BPE training."""

import heapq
import random
import re
import string
import sys
from collections import Counter, defaultdict
from itertools import groupby, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mtlab import tokenizer as tk
from mtlab.memo import Memo
from test_tokenizer import oracle_bpe, pieces

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


# one- and two-character chunks glued to the marker, and chunks holding the
# item separator `|` or the escape character `\`, apart by any whitespace run
marker_chunk = st.one_of(chunk, st.sampled_from(["@", "a", "ab", "|", "\\"]))
marker_sentences = st.lists(st.tuples(st.sampled_from(["", " ", "  ", "\t"]), marker_chunk),
                            max_size=12).map(lambda parts: "".join(sep + c for sep, c in parts))


@given(st.one_of(sentences, marker_sentences))
@settings(max_examples=500, deadline=None)
def test_every_accepted_marker_round_trips(sentence):
    ts = tk.tokenize(MODEL, sentence)
    assert tk.parse_tokens(tk.render_tokens(ts)) == ts


@given(st.text(alphabet=string.ascii_letters, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_piece_sequences_case_invariant(word):
    lower = pieces(tk.tokenize(MODEL, word.lower()))
    upper = pieces(tk.tokenize(MODEL, word.upper()))
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
        return [tk._Unit(chunk, tk.CASE_N, True)]
    units = []

    def emit_plain(text):
        cat = lambda c: "L" if c.isalpha() else ("D" if c.isdigit() else "O")
        for kind, grp in groupby(text, key=cat):
            run = "".join(grp)
            if kind == "L":
                for frag in tk._case_fragments(run):
                    piece, case = tk._classify(frag)
                    units.append(tk._Unit(piece, case, False))
            else:
                units.append(tk._Unit(run, tk.CASE_N, False))

    pos = 0
    for m in tk.PLACEHOLDER_RE.finditer(chunk):
        if m.start() > pos:
            emit_plain(chunk[pos : m.start()])
        units.append(tk._Unit(m.group(), tk.CASE_N, True))
        pos = m.end()
    if pos < len(chunk):
        emit_plain(chunk[pos:])
    return units


def _merge_word(word, left, right, merged):
    """Merge every occurrence of (left, right), left to right without overlaps."""
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == left and word[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


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
        symbols = _merge_word(symbols, *best_pair, "".join(best_pair))
    return symbols


def _reference_presplit(sentence):
    """Pre-splitting as runs of `str.isspace`, as (unit, joined_right) pairs:
    a single interior space is the separator, any other whitespace run is an
    atomic unit."""
    units = []
    runs = ["".join(grp) for _, grp in groupby(sentence, key=str.isspace)]
    for i, run in enumerate(runs):
        if run[0].isspace():
            if 0 < i < len(runs) - 1 and run == " ":
                units[-1] = (units[-1][0], False)
                continue
            units.append((tk._Unit(run, tk.CASE_N, True), True))
        else:
            units.extend((unit, True) for unit in _reference_chunk_units(run))
    if units:
        units[-1] = (units[-1][0], False)
    return units


def _reference_tokenize(model, sentence):
    """Tokenization unit by unit: pre-split, then encode each unit."""
    tokens = []
    for unit, joined_right in _reference_presplit(sentence):
        if unit.atomic:
            tokens.append(tk.AnnotatedToken(unit.text, unit.case, joined_right))
            continue
        pieces = _reference_encode_unit(model, unit.text)
        for j, piece in enumerate(pieces):
            case = tk.CASE_L if unit.case == tk.CASE_C and j > 0 else unit.case
            joined = j < len(pieces) - 1 or joined_right
            tokens.append(tk.AnnotatedToken(piece, case, joined))
    return tuple(tokens)


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


@pytest.mark.parametrize("limit", [1 << 16, 1])   # a limit no example reaches, and the least
@given(st.one_of(odd_texts, st.text(alphabet="aAb ⟦⟧D_0\t\u3000\x85\x1c.", max_size=30),
                 st.text(max_size=30)))
@settings(max_examples=300, deadline=None)
def test_tokenize_matches_unit_by_unit_reference(limit, text):
    reference = _reference_tokenize(tk.BpeModel(MODEL.merges, MODEL.alphabet), text)
    model = tk.BpeModel(MODEL.merges, MODEL.alphabet)
    model._chunks.limit = model._cache.limit = limit
    first = tk.tokenize(model, text)
    second = tk.tokenize(model, text)  # every chunk is memoized now, unless bounded out
    assert first == second == reference
    assert tk._presplit(text) == [unit for unit, _ in _reference_presplit(text)]
    assert max(map(len, _generations(model))) <= limit


@given(st.lists(odd_texts, max_size=8))
@example(["a  b", "a b", "a\tb", "a"])
@example(["a", "a\tb", "a b", "a  b"])
@settings(max_examples=200, deadline=None)
def test_memo_reuse_across_sentences_matches_reference(texts):
    # one model's memos carry each chunk from sentence to sentence, where it
    # may be joined in one and closed in the next
    model = tk.BpeModel(MODEL.merges, MODEL.alphabet)
    for text in texts:
        assert tk.tokenize(model, text) == _reference_tokenize(tk.BpeModel(MODEL.merges, MODEL.alphabet), text)
    # each memoized chunk is closed: every token but the last is joined right
    assert all([t.joined_right for t in tokens] == [True] * (len(tokens) - 1) + [False]
               for tokens in model._chunks.values())


@given(st.lists(st.one_of(odd_texts, st.text(max_size=30)), max_size=6))
@settings(max_examples=200, deadline=None)
def test_unit_memo_grows_by_the_units_tokenize_encodes(texts):
    # the text_pipeline benchmark counts encode misses this way: on a fresh
    # model, `len(model._cache)` grows by the new non-atomic units of `_presplit`
    model = tk.BpeModel(MODEL.merges, MODEL.alphabet)
    seen = set()
    for text in texts:
        before = len(model._cache)
        tk.tokenize(model, text)
        new = {unit.text for unit in tk._presplit(text) if not unit.atomic} - seen
        assert len(model._cache) - before == len(new)
        seen |= new


def _generations(model):
    return model._chunks, model._chunks.previous, model._cache, model._cache.previous


def test_full_memo_starts_over():
    # a full generation becomes `previous` and the current one starts empty
    model = tk.BpeModel(MODEL.merges, MODEL.alphabet)
    model._chunks.limit = model._cache.limit = 2
    for chunk in ("hotel", "garden", "views", "station"):
        tk.tokenize(model, chunk)
    assert set(model._chunks) == {"views", "station"} and "station" in model._cache
    assert set(model._chunks.previous) == {"hotel", "garden"}
    assert max(map(len, _generations(model))) <= 2


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


ascii_solid = [c for c in map(chr, range(128)) if not c.isspace()]


def test_chunk_units_match_reference_on_every_short_ascii_chunk():
    # the ASCII path finds runs with one regex; every chunk of one or two
    # non-whitespace characters, and every three-character chunk over
    # letters of both cases, digits and separators, must split as the loop does
    chunks = [*ascii_solid, *(a + b for a in ascii_solid for b in ascii_solid),
              *map("".join, product("aAzZ09.-:/_", repeat=3))]
    wrong = [chunk for chunk in chunks if tk._chunk_units(chunk) != _reference_chunk_units(chunk)]
    assert wrong == []


@given(st.one_of(st.text(alphabet=ascii_solid, min_size=1, max_size=16),
                 st.text(alphabet="aAbBzZ09.-:/_", min_size=1, max_size=16)))
@settings(max_examples=500, deadline=None)
def test_chunk_units_match_reference_on_ascii_text(chunk):
    assert tk._chunk_units(chunk) == _reference_chunk_units(chunk)


def _reference_train_merges(unit_freqs, merge_count):
    """Merge learning that rebuilds each touched word as a tuple with
    `_merge_word`, then subtracts all of its old pairs and adds all of its
    new ones; heap, index and tie rule as in `_train_merges`."""
    words = [tuple(w) for w in unit_freqs]
    freqs = [unit_freqs[w] for w in unit_freqs]
    alphabet = {c for w in words for c in w}
    pair_counts = Counter()
    pair_where = defaultdict(set)
    for wi, word in enumerate(words):
        for pair in zip(word, word[1:]):
            pair_counts[pair] += freqs[wi]
            pair_where[pair].add(wi)
    heap = [(-count, pair) for pair, count in pair_counts.items() if count >= 2]
    heapq.heapify(heap)
    merges = []
    while heap and len(merges) < merge_count:
        neg_count, best = heapq.heappop(heap)
        count = pair_counts.get(best, 0)
        if count != -neg_count:
            if count >= 2:
                heapq.heappush(heap, (-count, best))
            continue
        merges.append(best)
        left, right = best
        merged = left + right
        grown = set()
        for wi in pair_where.pop(best):
            old = words[wi]
            new = _merge_word(old, left, right, merged)
            if len(new) == len(old):
                continue
            words[wi] = new
            freq = freqs[wi]
            for pair in zip(old, old[1:]):
                pair_counts[pair] -= freq
            for pair in zip(new, new[1:]):
                pair_counts[pair] += freq
                if merged in pair:
                    pair_where[pair].add(wi)
                    grown.add(pair)
        for pair in grown:
            if pair_counts[pair] >= 2:
                heapq.heappush(heap, (-pair_counts[pair], pair))
    return merges, alphabet


# unit-frequency tables over two and three letters, with overlapping repeats
# (aaaa, abab) whose merge sites touch each other
repeats = st.sampled_from(["aaaa", "aaaaaaa", "abab", "ababab", "abba", "abcabc", "cccc", "aabbaabb"])
unit_tables = st.one_of(
    *(st.dictionaries(st.one_of(st.text(alphabet=letters, min_size=1, max_size=9), repeats)
                      .filter(lambda w, letters=letters: set(w) <= set(letters)),
                      st.integers(min_value=1, max_value=30), max_size=14)
      for letters in ("ab", "abc")))


@given(unit_tables, st.integers(min_value=0, max_value=60))
@settings(max_examples=400, deadline=None)
def test_train_merges_matches_tuple_rebuild_reference(table, merge_count):
    freqs = Counter(table)
    assert tk._train_merges(freqs, merge_count) == _reference_train_merges(freqs, merge_count)


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
        assert tk._encode_unit(text, model) == _reference_encode_unit(model, text)


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
    assert tk._encode_unit(text, model) == pieces
    assert [t.piece for t in tk.tokenize(model, text)] == list(pieces)
    assert model._cache == {text: pieces}


def _reference_render(ts):
    """`render_tokens` before the one-pass rewrite: index look-ups around every token."""
    marker = tk.MARKER
    items = []
    for i, token in enumerate(ts):
        lead = i > 0 and ts[i - 1].joined_right and token.case == tk.CASE_N
        trail = (token.joined_right and i + 1 < len(ts)
                 and ts[i + 1].case != tk.CASE_N)
        body = tk._escape(token.piece)
        items.append((marker if lead else "") + body + (marker if trail else "") + "|" + token.case)
    return " ".join(items)


def _reference_parse(text):
    """`parse_tokens` before the one-pass rewrite (it let empty pieces and raw
    bars through)."""
    marker = tk.MARKER
    if not text:
        return ()
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
        parsed.append([tk._unescape(body), case, trail])
    return tuple([tk.AnnotatedToken(*p) for p in parsed])


odd_piece = st.text(alphabet="ab\\| \t\n\rx@Ω■ezL", min_size=1, max_size=5)
odd_tokens = st.lists(st.builds(tk.AnnotatedToken, st.one_of(odd_piece, words),
                                st.sampled_from(sorted(tk._CASES)), st.booleans()), max_size=10)


def _parse_cold_then_warm(text):
    """parse_tokens on an empty item memo, then again once each item of the
    line is memoized from a later place in a line; both calls must raise the
    same error or return the same tokens."""
    def outcome(line):
        try:
            return tk.parse_tokens(line)
        except tk.TokenizerError as exc:
            return str(exc)

    with mock.patch.object(tk, "_parsed", Memo(tk.MEMO_LIMIT)):
        cold = outcome(text)
        for item in text.split(" "):
            outcome("a|L " + item)
        warm = outcome(text)
    assert cold == warm
    if isinstance(cold, str):
        raise tk.TokenizerError(cold)
    return cold


@given(odd_tokens)
@settings(max_examples=500, deadline=None)
def test_render_and_parse_match_reference(tokens):
    if tokens:
        tokens[-1] = tokens[-1]._replace(joined_right=False)
    ts = tuple(tokens)
    rendered = tk.render_tokens(ts)
    assert rendered == _reference_render(ts)
    assert _parse_cold_then_warm(rendered) == _reference_parse(rendered) == ts


item_text = st.lists(st.tuples(st.text(alphabet="ab\\■@xΩms|", max_size=4),
                               st.sampled_from(["|L", "|N", "|C", "|X", ""])),
                     min_size=1, max_size=6).map(lambda items: " ".join(b + c for b, c in items))


@given(item_text)
@settings(max_examples=500, deadline=None)
def test_parse_matches_reference_on_arbitrary_items(text):
    # parse_tokens accepts a line exactly when the reference reads it into
    # non-empty pieces that render back to the same line
    try:
        expected = _reference_parse(text)
    except tk.TokenizerError:
        expected = None
    if expected is None or not all(pieces(expected)) or tk.render_tokens(expected) != text:
        with pytest.raises(tk.TokenizerError):
            _parse_cold_then_warm(text)
    else:
        assert _parse_cold_then_warm(text) == expected


@pytest.mark.parametrize("line", ["a|L b■|X", "■a|N", "a|L ■b|L", "a■|L b|N", "a■|L", "a|b|L",
                                  "a\\q|L", "\\e|N", "a■b|L", "a\tb|L"])
def test_rejected_line_raises_the_same_message_twice(line):
    with mock.patch.object(tk, "_parsed", Memo(tk.MEMO_LIMIT)):
        messages = []
        for _ in range(2):
            with pytest.raises(tk.TokenizerError) as exc:
                tk.parse_tokens(line)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        # an item that is faulty alone is never stored
        for item in tk._parsed:
            tk._parse_item(item, False)


def test_full_item_memo_starts_over():
    with mock.patch.object(tk, "_parsed", Memo(2)):
        for line in ["a|L", "a|L b|L", "wi■|L fi|L ■,|N", "c|C d|U", "e|L"]:
            assert tk.render_tokens(tk.parse_tokens(line)) == line
            assert len(tk._parsed) <= 2 and len(tk._parsed.previous) <= 2
        assert "e|L" in tk._parsed


@st.composite
def near_rendered_lines(draw):
    """A rendered line with one character deleted, inserted or replaced."""
    tokens = draw(odd_tokens.filter(bool))
    line = tk.render_tokens(tuple(tokens))
    at = draw(st.integers(min_value=0, max_value=len(line)))
    char = draw(st.sampled_from("ab\\|■@xΩemsLN \t"))
    edit = draw(st.sampled_from(["delete", "insert", "replace"]))
    if edit == "insert":
        line = line[:at] + char + line[at:]
    elif at < len(line):
        line = line[:at] + (char if edit == "replace" else "") + line[at + 1:]
    return line


@given(st.one_of(near_rendered_lines(), item_text))
@settings(max_examples=1000, deadline=None)
def test_every_accepted_line_renders_back_unchanged(line):
    try:
        ts = _parse_cold_then_warm(line)
    except tk.TokenizerError:
        return
    assert tk.render_tokens(ts) == line
