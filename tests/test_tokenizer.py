from collections import Counter

import pytest

from mtlab import tokenizer as tk
from mtlab.corpus import ParallelCorpus, SentencePair


def oracle_bpe(texts, merge_count):
    """Brute-force trainer: recounts every adjacent pair after each merge."""
    units = Counter()
    for text in texts:
        for unit in tk._presplit(text):
            if not unit.atomic:
                units[unit.text] += 1
    words = {tuple(w): f for w, f in units.items()}
    merges = []
    for _ in range(merge_count):
        counts = Counter()
        for word, freq in words.items():
            for i in range(len(word) - 1):
                counts[(word[i], word[i + 1])] += freq
        eligible = [(pair, c) for pair, c in counts.items() if c >= 2]
        if not eligible:
            break
        best_count = max(c for _, c in eligible)
        best = min(pair for pair, c in eligible if c == best_count)
        merges.append(best)
        merged = best[0] + best[1]
        new_words = {}
        for word, freq in words.items():
            out = []
            i = 0
            while i < len(word):
                if i + 1 < len(word) and (word[i], word[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(word[i])
                    i += 1
            new_words[tuple(out)] = new_words.get(tuple(out), 0) + freq
        words = new_words
    return merges


FIXTURE_CORPORA = [
    ["low low low lower lower newest newest newest newest widest"],
    ["the cat sat on the mat", "the cats eat the fish", "a cat and a mat"],
    ["aaa aaa aaab bbba bbb", "abab abab baba"],  # tie-heavy
    ["ein haus am see", "das haus ist neu", "am see ist es schoen"],
    ["xy xy yx yx xx yy", "xyx yxy xyy yxx"],  # symmetric ties
    # runs of one letter and of alternating letters: merge sites overlap, and
    # a merge takes a pair from a word still listed under it ((a, a) takes
    # (a, b) from aab)
    ["a aa aaa aaaa aaaaa aaaaaaa aaaaaaaaaaa", "ab abab ababab abababab aba baba bab",
     "aab aab abb abb aaab abbb aabb abab", "aaaaaaaa bbbbbb abababab aabbaabb"],
]


@pytest.mark.parametrize("texts", FIXTURE_CORPORA)
def test_merge_list_matches_brute_force_oracle(texts):
    expected = oracle_bpe(texts, 50)
    model = tk.train_bpe_texts(texts, 50)
    assert list(model.merges) == expected


def test_first_merge_of_low_corpus():
    model = tk.train_bpe_texts(["low low lower"], 1)
    assert model.merges[0] == ("l", "o")


def test_zero_merges_gives_characters():
    model = tk.train_bpe_texts(["abc de"], 0)
    ts = tk.tokenize(model, "abc de")
    assert ts.pieces() == ["a", "b", "c", "d", "e"]
    assert [t.joined_right for t in ts.tokens] == [True, True, False, True, False]


def test_joint_alphabet_is_union(small_corpus):
    model = tk.train_bpe(small_corpus, 10, "joint")
    src_model, tgt_model = tk.train_bpe(small_corpus, 10, "separate")
    assert model.alphabet == src_model.alphabet | tgt_model.alphabet
    assert model.mode == "joint"
    assert src_model.mode == "separate-source"
    assert tgt_model.mode == "separate-target"


def test_empty_corpus_rejected():
    with pytest.raises(tk.TokenizerError):
        tk.train_bpe_texts([], 5)
    with pytest.raises(tk.TokenizerError):
        tk.train_bpe(ParallelCorpus(()), 5)


def test_early_stop_when_no_repeated_pairs():
    model = tk.train_bpe_texts(["ab cd ef"], 50)
    assert model.merge_count == 0


class TestVocabulary:
    def test_zero_merges(self):
        model = tk.train_bpe_texts(["abc"], 0)
        assert tk.vocabulary(model) == set("abc")

    def test_three_merges_add_three_symbols(self):
        texts = ["lo lo lo lov lov lovi lovi"]
        model = tk.train_bpe_texts(texts, 3)
        vocab = tk.vocabulary(model)
        assert len(vocab) == len(model.alphabet) + 3

    def test_early_stop_vocabulary_smaller_than_requested(self):
        requested = 50
        model = tk.train_bpe_texts(["ab ab cd"], requested)
        assert len(tk.vocabulary(model)) < len(model.alphabet) + requested


TRAIN_TEXTS = [
    "offering a restaurant with wifi and a garden",
    "the winter is cold and the summer fell fast",
    "winter winter winter fell fell fell",
    "ho ho ho dor dor dor eco lodge eco lodge",
    "located in a quiet street with wifi",
    "a restaurant offering dinner is located here",
] * 3


@pytest.fixture(scope="module")
def trained():
    return tk.train_bpe_texts(TRAIN_TEXTS, 300)


class TestTokenize:
    def test_paper_sentence_pattern(self, trained):
        ts = tk.tokenize(trained, "Offering a restaurant with WiFi, Hodor Ecolodge is located in Winterfell.")
        piece_case = [(t.piece, t.case) for t in ts.tokens]
        # case-split of WiFi and the BPE split of the unseen Winterfell
        wi = piece_case.index(("wi", "C"))
        assert piece_case[wi + 1] == ("fi", "C")
        assert ts.tokens[wi].joined_right
        winter = piece_case.index(("winter", "C"))
        assert piece_case[winter + 1] == ("fell", "L")
        assert ts.tokens[winter].joined_right
        comma = next(t for t in ts.tokens if t.piece == ",")
        assert comma.case == "N"
        assert tk.detokenize(ts) == "Offering a restaurant with WiFi, Hodor Ecolodge is located in Winterfell."

    def test_empty_sentence(self, trained):
        assert tk.tokenize(trained, "") == tk.TokenizedSentence()

    def test_case_variants_share_pieces(self, trained):
        variants = [tk.tokenize(trained, w) for w in ("book", "Book", "BOOK")]
        assert variants[0].pieces() == variants[1].pieces() == variants[2].pieces()
        assert {t.case for t in variants[2].tokens} <= {"U"}

    def test_all_upper_word_restores(self, trained):
        ts = tk.tokenize(trained, "BOOK")
        assert tk.detokenize(ts) == "BOOK"

    def test_oov_word_decomposes(self, trained):
        ts = tk.tokenize(trained, "zebra")  # never in training
        assert ts.pieces()
        assert tk.detokenize(ts) == "zebra"

    def test_placeholder_is_atomic(self, trained):
        ts = tk.tokenize(trained, "about ⟦DIST_0⟧ away")
        assert "⟦DIST_0⟧" in ts.pieces()
        token = next(t for t in ts.tokens if t.piece == "⟦DIST_0⟧")
        assert token.case == "N"


class TestDetokenize:
    def test_german_sentence_round_trip(self, trained):
        sentence = "Die Hodor Ecolodge in Winterfell bietet ein Restaurant mit WLAN."
        assert tk.detokenize(tk.tokenize(trained, sentence)) == sentence

    def test_empty_tokens(self):
        assert tk.detokenize(tk.TokenizedSentence()) == ""

    @pytest.mark.parametrize("sentence", [
        "plain words here",
        "Mixed CASE WiFi words",
        "punctuation, attached.",
        "55-minute ride at 2:30 pm",
        "  leading and trailing  ",
        "tab\tand  double space",
        "⟦TIME_0⟧ and ⟦DIST_1⟧!",
        "McDonald iPhone HTTPServer",
        "straße ẞ İstanbul ŉgoza",
    ])
    def test_round_trip_edge_cases(self, trained, sentence):
        assert tk.detokenize(tk.tokenize(trained, sentence)) == sentence


def test_monotone_compression(trained):
    sentence = "the winter restaurant is offering dinner with wifi"
    counts = []
    for k in (0, 5, 20, 80, trained.merge_count):
        counts.append(len(tk.tokenize(trained.prefix(k), sentence)))
    assert counts == sorted(counts, reverse=True)


def test_prefix_equals_retraining():
    model_full = tk.train_bpe_texts(TRAIN_TEXTS, 50)
    model_small = tk.train_bpe_texts(TRAIN_TEXTS, 20)
    assert model_full.merges[:20] == model_small.merges


class TestModelFile:
    def test_save_load_round_trip(self, trained, tmp_path):
        path = tmp_path / "bpe.model"
        tk.save_model(trained, path)
        loaded = tk.load_model(path)
        assert loaded.merges == trained.merges
        assert loaded.alphabet == trained.alphabet
        assert loaded.mode == trained.mode

    def test_header_format(self, trained, tmp_path):
        path = tmp_path / "bpe.model"
        tk.save_model(trained, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"bpe-v1 joint {trained.merge_count}"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("not a model\n", encoding="utf-8")
        with pytest.raises(tk.TokenizerError):
            tk.load_model(path)


class TestRenderedFormat:
    def test_render_parse_round_trip(self, trained):
        for sentence in ["Offering WiFi, here.", "a  b\tc", "⟦DUR_0⟧ x", "pipe | and ■ marker"]:
            ts = tk.tokenize(trained, sentence)
            rendered = tk.render_tokens(ts)
            parsed = tk.parse_tokens(rendered)
            assert parsed == ts
            assert tk.detokenize(parsed) == sentence

    def test_rendered_marker_placement(self, trained):
        ts = tk.tokenize(trained, "WiFi, great")
        rendered = tk.render_tokens(ts)
        assert "wi■|C fi|C ■,|N" in rendered

    def test_custom_marker(self, trained):
        ts = tk.tokenize(trained, "WiFi here")
        rendered = tk.render_tokens(ts, marker="@@")
        assert "wi@@|C" in rendered
        assert tk.parse_tokens(rendered, marker="@@") == ts
