import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlab.bsf import (
    AspectLexicon,
    ClassifierError,
    ClassifierSpec,
    cross_language_report,
    evaluate_classifier,
    load_classifier,
    match_sentences,
    save_classifier,
    train_classifier,
)
from mtlab.bsf import classifier
from mtlab.bsf.classifier import _feature_arrays, fnv1a64, hashed_features
from mtlab.bsf.lexicon import _tokens
from mtlab.memo import Memo
from mtlab.rng import stream
from mtlab.synth import parking_parallel, parking_sentences


def test_fnv1a64_fixed_values():
    # reference values of the 64-bit FNV-1a function
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_hashing_deterministic_across_calls():
    a = hashed_features("Free parking on site", 18)
    b = hashed_features("Free parking on site", 18)
    assert a == b


def test_hashed_features_memo_matches_direct_hashing(monkeypatch):
    monkeypatch.setattr(classifier, "_hashes", Memo(3))
    texts = ["Free parking on site", "free parking nearby", "Kostenlose Parkplätze vor Ort"]
    for text in texts * 2:
        toks = _tokens(text)
        expected: dict = {}
        for key in [f"u:{t}" for t in toks] + [f"b:{a} {b}" for a, b in zip(toks, toks[1:])]:
            slot = fnv1a64(key) % (1 << 18)
            expected[slot] = expected.get(slot, 0.0) + 1.0
        # same slots, counts and order, so weight updates sum in the same order
        assert list(hashed_features(text, 18).items()) == list(expected.items())
        assert len(classifier._hashes) <= 3 and len(classifier._hashes.previous) <= 3


def test_hashed_features_hashes_each_feature_string_once(monkeypatch):
    hashed = []
    monkeypatch.setattr(classifier, "fnv1a64", lambda key: hashed.append(key) or fnv1a64(key))
    first = hashed_features("free parking free parking", 18)
    assert hashed == ["u:free", "u:parking", "b:free parking", "b:parking free"]
    assert hashed_features("free parking free parking", 18) == first
    assert len(hashed) == 4


def test_bigrams_contribute_features():
    unigram_only = hashed_features("free parking", 18, use_bigrams=False)
    with_bigrams = hashed_features("free parking", 18, use_bigrams=True)
    assert sum(with_bigrams.values()) == sum(unigram_only.values()) + 1


class TestTraining:
    def separable(self):
        data = [(f"alpha beta gamma {i}", "one") for i in range(10)]
        data += [(f"delta epsilon zeta {i}", "two") for i in range(10)]
        return data

    def test_separable_is_fit_perfectly(self):
        clf = train_classifier(self.separable(), ClassifierSpec(epochs=8), seed=1)
        metrics = evaluate_classifier(clf, self.separable())
        assert metrics.accuracy == 1.0

    def test_empty_text_predicts_bias_favored_label(self):
        data = [("alpha beta", "common")] * 9 + [("delta", "rare")]
        clf = train_classifier(data, seed=1)
        assert clf.predict("") == clf.labels[int(np.argmax(clf.bias))]

    def test_same_seed_identical_weights(self):
        runs = [train_classifier(self.separable(), seed=3) for _ in range(2)]
        assert np.array_equal(runs[0].weights, runs[1].weights)
        assert np.array_equal(runs[0].bias, runs[1].bias)

    def test_single_label_rejected(self):
        with pytest.raises(ClassifierError):
            train_classifier([("a", "x"), ("b", "x")])

    def test_argmax_invariant_under_positive_scaling(self):
        clf = train_classifier(self.separable(), seed=1)
        texts = ["alpha beta new", "zeta delta new", "unrelated words"]
        before = [clf.predict(t) for t in texts]
        clf.weights *= 3.5
        clf.bias *= 3.5
        assert [clf.predict(t) for t in texts] == before


def dense_weights(clf):
    """The full (n_labels, 2**bits) table that a compact classifier stands for."""
    dense = np.zeros((len(clf.labels), 1 << clf.bits))
    dense[:, clf.slots] = clf.weights[:, :-1]
    return dense


def reference_train(labeled, spec, seed):
    """The per-step loop `train_classifier` replaced: three gathers of the
    touched columns and an `np.outer` update per example."""
    labels = tuple(sorted({label for _, label in labeled}))
    label_index = {label: i for i, label in enumerate(labels)}
    weights = np.zeros((len(labels), 1 << spec.bits))
    bias = np.zeros(len(labels))
    features = [_feature_arrays(text, spec.bits, spec.use_bigrams) for text, _ in labeled]
    targets = [label_index[label] for _, label in labeled]
    for epoch in range(spec.epochs):
        order = stream(seed, f"clf-epoch-{epoch}").permutation(len(labeled))
        for i in order:
            idx, cnt = features[i]
            scores = weights[:, idx] @ cnt + bias
            scores -= scores.max()
            prob = np.exp(scores)
            prob /= prob.sum()
            prob[targets[i]] -= 1.0
            weights[:, idx] -= spec.lr * (np.outer(prob, cnt) + spec.l2 * weights[:, idx])
            bias -= spec.lr * prob
    return weights, bias


@pytest.mark.parametrize("labeled, spec", [
    (parking_sentences("en", 240, seed=3), ClassifierSpec()),
    (parking_sentences("de", 120, seed=4), ClassifierSpec(use_bigrams=False, epochs=3)),
    # 8 slots: unigrams and bigrams collide within one example and across labels
    (parking_sentences("en", 80, seed=5), ClassifierSpec(bits=3, epochs=4, lr=0.2, l2=0.01)),
    # featureless texts score as the bias alone and still move it
    ([("", "a"), ("!!", "b"), ("alpha beta", "a"), ("...", "c"), ("beta gamma", "b")] * 3,
     ClassifierSpec(bits=6, epochs=5)),
])
def test_training_is_bit_identical_to_the_reference_loop(labeled, spec):
    clf = train_classifier(labeled, spec, seed=7)
    weights, bias = reference_train(labeled, spec, seed=7)
    assert dense_weights(clf).tobytes() == weights.tobytes()
    assert not clf.weights[:, -1].any()
    assert clf.bias.tobytes() == bias.tobytes()


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("epochs", -2), ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
    ("lr", float("inf")), ("l2", -1e-6), ("l2", float("nan")), ("l2", float("inf")),
])
def test_bad_training_settings_rejected(field, value):
    spec = dataclasses.replace(ClassifierSpec(), **{field: value})
    with pytest.raises(ClassifierError, match=field):
        train_classifier([("a b", "x"), ("c d", "y")], spec)


class TestEvaluation:
    def test_perfect_predictions(self):
        data = [("alpha alpha", "a"), ("beta beta", "b")] * 5
        clf = train_classifier(data, seed=0)
        metrics = evaluate_classifier(clf, data)
        assert metrics.macro_f1 == 1.0
        for label_metrics in metrics.per_label.values():
            assert label_metrics["precision"] == 1.0
            assert label_metrics["recall"] == 1.0

    def test_known_confusion_matches_hand_arithmetic(self):
        clf = train_classifier([("aa", "x"), ("bb", "y")] * 3, ClassifierSpec(epochs=20), seed=0)
        # held-out fixture: 10 examples, 2 planted errors (true y shown as x text)
        heldout = [("aa", "x")] * 4 + [("bb", "y")] * 4 + [("aa", "y")] * 2
        metrics = evaluate_classifier(clf, heldout)
        x = metrics.per_label["x"]
        y = metrics.per_label["y"]
        # predictions: "aa" -> x (6 of them: 4 true x + 2 true y), "bb" -> y (4)
        assert x["precision"] == pytest.approx(4 / 6)
        assert x["recall"] == pytest.approx(1.0)
        assert y["precision"] == pytest.approx(1.0)
        assert y["recall"] == pytest.approx(4 / 6)
        assert metrics.accuracy == pytest.approx(8 / 10)

    def test_quality_gate_on_parking_corpus(self):
        for language in ("en", "de"):
            data = parking_sentences(language, 1100, seed=5)
            train_set, heldout = data[:600], data[600:]
            clf = train_classifier(train_set, seed=2)
            metrics = evaluate_classifier(clf, heldout)
            assert metrics.macro_f1 >= 0.95, (language, metrics.macro_f1)


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        data = [("free parking here", "free"), ("paid parking lot", "paid"),
                ("nice garden view", "other")] * 4
        clf = train_classifier(data, seed=1)
        path = tmp_path / "clf.txt"
        save_classifier(clf, path)
        again = load_classifier(path)
        assert again.labels == clf.labels
        assert np.array_equal(again.weights, clf.weights)
        assert np.array_equal(again.bias, clf.bias)
        for text, _ in data:
            assert again.predict(text) == clf.predict(text)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n", encoding="utf-8")
        with pytest.raises(ClassifierError):
            load_classifier(path)

    @pytest.mark.parametrize("spec", [ClassifierSpec(), ClassifierSpec(bits=3, epochs=4)])
    def test_save_load_save_is_byte_identical(self, tmp_path, spec):
        clf = train_classifier(parking_sentences("en", 120, seed=3), spec, seed=1)
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_classifier(clf, first)
        save_classifier(load_classifier(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_repeated_slot_line_loads_last_wins(self, tmp_path):
        path = tmp_path / "clf.txt"
        path.write_text("bsfclf-v1 4 2 1\na\tb\nbias 0.5 -0.5\n"
                        "7 1.0 2.0\n3 0.25 0.0\n\n7 -1.0 4.0\n", encoding="utf-8")
        clf = load_classifier(path)
        assert clf.slots.tolist() == [3, 7]
        assert clf.weights.tolist() == [[0.25, -1.0, 0.0], [0.0, 4.0, 0.0]]
        dense = np.zeros((2, 16))
        dense[:, [3, 7]] = [[0.25, -1.0], [0.0, 4.0]]
        for text in ["free parking", "alpha beta gamma delta", "x y z", ""]:
            idx, cnt = _feature_arrays(text, 4, True)
            assert clf.scores(text).tobytes() == (dense[:, idx] @ cnt + clf.bias).tobytes()


class TestCompactStorage:
    @pytest.mark.parametrize("spec", [ClassifierSpec(), ClassifierSpec(bits=3, epochs=4)])
    def test_scores_equal_a_dense_gather(self, spec):
        clf = train_classifier(parking_sentences("en", 120, seed=3), spec, seed=1)
        dense = dense_weights(clf)
        texts = [t for t, _ in parking_sentences("de", 30, seed=8)] + ["", "!!", "zebra quokka"]
        unseen = 0
        for text in texts:
            idx, cnt = _feature_arrays(text, spec.bits, spec.use_bigrams)
            unseen += int(np.isin(idx, clf.slots, invert=True).sum())
            assert clf.scores(text).tobytes() == (dense[:, idx] @ cnt + clf.bias).tobytes()
        assert unseen > 0 or spec.bits == 3   # at 3 bits training fills all 8 slots

    def test_bits_24_train_and_load_trace_under_4_mb(self, tmp_path):
        # the full table would be 2**24 float64 weights, 128 MiB, per label
        labeled = parking_sentences("en", 240, seed=3)
        path = tmp_path / "clf.txt"
        tracemalloc.start()
        try:
            clf = train_classifier(labeled, ClassifierSpec(bits=24, epochs=1), seed=0)
            train_peak = tracemalloc.get_traced_memory()[1]
            save_classifier(clf, path)
            tracemalloc.reset_peak()
            load_classifier(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train_peak < 4 << 20
        assert load_peak < 4 << 20


def reference_match(sentences, lexicon):
    """The per-position slice loop `match_sentences` replaced."""
    terms = [_tokens(term) for term in lexicon.approved_terms if term.strip()]
    matched = []
    for i, sentence in enumerate(sentences):
        toks = _tokens(sentence)
        for term in terms:
            width = len(term)
            if any(toks[j : j + width] == term for j in range(len(toks) - width + 1)):
                matched.append(i)
                break
    return matched


WORDS = ["park", "Parking", "free", "car", "garage", "car-park"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(WORDS + ["--", "!", ""]), max_size=10), max_size=6),
       st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3), min_size=1, max_size=4))
def test_match_sentences_equals_the_reference_loop(sentences, terms):
    sentences = [" ".join(words) for words in sentences]
    lexicon = AspectLexicon("parking", "en", approved_terms=[" ".join(t) for t in terms])
    assert match_sentences(sentences, lexicon) == reference_match(sentences, lexicon)


class TestMatchSentences:
    def lexicon(self, terms):
        return AspectLexicon("parking", "en", approved_terms=terms)

    def test_term_without_tokens_is_dropped(self):
        sentences = ["no parking here", "hello world", ""]
        assert match_sentences(sentences, self.lexicon(["--", "parking", "  "])) == [0]
        with pytest.raises(ValueError, match="no usable terms"):
            match_sentences(sentences, self.lexicon(["--"]))

    def test_single_word_match(self):
        matched = match_sentences(["Free parking is available.", "Nice view."],
                                  self.lexicon(["parking"]))
        assert matched == [0]

    def test_phrase_requires_contiguity(self):
        matched = match_sentences(["The car is parked.", "A car park nearby."],
                                  self.lexicon(["car park"]))
        assert matched == [1]

    def test_case_insensitive(self):
        matched = match_sentences(["PARKING available"], self.lexicon(["parking"]))
        assert matched == [0]

    def test_fixture_with_known_relevant_ids(self):
        sentences = [
            "Free parking on site.",
            "Breakfast is served daily.",
            "Paid parking garage nearby.",
            "The rooms have sea views.",
            "There is a parking lot.",
            "Towels are provided.",
        ]
        matched = match_sentences(sentences, self.lexicon(["parking"]))
        assert matched == [0, 2, 4]


class TestCrossLanguageReport:
    def classifiers(self):
        en_data, de_data, _ = parking_parallel(900, seed=3)
        clf_en = train_classifier(en_data, seed=1)
        clf_de = train_classifier(de_data, seed=1)
        return clf_en, clf_de

    def lexicons(self):
        return (AspectLexicon("parking", "en", approved_terms=["parking", "park"]),
                AspectLexicon("parking", "de", approved_terms=["parkplätze", "parken", "parkplatz", "garage"]))

    def test_identity_translation_is_diagonal(self):
        en_data, _, _ = parking_parallel(300, seed=9)
        pairs = [(text, text) for text, _ in en_data]
        clf_en, _ = self.classifiers()
        lex_en, _ = self.lexicons()
        report = cross_language_report(pairs, lex_en, lex_en, clf_en, clf_en)
        for label in report.labels:
            if report.volumes[label]:
                assert report.matrix[label][label] == pytest.approx(100.0)
        assert report.flagged_ids == ()

    def test_rows_sum_to_100(self):
        en_data, de_data, _ = parking_parallel(400, seed=5, flip_fraction=0.1)
        pairs = [(e[0], d[0]) for e, d in zip(en_data, de_data)]
        clf_en, clf_de = self.classifiers()
        lex_en, lex_de = self.lexicons()
        report = cross_language_report(pairs, lex_en, lex_de, clf_en, clf_de)
        for label in report.labels:
            if report.volumes[label]:
                assert sum(report.matrix[label].values()) == pytest.approx(100.0, abs=0.1)

    def test_label_set_mismatch_rejected(self):
        clf_en, _ = self.classifiers()
        other = train_classifier([("a b", "x"), ("c d", "y")], seed=0)
        lex_en, lex_de = self.lexicons()
        with pytest.raises(ClassifierError):
            cross_language_report([("a", "b")], lex_en, lex_de, clf_en, other)

    def test_planted_flip_is_flagged(self):
        en_data, de_data, flipped = parking_parallel(60, seed=12, flip_fraction=0.08)
        # keep only parking-labeled rows so the lexicon matches them
        pairs = [(e[0], d[0]) for e, d in zip(en_data, de_data)]
        clf_en, clf_de = self.classifiers()
        lex_en, lex_de = self.lexicons()
        report = cross_language_report(pairs, lex_en, lex_de, clf_en, clf_de)
        parking_flips = [i for i in flipped if en_data[i][1] != "other" or de_data[i][1] != "other"]
        matched = set(match_sentences([p[0] for p in pairs], lex_en))
        expected = [i for i in parking_flips if i in matched]
        assert set(expected) <= set(report.flagged_ids)
