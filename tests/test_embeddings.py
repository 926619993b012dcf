import warnings
from collections import Counter

import numpy as np
import pytest

from mtlab.bsf import (
    EmbeddingError,
    expand_seeds,
    load_embeddings,
    save_embeddings,
    train_embeddings,
)
from mtlab.bsf.embeddings import INITIAL_LR, SUBSAMPLE_THRESHOLD, Embeddings
from mtlab.rng import stream
from mtlab.synth import embedding_corpus


@pytest.fixture(scope="module")
def trained():
    return train_embeddings(embedding_corpus(seed=1), dim=16, window=2, epochs=5, seed=4)


def test_shared_context_words_are_neighbors(trained):
    neighbors = [w for w, _ in trained.neighbors("dog", 3)]
    assert set(neighbors) & {"pet", "cat", "puppy"}


def test_determinism():
    corpus = embedding_corpus(seed=1, n_sentences=120)
    with pytest.warns(UserWarning, match="only 508 tokens"):
        a = train_embeddings(corpus, dim=8, epochs=2, seed=9)
        b = train_embeddings(corpus, dim=8, epochs=2, seed=9)
    for word in a.vectors:
        assert np.array_equal(a.vectors[word], b.vectors[word])


def test_one_sentence_corpus_warns_but_runs():
    with pytest.warns(UserWarning, match="tokens"):
        emb = train_embeddings([["tiny", "corpus", "here"]], dim=4, epochs=1, seed=0)
    assert len(emb.vectors) == 3


def reference_train(sentences, dim, window, negatives, epochs, seed):
    """The per-context loop `train_embeddings` replaced: one draw per keep
    test and per context, a `labels` array, and a gather and a scatter of the
    output rows through `-=`."""
    counts = Counter(tok for sent in sentences for tok in sent)
    total_tokens = sum(counts.values())
    vocab = sorted(counts)
    index = {w: i for i, w in enumerate(vocab)}
    rng = stream(seed, "word2vec")
    vec_in = (rng.random((len(vocab), dim)) - 0.5) / dim
    vec_out = np.zeros((len(vocab), dim))
    freq = np.array([counts[w] for w in vocab], dtype=np.float64)
    noise = freq ** 0.75
    noise /= noise.sum()
    noise_cdf = np.cumsum(noise)
    keep = np.minimum(1.0, np.sqrt(SUBSAMPLE_THRESHOLD / (freq / total_tokens))
                      + SUBSAMPLE_THRESHOLD / (freq / total_tokens))
    total_centers = max(1, total_tokens * epochs)
    processed = 0
    for epoch in range(epochs):
        for sent in sentences:
            ids = [index[t] for t in sent]
            kept = [i for i in ids if rng.random() < keep[i]]
            for pos, center in enumerate(kept):
                processed += 1
                lr = max(INITIAL_LR * (1.0 - processed / total_centers), INITIAL_LR * 1e-4)
                span = 1 + int(rng.integers(window))
                lo = max(0, pos - span)
                hi = min(len(kept), pos + span + 1)
                for ctx_pos in range(lo, hi):
                    if ctx_pos == pos:
                        continue
                    context = kept[ctx_pos]
                    negs = np.searchsorted(noise_cdf, rng.random(negatives))
                    negs = negs[negs != center]
                    targets = np.concatenate(([center], negs))
                    labels = np.zeros(len(targets))
                    labels[0] = 1.0
                    vin = vec_in[context]
                    vouts = vec_out[targets]
                    scores = 1.0 / (1.0 + np.exp(-vouts @ vin))
                    gradient = (scores - labels) * lr
                    vec_in[context] -= gradient @ vouts
                    vec_out[targets] -= np.outer(gradient, vin)
    return {w: vec_in[index[w]] for w in vocab}


@pytest.mark.parametrize("sentences, dim, window, negatives, epochs", [
    (embedding_corpus(seed=1, n_sentences=80), 8, 2, 5, 2),
    # 2-3 word vocabularies: negatives repeat within a row and hit the center
    ([["a", "b", "a", "b", "b"], ["b", "a"]] * 40, 4, 2, 6, 2),
    ([["x", "y", "z", "x"], ["z", "z", "y"]] * 30, 3, 3, 8, 2),
    # a window wider than every sentence
    (embedding_corpus(seed=2, n_sentences=40), 6, 40, 3, 1),
    # one-word sentences have no context and draw no negatives
    ([["solo"], ["pair", "words"], ["solo"], ["three", "word", "line"]] * 20, 5, 2, 4, 3),
])
def test_training_is_bit_identical_to_the_reference_loop(sentences, dim, window, negatives,
                                                         epochs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the low-data warning
        emb = train_embeddings(sentences, dim=dim, window=window, negatives=negatives,
                               epochs=epochs, seed=11)
    want = reference_train(sentences, dim, window, negatives, epochs, seed=11)
    assert list(emb.vectors) == list(want)
    for word, vec in want.items():
        assert emb.vectors[word].tobytes() == vec.tobytes(), word


@pytest.mark.parametrize("setting", [{"dim": 0}, {"window": 0}, {"negatives": 0},
                                     {"negatives": -1}, {"epochs": 0}])
def test_non_positive_settings_rejected(setting):
    with pytest.raises(EmbeddingError, match="must all be positive"):
        train_embeddings([["a", "b"]], **setting)


def test_empty_corpus_rejected():
    with pytest.raises(EmbeddingError):
        train_embeddings([], dim=4)


def test_cosine_self_is_one(trained):
    for word in list(trained.vectors)[:5]:
        assert trained.cosine(word, word) == pytest.approx(1.0)


def test_cosine_with_a_zero_vector_is_zero():
    emb = Embeddings({"zero": np.zeros(2), "x": np.array([1.0, 0.0])}, 2)
    assert emb.cosine("zero", "x") == emb.cosine("x", "zero") == 0.0


class TestVectorFile:
    def test_small_file_parses(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\nfoo 1.0 2.0 3.0\n\nbar 0.5 -1.5 0.25\n", encoding="utf-8")
        emb = load_embeddings(path)
        assert list(emb.vectors["foo"]) == [1.0, 2.0, 3.0]
        assert list(emb.vectors["bar"]) == [0.5, -1.5, 0.25]

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\nfoo 1.0 2.0 3.0\nbar 0.5 -1.5 0.25 9.0\n", encoding="utf-8")
        with pytest.raises(EmbeddingError, match="line 3"):
            load_embeddings(path)

    def test_duplicate_word_last_wins(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\nfoo 1.0 2.0\nfoo 3.0 4.0\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="duplicate"):
            emb = load_embeddings(path)
        assert list(emb.vectors["foo"]) == [3.0, 4.0]

    def test_save_load_bit_exact(self, trained, tmp_path):
        path = tmp_path / "vec.txt"
        save_embeddings(trained, path)
        again = load_embeddings(path)
        for word in trained.vectors:
            assert np.array_equal(trained.vectors[word], again.vectors[word])


class TestExpandSeeds:
    def hand_built(self):
        vectors = {
            "pet": np.array([1.0, 0.0]),
            "dog": np.array([0.9, 0.44]),
            "car": np.array([0.1, 0.99]),
            "cat": np.array([0.95, 0.3]),
        }
        return Embeddings(vectors, 2)

    @pytest.mark.parametrize("k, min_sim", [(0, 0.0), (-3, 0.0), (1, float("nan"))],
                             ids=["k-zero", "k-negative", "min-sim-nan"])
    def test_k_below_one_or_nan_min_sim_rejected(self, k, min_sim):
        with pytest.raises(ValueError, match="k must be at least 1|min_sim"):
            expand_seeds(self.hand_built(), ["pet"], k=k, min_sim=min_sim)

    def test_top_neighbor_by_cosine(self):
        emb = self.hand_built()
        (top, sim) = expand_seeds(emb, ["pet"], k=1)[0]
        assert top == "cat"  # cosine(pet,cat) > cosine(pet,dog) > cosine(pet,car)
        assert sim == pytest.approx(0.95 / np.hypot(0.95, 0.3))

    def test_never_returns_seed(self):
        emb = self.hand_built()
        out = expand_seeds(emb, ["pet", "dog"], k=3)
        assert "pet" not in [w for w, _ in out]
        assert "dog" not in [w for w, _ in out]

    def test_duplicate_neighbor_keeps_best_similarity(self):
        emb = self.hand_built()
        out = dict(expand_seeds(emb, ["pet", "dog"], k=3))
        assert out["cat"] == pytest.approx(max(emb.cosine("pet", "cat"), emb.cosine("dog", "cat")))

    def test_min_sim_filters(self):
        emb = self.hand_built()
        out = expand_seeds(emb, ["pet"], k=5, min_sim=0.9)
        assert all(sim >= 0.9 for _, sim in out)

    def test_all_oov_warns_empty(self):
        with pytest.warns(UserWarning) as caught:
            assert expand_seeds(self.hand_built(), ["zebra"], k=3) == []
        assert [str(w.message) for w in caught] == [
            "seeds missing from embedding vocabulary: ['zebra']",
            "all seeds are out of vocabulary; no candidates"]

    def test_missing_seed_reported_not_fatal(self):
        with pytest.warns(UserWarning, match="missing"):
            out = expand_seeds(self.hand_built(), ["pet", "zebra"], k=1)
        assert out
