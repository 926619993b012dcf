"""Golden outputs for BLEU, entity scanning and validation, skip-gram
embeddings, the surrogate model's perplexity and gradient check, BPE
merge lists, rendered tokenizations, the BSF classifier's trained weights, and
digests of the parameters that two epochs of each optimizer and cluster schedule
leave on the convergence preset.

Each value is pinned from seeded `synth.py` inputs, so turning a setting
into a constant or merging two code paths cannot change what the toolkit
computes.  Strings compare exactly, floats at a relative tolerance of
1e-9.  Regenerate only from a commit whose outputs are known good:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import json
import math
import os
import random

import numpy as np
import pytest

from mtlab import entities, presets
from mtlab.bleu import ScoringConfig, corpus_bleu, sentence_bleu
from mtlab.bsf import train_classifier, train_embeddings
from mtlab.optlab import (OptimizerConfig, SurrogateConfig, SurrogateModel,
                          calibrated_cluster_config, check_gradients, simulate_cluster, train)
from mtlab.synth import (embedding_corpus, entity_sentences, parking_sentences, toy_lm_stream,
                         toy_parallel_corpus)
from mtlab.tokenizer import format_placeholder, render_tokens, tokenize, train_bpe_texts

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_outputs.json")
REL_TOL = 1e-9
EN = entities.starter_templates("en")
DE = entities.starter_templates("de")


def _bleu(case_sensitive):
    refs = [pair.source for pair in toy_parallel_corpus(60, seed=2)]
    cands = []
    for i, ref in enumerate(refs):
        words = ref.split()
        if i % 3 == 0:
            words = [w.upper() if j % 2 else w for j, w in enumerate(words)]
        if i % 4 == 0:
            words = words[: len(words) // 2 + 1]
        cands.append(" ".join(words))
    return corpus_bleu(cands, refs, ScoringConfig(case_sensitive=case_sensitive)).to_json()


def _sentence_bleu_add_one():
    # mismatched pairs: dropped, repeated, swapped and foreign words, and
    # candidates shorter than 4 tokens, so every n-gram order clips or misses
    refs = toy_parallel_corpus(60, seed=10).sources()
    rng = random.Random(11)
    config = ScoringConfig(smoothing="add_one")
    reports = []
    for i, ref in enumerate(refs):
        words = ref.split()
        if i % 5 == 0:
            words = words[: rng.randint(1, 3)]
        elif i % 5 == 1:
            words = [w for w in words if rng.random() < 0.7] or words[:1]
        elif i % 5 == 2:
            words = words + words[-2:] * 2
        elif i % 5 == 3:
            j = rng.randrange(len(words) - 1)
            words[j], words[j + 1] = words[j + 1], words[j]
        else:
            words = refs[(i + 7) % len(refs)].split()
        reports.append(sentence_bleu(" ".join(words), ref, config).to_json())
    return reports


def _tokenize_texts():
    """Seeded sentences plus lines with odd whitespace, case and placeholders."""
    corpus = toy_parallel_corpus(200, seed=8)
    rng = random.Random(9)
    words = [w for s in corpus.sources() for w in s.split()] + ["WiFi", "HTTPServer", "Straße"]
    cases = [str, str.lower, str.upper, str.title,
             lambda w: "".join(c.upper() if k % 2 else c.lower() for k, c in enumerate(w))]
    seps = [" ", " ", " ", "  ", "\t", "\u3000", "\x85", "\x1c", "\n", " \t "]
    odd = []
    for _ in range(200):
        parts = [rng.choice(cases)(rng.choice(words)) if rng.random() < 0.85
                 else format_placeholder(rng.choice(["DIST", "TIME"]), rng.randint(0, 3))
                 for _ in range(rng.randint(1, 10))]
        line = "".join(rng.choice(seps) + part for part in parts)
        odd.append(line if rng.random() < 0.4 else line[1:] + rng.choice(["", "", " ", "\t"]))
    return corpus.sources() + entity_sentences(100, seed=3) + odd


def _tokenize_digest():
    corpus = toy_parallel_corpus(300, seed=7)
    model = train_bpe_texts(corpus.sources() + corpus.targets(), 300)
    texts = _tokenize_texts()
    rendered = "\n".join(render_tokens(tokenize(model, text)) for text in texts)
    return {"sentences": len(texts), "sha256": hashlib.sha256(rendered.encode("utf-8")).hexdigest()}


def _scan():
    # German templates without durations: every pair with a duration is a
    # mismatch, far more than the 50 sample ids the report keeps
    gappy = [t for t in DE if t.entity_type != "duration"]
    return entities.scan_mismatches(toy_parallel_corpus(400, seed=5), EN, gappy).to_json()


def _validation_scores():
    pairs = []
    for pair in toy_parallel_corpus(120, seed=6):
        if not entities.find_entities(pair.source, EN):
            continue
        output = pair.target
        if pair.id % 3 == 0:
            output = output.replace("1", "7", 1)
        elif pair.id % 5 == 0:
            output = output + " 3 km"
        pairs.append((pair.source, output))
    return list(entities.validate_entity_translation(pairs, EN, DE).scores)


def _embedding_vectors():
    emb = train_embeddings(embedding_corpus(seed=1), dim=8, window=2, epochs=2, seed=4)
    return {word: [float(x) for x in emb[word]] for word in emb.vectors}


def _classifier_digest():
    clf = train_classifier(parking_sentences("en", 240, seed=3))
    dense = np.zeros((len(clf.labels), 1 << clf.spec.bits))   # the full table the digest was pinned on
    dense[:, clf.slots] = clf.weights[:, :-1]
    digest = hashlib.sha256(dense.tobytes() + clf.bias.tobytes()).hexdigest()
    return {"labels": list(clf.labels), "sha256": digest}


def _perplexity():
    ids = toy_lm_stream(20000, 40, seed=6)
    assert len(ids) > 2 * 8192
    return SurrogateModel(SurrogateConfig(40, 6, 10), seed=1).perplexity(ids)


def _gradient_error():
    ids = toy_lm_stream(65, 40, seed=7)
    model = SurrogateModel(SurrogateConfig(40, 6, 10), seed=3)
    return check_gradients(model, ids[:64], ids[1:65], n_samples=300, seed=5)


def _merges(texts, merge_count):
    merges = train_bpe_texts(texts, merge_count).merges
    text = "\n".join(f"{left} {right}" for left, right in merges)
    return {"merges": len(merges), "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _toy_merges():
    corpus = toy_parallel_corpus(1500, seed=0)
    return _merges(corpus.sources() + corpus.targets(), 600)


def _random_word_merges():
    # thousands of distinct words over a small alphabet: the merge loop,
    # not pre-splitting, does the work, and it runs all 1500 merges
    rng = random.Random(5)
    texts = [" ".join("".join(rng.choice("abcdefghijkl") for _ in range(rng.randint(3, 9)))
                      for _ in range(12))
             for _ in range(400)]
    return _merges(texts, 1500)


THETA_EPOCHS = 2
THETA_WORKERS = 4
THETA_JOBS = ("train.sgd_decay", "train.adam", "train.adagrad", "train.adadelta",
              "train.sgd_decay_accum4", "simulate.sync", "simulate.async")


def _theta_digest(job):
    """SHA-256 of the parameters two epochs of `job` leave on the convergence preset."""
    cfg = presets.CONVERGENCE
    train_ids, val_ids = presets.convergence_data()
    model = presets.convergence_model()
    common = dict(epochs=THETA_EPOCHS, batch_size=cfg["batch_size"], seed=cfg["seed"])
    if job.startswith("train."):
        kind, _, accum = job[len("train."):].partition("_accum")
        train(model, train_ids, val_ids, OptimizerConfig(kind), accum_steps=int(accum or 1),
              **common)
    else:
        iterations = -(-(len(train_ids) - 1) // cfg["batch_size"])
        cluster = calibrated_cluster_config(job[len("simulate."):], THETA_WORKERS,
                                            iterations_per_epoch=iterations)
        simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"), cluster,
                         **common)
    return hashlib.sha256(model.theta.tobytes()).hexdigest()


THETA_OUTPUTS = {f"optlab.theta.{job}": (lambda job=job: _theta_digest(job)) for job in THETA_JOBS}

OUTPUTS = {
    "bleu.cased": lambda: _bleu(True),
    "bleu.lowercased": lambda: _bleu(False),
    "bleu.sentence_add_one": _sentence_bleu_add_one,
    "bsf.classifier": _classifier_digest,
    "entities.scan": _scan,
    "entities.validation_scores": _validation_scores,
    "embeddings.vectors": _embedding_vectors,
    "optlab.perplexity": _perplexity,
    "optlab.gradient_error": _gradient_error,
    "tokenizer.merges.toy_parallel": _toy_merges,
    "tokenizer.merges.random_words": _random_word_merges,
    "tokenizer.tokenize": _tokenize_digest,
    **THETA_OUTPUTS,
}


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_output(golden):
    assert sorted(golden) == sorted(OUTPUTS)


def test_sample_cap_is_exercised(golden):
    report = json.loads(golden["entities.scan"])
    assert report["mismatch_counts"]["duration"] > 50
    assert len(report["sample_ids"]["duration"]) == 50


def test_validation_scores_are_mixed(golden):
    assert set(golden["entities.validation_scores"]) == {0, 1}


def test_sync_theta_equals_accumulated_theta(golden):
    assert golden["optlab.theta.simulate.sync"] == golden["optlab.theta.train.sgd_decay_accum4"]


@pytest.mark.parametrize("name", ["bleu.cased", "bleu.lowercased", "bleu.sentence_add_one",
                                  "bsf.classifier", "entities.scan", "entities.validation_scores",
                                  "tokenizer.merges.toy_parallel", "tokenizer.merges.random_words",
                                  "tokenizer.tokenize", *THETA_OUTPUTS])
def test_exact_output_matches_golden(golden, name):
    assert OUTPUTS[name]() == golden[name]


@pytest.mark.parametrize("name", ["optlab.perplexity", "optlab.gradient_error"])
def test_float_matches_golden(golden, name):
    got = OUTPUTS[name]()
    assert _close(got, golden[name]), (got, golden[name])


def test_embedding_vectors_match_golden(golden):
    got, want = _embedding_vectors(), golden["embeddings.vectors"]
    assert list(got) == list(want)
    for word in want:
        assert all(map(_close, got[word], want[word])), word


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: fn() for name, fn in sorted(OUTPUTS.items())}, fh, indent=1,
                  ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
