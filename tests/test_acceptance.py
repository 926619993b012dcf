"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines
even when everything is green.
"""

import math
import random
import time

import numpy as np
import pytest

from mtlab import entities
from mtlab import tokenizer as tk
from mtlab.bleu import corpus_bleu
from mtlab.bsf import (
    AspectLexicon,
    cross_language_report,
    evaluate_classifier,
    match_sentences,
    train_classifier,
)
from mtlab.corpus import ParallelCorpus, SentencePair
from mtlab.humaneval import correlate
from mtlab.optlab import (
    ClusterConfig,
    Optimizer,
    OptimizerConfig,
    SurrogateConfig,
    SurrogateModel,
    check_gradients,
    simulate_cluster,
    train,
)
from mtlab.presets import CONVERGENCE, convergence_data, convergence_model, timing_table
from mtlab.synth import entity_sentences, parking_parallel, parking_sentences, toy_lm_stream

from test_bleu import oracle_bleu
from test_tokenizer import FIXTURE_CORPORA, oracle_bpe


def report(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:>2}] {status} - {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_timing_reproduction():
    started = time.monotonic()
    worst = max(abs(simulated - reported) / reported
                for _, _, simulated, reported in timing_table())
    elapsed = time.monotonic() - started
    report(1, "calibrated sync/async epoch times match the reported table within 15%",
           worst < 0.15 and elapsed < 10.0,
           f"worst error {worst * 100:.1f}%, runtime {elapsed:.1f}s")


def test_criterion_02_convergence_pattern():
    started = time.monotonic()
    cfg = CONVERGENCE
    train_ids, val_ids = convergence_data()
    traces = {}
    for kind in ("sgd_decay", "adam", "adagrad", "adadelta"):
        model = convergence_model()
        traces[kind] = train(model, train_ids, val_ids, OptimizerConfig(kind),
                             epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                             seed=cfg["seed"])
    quarter = cfg["epochs"] // 4
    adam_quarter = traces["adam"].ppl_at_epoch(quarter)
    sgd_quarter = traces["sgd_decay"].ppl_at_epoch(quarter)
    finals = {kind: trace.final_ppl() for kind, trace in traces.items()}
    cond_a = adam_quarter < sgd_quarter
    cond_b = finals["sgd_decay"] <= finals["adam"]
    cond_c = finals["adagrad"] > max(finals[k] for k in ("sgd_decay", "adam", "adadelta"))
    elapsed = time.monotonic() - started
    report(2, "Adam leads at 25% of budget, decayed SGD wins at the end, Adagrad worst",
           cond_a and cond_b and cond_c and elapsed < 300.0,
           f"quarter adam {adam_quarter:.2f} vs sgd {sgd_quarter:.2f}; finals "
           f"sgd {finals['sgd_decay']:.2f} adam {finals['adam']:.2f} "
           f"adagrad {finals['adagrad']:.2f} adadelta {finals['adadelta']:.2f}; "
           f"runtime {elapsed:.0f}s")


def test_criterion_03_decay_schedule():
    optimizer = Optimizer(OptimizerConfig("sgd_decay"))
    lrs = [optimizer.end_of_epoch(epoch, 1000.0 - epoch) for epoch in range(1, 21)]
    expected = [1.0] * 9 + [0.7 ** k for k in range(1, 12)]
    exact = all(abs(a - b) <= 1e-12 for a, b in zip(lrs, expected))
    final_ok = abs(lrs[-1] - 0.7 ** 11) <= 1e-12
    report(3, "improving run decays exactly after epochs 10..20; final LR = 0.7^11",
           exact and final_ok, f"final lr {lrs[-1]:.6g}")


def test_criterion_04_parallel_sgd_equivalences():
    started = time.monotonic()
    train_ids = toy_lm_stream(800, 24, seed=3)
    val_ids = toy_lm_stream(300, 24, seed=4)
    cfg = SurrogateConfig(24, 4, 8)

    def params_of(mode):
        model = SurrogateModel(cfg, seed=9)
        if mode == "sync":
            simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                             ClusterConfig(4, "sync", sync_overhead_per_batch=0.0),
                             epochs=2, batch_size=16, seed=2)
        elif mode == "accum":
            train(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                  epochs=2, batch_size=16, seed=2, accum_steps=4)
        elif mode == "async1":
            simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                             ClusterConfig(2, "async", async_warmup_iterations=0),
                             epochs=2, batch_size=16, seed=2)
        else:
            train(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                  epochs=2, batch_size=16, seed=2)
        return model.params

    sync_params, accum_params = params_of("sync"), params_of("accum")
    async_params, seq_params = params_of("async1"), params_of("seq")
    sync_ok = all(np.array_equal(sync_params[k], accum_params[k]) for k in sync_params)
    async_ok = all(np.array_equal(async_params[k], seq_params[k]) for k in async_params)
    elapsed = time.monotonic() - started
    report(4, "sync=accumulated-sequential and 1-trainer-async=sequential, bit-exact",
           sync_ok and async_ok and elapsed < 60.0,
           f"runtime {elapsed:.1f}s")


def test_criterion_05_gradient_correctness():
    ids = toy_lm_stream(300, 30, seed=5)
    model = SurrogateModel(SurrogateConfig(30, 6, 10), seed=3)
    error = check_gradients(model, ids[:64], ids[1:65], n_samples=200, step=1e-5, seed=1)
    report(5, "analytic vs central-difference gradients agree over 200 coordinates",
           error < 1e-6, f"max relative error {error:.2e}")


def test_criterion_06_bpe_oracle():
    all_ok = True
    for texts in FIXTURE_CORPORA:
        word_count = sum(len(t.split()) for t in texts)
        assert word_count <= 200
        expected = oracle_bpe(texts, 50)
        got = list(tk.train_bpe_texts(texts, 50).merges)
        all_ok = all_ok and got == expected
    report(6, "merge lists equal the recount-after-every-merge oracle on 5 fixtures",
           all_ok, "50 merges each, ties included")


def _round_trip_sentences(count: int) -> list[str]:
    rng = random.Random(99)
    english = entity_sentences(count // 3, seed=21, language="en")
    german = entity_sentences(count // 3, seed=22, language="de")
    extra = []
    words = ["WiFi", "Hodor", "winterfell", "BOOK", "McDonald", "ecolodge", "straße",
             "Zürich", "don't", "l'hôtel", "A380", "co-working"]
    punct = [",", ".", "!", "?", ":", ";", "-", "(", ")"]
    while len(extra) < count - len(english) - len(german):
        k = rng.randint(1, 9)
        bits = []
        for _ in range(k):
            w = rng.choice(words)
            if rng.random() < 0.3:
                w += rng.choice(punct)
            if rng.random() < 0.1:
                w = tk.format_placeholder(rng.choice(["DIST", "DUR"]), rng.randint(0, 5))
            bits.append(w)
        extra.append(" ".join(bits))
    return english + german + extra


def test_criterion_07_round_trip_and_case_pattern():
    model = tk.train_bpe_texts(
        ["offering a restaurant with wifi and garden access",
         "the winter is long but the summer fell early",
         "winter winter winter fell fell fell ho ho dor dor",
         "guests can book rooms with wifi in every lodge"] * 4,
        250,
    )
    sentences = _round_trip_sentences(10_000)
    failures = sum(1 for s in sentences if tk.detokenize(tk.tokenize(model, s)) != s)

    ts = tk.tokenize(model, "Offering a restaurant with WiFi, Hodor Ecolodge is located in Winterfell.")
    rendered = tk.render_tokens(ts)
    pattern_ok = "wi■|C fi|C" in rendered and "winter■|C fell|L" in rendered
    report(7, "10,000 generated sentences round-trip byte-exactly; paper case pattern holds",
           failures == 0 and pattern_ok,
           f"{len(sentences)} sentences, {failures} failures; rendered contains "
           f"wi■|C fi|C and winter■|C fell|L: {pattern_ok}")


def test_criterion_08_bleu_oracle():
    identical = ["the hotel offers free parking", "the beach is two km away"]
    identity_ok = corpus_bleu(identical, identical).score == pytest.approx(100.0)

    rng = random.Random(17)
    vocab = ["the", "cat", "dog", "sat", "mat", "on", "a", "ran", "hotel", "beach"]
    worst = 0.0
    for _ in range(50):
        n = rng.randint(1, 4)
        cands = [" ".join(rng.choices(vocab, k=rng.randint(4, 12))) for _ in range(n)]
        refs = [" ".join(rng.choices(vocab, k=rng.randint(4, 12))) for _ in range(n)]
        worst = max(worst, abs(corpus_bleu(cands, refs).score - oracle_bleu(cands, refs)))

    clipped = corpus_bleu(["the the the the"], ["the cat the mat"]).precisions[0]
    clip_ok = clipped == pytest.approx(2 / 4)
    report(8, "identity=100, 50 random pairs match brute force to 1e-9, clipped p1=2/4",
           identity_ok and worst < 1e-9 and clip_ok,
           f"worst oracle gap {worst:.1e}, clipped p1 {clipped}")


def test_criterion_09_entity_pipeline():
    en_tpl = entities.starter_templates("en")
    de_tpl = entities.starter_templates("de")

    sentence = "Winterfell Railway Station can be reached in a 55-minute car ride."
    pmap = entities.mask(sentence, en_tpl)
    masked_ok = "⟦DUR_0⟧" in pmap.masked_sentence and pmap.entries[0].original_text == "55-minute"
    simulated = "Den Bahnhof Winterfell erreichen Sie nach einer ⟦DUR_0⟧ Autofahrt."
    restored = entities.unmask(simulated, pmap, entities.DE_LOCALE)
    value_ok = "55" in restored

    failures = 0
    for language, templates, locale in (("en", en_tpl, entities.EN_LOCALE),
                                        ("de", de_tpl, entities.DE_LOCALE)):
        for s in entity_sentences(500, seed=31, language=language):
            m = entities.mask(s, templates)
            if entities.unmask(m.masked_sentence, m, locale) != s:
                failures += 1

    pairs = tuple(SentencePair(s, t, i) for i, (s, t) in enumerate([
        ("the station is 5 km away", "der Bahnhof ist 5 km entfernt"),
        ("it is 500 m to the beach", "der Strand ist 500 m entfernt"),
        ("a 20-minute walk", "ein 20-minütiger Spaziergang"),
    ]))
    corpus = ParallelCorpus(pairs)
    gappy = [entities.EntityTemplate("distance", "de", r"\b\d+(?:,\d+)?\s*(?:Kilometern?|km)\b"),
             entities.EntityTemplate("duration", "de",
                                     r"\b\d+[-\s]?(?:Minuten?|minütige[nrms]?)\b")]
    scan = entities.scan_mismatches(corpus, en_tpl, gappy)
    gap_found = (scan.mismatch_counts["distance"] == 1
                 and scan.sample_ids["distance"] == [1]
                 and scan.mismatch_counts.get("duration", 0) == 0
                 and scan.unmatched["en"].get("500 m") == 1)
    report(9, "Table-4 masking restores 55; 1,000 round trips hold; planted template gap found",
           masked_ok and value_ok and failures == 0 and gap_found,
           f"round-trip failures {failures}; gap report {dict(scan.mismatch_counts)}")


def test_criterion_10_bsf_end_to_end():
    started = time.monotonic()
    results = {}
    for language in ("en", "de"):
        data = parking_sentences(language, 1100, seed=5)
        train_set, heldout = data[:600], data[600:1100]
        assert len(heldout) == 500
        clf = train_classifier(train_set, seed=2)
        results[language] = (clf, evaluate_classifier(clf, heldout))
    f1_ok = all(metrics.macro_f1 >= 0.95 for _, metrics in results.values())

    en_data, de_data, flipped = parking_parallel(400, seed=6, flip_fraction=0.05)
    pairs = [(e[0], d[0]) for e, d in zip(en_data, de_data)]
    lex_en = AspectLexicon("parking", "en", approved_terms=["parking", "park"])
    lex_de = AspectLexicon("parking", "de",
                           approved_terms=["parkplätze", "parken", "parkplatz", "garage"])
    bsf_report = cross_language_report(pairs, lex_en, lex_de,
                                       results["en"][0], results["de"][0])
    rows_ok = all(
        sum(bsf_report.matrix[label].values()) == pytest.approx(100.0, abs=0.1)
        for label in bsf_report.labels if bsf_report.volumes[label]
    )
    matched = set(match_sentences([p[0] for p in pairs], lex_en))
    expected_flags = {i for i in flipped if i in matched}
    flags_ok = expected_flags <= set(bsf_report.flagged_ids)
    elapsed = time.monotonic() - started
    report(10, "both classifiers reach macro-F1 >= 0.95; matrix rows sum to 100; flips flagged",
           f1_ok and rows_ok and flags_ok and elapsed < 60.0,
           f"macro-F1 en {results['en'][1].macro_f1:.3f} de {results['de'][1].macro_f1:.3f}; "
           f"{len(expected_flags)} planted flips flagged; runtime {elapsed:.0f}s")


def test_criterion_11_correlation_module():
    bleu = {"1M": 46.54, "2.5M": 47.39, "5M": 47.88, "7.5M": 47.95, "10M": 47.41}
    adequacy = {"1M": 3.05, "2.5M": 3.12, "5M": 3.20, "7.5M": 3.26, "10M": 3.48}
    figure_report = correlate(bleu, adequacy)
    disagreement_ok = (figure_report.bleu_argmax == "7.5M"
                       and figure_report.human_argmax == "10M"
                       and figure_report.argmax_disagreement)

    xs = {"a": 40.0, "b": 42.0, "c": 47.0, "d": 45.0}
    linear = correlate(xs, {k: 2.0 * v + 1.0 for k, v in xs.items()})
    linear_ok = abs(linear.pearson_r - 1.0) <= 1e-12
    report(11, "corpus-size fixture sets the argmax-disagreement flag; linear data gives r=1",
           disagreement_ok and linear_ok,
           f"pearson on linear fixture {linear.pearson_r!r}")
