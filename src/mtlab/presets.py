"""Canonical desk-scale experiment configurations.

The convergence experiment is tuned so the qualitative optimizer story is
reproducible on fixed seeds: Adam leads early, decayed SGD ends below
Adam; Adagrad ends worst.  Each of the paper's experiments is
defined here once and fixes every seed: `mtlab experiment` runs it, and
the acceptance suite checks it.
"""

from __future__ import annotations

import numpy as np

from .optlab import (OptimizerConfig, SurrogateConfig, SurrogateModel, TrainingTrace,
                     calibrated_cluster_config, corpus_size_sweep, optimizers,
                     simulate_cluster, train)
from .optlab.cluster import ITERATIONS_PER_EPOCH
from .synth import parking_parallel, parking_sentences, toy_lm_stream

__all__ = ["CONVERGENCE", "convergence_data", "convergence_model", "convergence_traces",
           "TIMING", "timing_table", "corpus_size_traces", "bsf_classifiers", "bsf_flip_report"]

CONVERGENCE = {
    "vocab_size": 128,
    "embed_dim": 96,
    "hidden_dim": 192,
    "train_tokens": 2000,
    "val_tokens": 3000,
    "noise": 0.15,
    "batch_size": 8,
    "epochs": 70,
    "seed": 7,
    "corpus_seed": 11,
}

# (mode, workers) -> the reported epoch seconds, for the default calibration
TIMING = {
    ("sync", 2): 12660.0, ("async", 2): 21120.0,
    ("sync", 4): 8040.0, ("async", 4): 7500.0,
    ("sync", 6): 5940.0, ("async", 6): 4560.0,
    ("sync", 8): 4980.0, ("async", 8): 3360.0,
}


def convergence_data() -> tuple[np.ndarray, np.ndarray]:
    cfg = CONVERGENCE
    train_ids = toy_lm_stream(cfg["train_tokens"], cfg["vocab_size"],
                              seed=cfg["corpus_seed"], noise=cfg["noise"])
    val_ids = toy_lm_stream(cfg["val_tokens"], cfg["vocab_size"],
                            seed=cfg["corpus_seed"] + 1, noise=cfg["noise"])
    return train_ids, val_ids


def convergence_model() -> SurrogateModel:
    cfg = CONVERGENCE
    return SurrogateModel(
        SurrogateConfig(cfg["vocab_size"], cfg["embed_dim"], cfg["hidden_dim"]),
        seed=cfg["seed"],
    )


def convergence_traces(epochs: int = CONVERGENCE["epochs"]) -> dict[str, TrainingTrace]:
    """kind -> trace of a fresh `convergence_model()` per optimizer kind, on one data set."""
    cfg = CONVERGENCE
    train_ids, val_ids = convergence_data()
    return {kind: train(convergence_model(), train_ids, val_ids, OptimizerConfig(kind),
                        epochs=epochs, batch_size=cfg["batch_size"], seed=cfg["seed"])
            for kind in optimizers.KINDS}


def timing_table() -> list[tuple[str, int, float, float]]:
    """(mode, workers, simulated, reported) epoch seconds per reported entry."""
    train_ids = toy_lm_stream(ITERATIONS_PER_EPOCH * 4 + 1, 24, seed=3)
    val_ids = toy_lm_stream(120, 24, seed=4)
    rows = []
    for (mode, workers), reported in TIMING.items():
        cluster = calibrated_cluster_config(mode, workers)
        model = SurrogateModel(SurrogateConfig(24, 4, 8), seed=9)
        trace = simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                                 cluster, epochs=1, batch_size=4, seed=2)
        rows.append((mode, workers, trace.rows[0].sim_seconds, reported))
    return rows


def corpus_size_traces(sizes, budget: int, checkpoint_every: int) -> dict[str, TrainingTrace]:
    """size label -> trace: nested prefixes of one toy stream, each trained
    for the same iteration budget."""
    full = toy_lm_stream(max(sizes), 32, seed=3)
    val_ids = toy_lm_stream(3000, 32, seed=4)
    streams = [(str(size), full[:size]) for size in sizes]
    return corpus_size_sweep(SurrogateConfig(32, 8, 16), streams, val_ids,
                             OptimizerConfig("sgd_decay"), iteration_budget=budget,
                             batch_size=8, seed=5, checkpoint_every=checkpoint_every)


# bsf is imported inside the two functions below, not at module level:
# importing this module is part of the optimizer benchmark's timed setup


def bsf_classifiers() -> dict:
    """language -> (classifier trained on 600 parking sentences, its metrics on the next 500)."""
    from . import bsf
    results = {}
    for language in ("en", "de"):
        data = parking_sentences(language, 1100, seed=5)
        clf = bsf.train_classifier(data[:600], seed=2)
        results[language] = (clf, bsf.evaluate_classifier(clf, data[600:]))
    return results


def bsf_flip_report(classifiers: dict):
    """(report, planted flip ids, ids the English lexicon matches) for the
    cross-language report on 400 parallel pairs with 5% planted label flips."""
    from . import bsf
    en_data, de_data, flipped = parking_parallel(400, seed=6, flip_fraction=0.05)
    pairs = [(e[0], d[0]) for e, d in zip(en_data, de_data)]
    lex_en = bsf.AspectLexicon("parking", "en", approved_terms=["parking", "park"])
    report = bsf.cross_language_report(pairs, lex_en, None,
                                       classifiers["en"][0], classifiers["de"][0])
    return report, flipped, bsf.match_sentences([src for src, _ in pairs], lex_en)
