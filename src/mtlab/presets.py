"""Canonical desk-scale experiment configurations.

The convergence experiment is tuned so the qualitative optimizer story is
reproducible on fixed seeds: Adam leads early, decayed SGD wins at the
end, Adagrad trails everything.  Scripts and the acceptance suite share
these settings.
"""

from __future__ import annotations

import numpy as np

from .optlab import (OptimizerConfig, SurrogateConfig, SurrogateModel,
                     calibrated_cluster_config, simulate_cluster)
from .synth import toy_lm_stream

__all__ = ["CONVERGENCE", "convergence_data", "convergence_model", "TIMING", "timing_table"]

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

TIMING = {
    "single_epoch_seconds": 22260.0,
    "iterations_per_epoch": 840,
    "reported_seconds": {
        ("sync", 2): 12660.0, ("async", 2): 21120.0,
        ("sync", 4): 8040.0, ("async", 4): 7500.0,
        ("sync", 6): 5940.0, ("async", 6): 4560.0,
        ("sync", 8): 4980.0, ("async", 8): 3360.0,
    },
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


def timing_table() -> list[tuple[str, int, float, float]]:
    """(mode, workers, simulated, reported) epoch seconds per reported entry."""
    iterations = TIMING["iterations_per_epoch"]
    train_ids = toy_lm_stream(iterations * 4 + 1, 24, seed=3)
    val_ids = toy_lm_stream(120, 24, seed=4)
    rows = []
    for (mode, workers), reported in TIMING["reported_seconds"].items():
        cluster = calibrated_cluster_config(mode, workers,
                                            TIMING["single_epoch_seconds"], iterations)
        model = SurrogateModel(SurrogateConfig(24, 4, 8), seed=9)
        trace = simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                                 cluster, epochs=1, batch_size=4, seed=2)
        rows.append((mode, workers, trace.rows[0].sim_seconds, reported))
    return rows
