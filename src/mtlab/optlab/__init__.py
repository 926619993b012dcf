"""Optimizer update rules, a tiny differentiable language model, and a
deterministic discrete-event simulation of data-parallel SGD."""

from .optimizers import (
    OptimizerConfig,
    Optimizer,
    DimensionError,
    NumericError,
    accumulate_gradients,
)
from .model import SurrogateConfig, SurrogateModel, check_gradients
from .training import (TraceRow, TrainingTrace, TrainingError, epoch_batches, train,
                       corpus_size_sweep)
from .cluster import ClusterConfig, ClusterError, simulate_cluster, calibrated_cluster_config

__all__ = [
    "OptimizerConfig",
    "Optimizer",
    "DimensionError",
    "NumericError",
    "accumulate_gradients",
    "SurrogateConfig",
    "SurrogateModel",
    "check_gradients",
    "TraceRow",
    "TrainingTrace",
    "TrainingError",
    "epoch_batches",
    "train",
    "ClusterConfig",
    "ClusterError",
    "simulate_cluster",
    "calibrated_cluster_config",
    "corpus_size_sweep",
]
