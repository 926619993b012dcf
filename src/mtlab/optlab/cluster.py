"""Deterministic discrete-event simulation of sync/async data-parallel SGD.

Synchronous mode: every worker computes a gradient on its own batch, the
mean gradient is applied as one update, and the logical clock advances by
the compute time plus a per-batch synchronization overhead.

Asynchronous mode: one worker is reserved to hold the master parameters;
each remaining trainer loops pull -> compute -> push, with pushes applied
in event order against possibly stale parameters.  For better
initialization the first warmup iterations run on a single trainer.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import SurrogateModel
# not called here; perfbench/spans.py wraps this module's name when tracing
from .optimizers import OptimizerConfig, accumulate_gradients  # noqa: F401
from .training import TrainingTrace, _rounds, _train_loop

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "simulate_cluster",
    "calibrated_cluster_config",
    "SYNC_EPOCH_OVERHEAD_SECONDS",
    "ASYNC_EPOCH_OVERHEAD_SECONDS",
    "SINGLE_EPOCH_SECONDS",
    "ITERATIONS_PER_EPOCH",
]

# Overhead budget per epoch, fitted once against the reported wall-clock
# table (one constant per mode); divide by the iteration count to get the
# per-batch figures used by a calibrated simulation.
SYNC_EPOCH_OVERHEAD_SECONDS = 2100.0
ASYNC_EPOCH_OVERHEAD_SECONDS = 600.0
# The default calibration: the reported single-worker epoch (6h11m) and its batch count.
SINGLE_EPOCH_SECONDS = 22260.0
ITERATIONS_PER_EPOCH = 840


class ClusterError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterConfig:
    worker_count: int
    mode: str  # "sync" | "async"
    per_batch_compute_time: float = 1.0
    sync_overhead_per_batch: float = 0.0
    async_comm_time: float = 0.0
    async_warmup_iterations: int = 0

    def __post_init__(self):
        if self.mode not in ("sync", "async"):
            raise ClusterError(f"unknown cluster mode {self.mode!r}")
        if self.worker_count < 1:
            raise ClusterError("worker_count must be at least 1")
        if self.mode == "async" and self.worker_count < 2:
            raise ClusterError("async mode reserves one worker for the master copy; need K >= 2")
        if not 0 < self.per_batch_compute_time < math.inf:  # also false for nan
            raise ClusterError(f"per_batch_compute_time must be finite and > 0, "
                               f"got {self.per_batch_compute_time}")
        for name in ("sync_overhead_per_batch", "async_comm_time", "async_warmup_iterations"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ClusterError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


def calibrated_cluster_config(
    mode: str,
    worker_count: int,
    single_epoch_seconds: float = SINGLE_EPOCH_SECONDS,
    iterations_per_epoch: int = ITERATIONS_PER_EPOCH,
    warmup_iterations: int = ClusterConfig.async_warmup_iterations,
) -> ClusterConfig:
    """Timing parameters calibrated so one worker takes `single_epoch_seconds`."""
    if iterations_per_epoch < 1:
        raise ClusterError("iterations_per_epoch must be at least 1")
    return ClusterConfig(
        worker_count=worker_count,
        mode=mode,
        per_batch_compute_time=single_epoch_seconds / iterations_per_epoch,
        sync_overhead_per_batch=SYNC_EPOCH_OVERHEAD_SECONDS / iterations_per_epoch,
        async_comm_time=ASYNC_EPOCH_OVERHEAD_SECONDS / iterations_per_epoch,
        async_warmup_iterations=warmup_iterations,
    )


def simulate_cluster(
    model: SurrogateModel,
    train_ids: np.ndarray,
    val_ids: np.ndarray,
    opt_config: OptimizerConfig,
    cluster: ClusterConfig,
    epochs: int,
    batch_size: int = 32,
    seed: int = 0,
) -> TrainingTrace:
    """Run the cluster simulation; returns a trace with staleness stats.

    Shares its loop and batch schedule with `train` for the same seed, so
    synchronous runs with zero overhead reproduce sequential gradient
    accumulation bit-exactly.
    """
    if cluster.mode == "sync":
        schedule = _rounds(model, cluster.worker_count, cluster.per_batch_compute_time,
                           cluster.sync_overhead_per_batch)
    else:
        schedule = _AsyncEvents(model, cluster)
    trace = _train_loop(model, train_ids, val_ids, opt_config, schedule, batch_size, seed,
                        epochs=epochs)
    trace.max_staleness = schedule.max_staleness if cluster.mode == "async" else 0
    return trace


class _AsyncEvents:
    """Async schedule: an event heap of pull -> compute -> push cycles.

    A trainer takes its next gradient once its previous push is applied, so
    the push may land stale.  Each update consumes one batch, so the batch
    count doubles as the master's version number.
    """

    def __init__(self, model: SurrogateModel, cluster: ClusterConfig):
        self.model = model
        self.cluster = cluster
        self.max_staleness = 0

    def __call__(self, batches: list, iterations: int, clock: float):
        cluster = self.cluster
        trainers = cluster.worker_count - 1  # one worker holds the master copy
        cycle = cluster.per_batch_compute_time + cluster.async_comm_time
        pending = iter(batches)
        heap: list = []
        seq = itertools.count()
        active = 1

        def start_cycle(trainer: int, now: float) -> None:
            batch = next(pending, None)
            if batch is not None:
                grad = self.model.loss_and_grads(*batch)[1]
                heapq.heappush(heap, (now + cycle, next(seq), trainer, grad, iterations))

        def end_warmup(now: float) -> None:  # warmup iterations run on one trainer
            nonlocal active
            if active < trainers and iterations >= cluster.async_warmup_iterations:
                for trainer in range(active, trainers):
                    start_cycle(trainer, now)
                active = trainers

        start_cycle(0, clock)
        end_warmup(clock)
        while heap:
            time, _, trainer, grad, pulled = heapq.heappop(heap)
            self.max_staleness = max(self.max_staleness, iterations - pulled)
            iterations += 1
            yield grad, iterations, time
            end_warmup(time)
            start_cycle(trainer, time)
