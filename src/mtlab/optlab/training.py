"""The one training loop behind `train`, `simulate_cluster` and `corpus_size_sweep`.

A schedule turns each epoch's batches into (grad, batches consumed, clock)
updates; the loop applies them and writes a trace row per epoch, or at
checkpoints within an iteration budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..corpus import write_lines
from ..rng import stream
from .model import SurrogateConfig, SurrogateModel
from .optimizers import Optimizer, OptimizerConfig, accumulate_gradients

__all__ = ["TraceRow", "TrainingTrace", "TrainingError", "epoch_batches", "train",
           "corpus_size_sweep"]

DIVERGENCE_PPL = 1e6


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    iterations: int
    sim_seconds: float
    val_ppl: float
    lr: float


@dataclass
class TrainingTrace:
    rows: list[TraceRow] = field(default_factory=list)
    divergent: bool = False
    max_staleness: int | None = None  # filled in by the cluster simulation

    def final_ppl(self) -> float:
        return self.rows[-1].val_ppl

    def ppl_at_epoch(self, epoch: int) -> float:
        for row in self.rows:
            if row.epoch == epoch:
                return row.val_ppl
        raise KeyError(f"no trace row for epoch {epoch}")

    def to_csv(self, path: str) -> None:
        lines = ["epoch,iterations,sim_seconds,val_ppl,lr"]
        lines += [f"{row.epoch},{row.iterations},{row.sim_seconds:.6f},{row.val_ppl!r},{row.lr!r}"
                  for row in self.rows]
        write_lines(lines, path)


def epoch_batches(ids: np.ndarray, batch_size: int, seed: int, epoch: int) -> list:
    """Shuffled (inputs, targets) bigram batches for one epoch.

    Every schedule of the training loop consumes this same batch sequence
    for a given (seed, epoch).
    """
    _require_positive(batch_size=batch_size)
    ids = np.asarray(ids)
    if len(ids) < 2:
        raise TrainingError("token stream must contain at least one bigram")
    inputs = ids[:-1]
    targets = ids[1:]
    order = stream(seed, f"data-epoch-{epoch}").permutation(len(inputs))
    batches = []
    for start in range(0, len(order), batch_size):
        index = order[start : start + batch_size]
        batches.append((inputs[index], targets[index]))
    return batches


def _require_positive(**values) -> None:
    for name, value in values.items():
        if value is not None and value < 1:
            raise TrainingError(f"{name} must be at least 1, got {value}")


def _rounds(model: SurrogateModel, width: int, compute: float = 0.0, overhead: float = 0.0):
    """Schedule of one update per `width` consecutive batches, their mean
    gradient; the clock advances by `compute + overhead * batches`."""
    _require_positive(accum_steps=width)

    def schedule(batches: list, iterations: int, clock: float):
        for start in range(0, len(batches), width):
            group = batches[start : start + width]
            grad = accumulate_gradients([model.loss_and_grads(x, y)[1] for x, y in group])
            iterations += len(group)
            clock += compute + overhead * len(group)
            yield grad, iterations, clock

    return schedule


def _train_loop(model: SurrogateModel, train_ids: np.ndarray, val_ids: np.ndarray,
                opt_config: OptimizerConfig, schedule, batch_size: int, seed: int,
                epochs: int | None = None, budget: int | None = None,
                checkpoint_every: int | None = None) -> TrainingTrace:
    """Run `schedule` epoch by epoch with one optimizer.

    Without a `budget`, each epoch ends with a row carrying the end-of-epoch
    learning rate, and a validation perplexity above 1e6 stops the run
    flagged divergent.  With one, a row is written every `checkpoint_every`
    batches and at the budget, which ends the run; completed epochs still
    apply the end-of-epoch rule.
    """
    _require_positive(epochs=epochs, iteration_budget=budget,
                      checkpoint_every=checkpoint_every)
    optimizer = Optimizer(opt_config)
    trace = TrainingTrace()
    iterations, clock = 0, 0.0
    for epoch in itertools.count(1) if budget is not None else range(1, epochs + 1):
        batches = epoch_batches(train_ids, batch_size, seed, epoch)
        for grad, iterations, clock in schedule(batches, iterations, clock):
            optimizer.step(model.theta, grad)
            if budget is not None and (iterations % checkpoint_every == 0 or iterations >= budget):
                val_ppl = model.perplexity(val_ids)
                trace.rows.append(TraceRow(epoch, iterations, clock, val_ppl, optimizer.current_lr))
                if iterations >= budget:
                    return trace
        val_ppl = model.perplexity(val_ids)
        lr = optimizer.end_of_epoch(epoch, val_ppl)
        if budget is None:
            trace.rows.append(TraceRow(epoch, iterations, clock, val_ppl, lr))
            if val_ppl > DIVERGENCE_PPL:
                trace.divergent = True
                break
    return trace


def train(
    model: SurrogateModel,
    train_ids: np.ndarray,
    val_ids: np.ndarray,
    opt_config: OptimizerConfig,
    epochs: int,
    batch_size: int = 32,
    seed: int = 0,
    accum_steps: int = 1,
) -> TrainingTrace:
    """Train to a per-epoch validation trace; deterministic given the seed.

    `accum_steps` averages that many consecutive batches into one update
    (the sequential equivalent of synchronous data parallelism).  A
    validation perplexity above 1e6 aborts the run with the trace flagged
    divergent.  Shares its loop with `simulate_cluster` and
    `corpus_size_sweep`.
    """
    return _train_loop(model, train_ids, val_ids, opt_config, _rounds(model, accum_steps),
                       batch_size, seed, epochs=epochs)


def corpus_size_sweep(
    model_config: SurrogateConfig,
    streams: list[tuple[str, np.ndarray]],
    val_ids: np.ndarray,
    opt_config: OptimizerConfig,
    iteration_budget: int,
    batch_size: int = 32,
    seed: int = 0,
    checkpoint_every: int = 100,
) -> dict[str, TrainingTrace]:
    """Train one fresh model per (label, token stream) for a fixed number of
    batch iterations, recording validation perplexity every
    `checkpoint_every` iterations so curves are comparable across sizes.
    The labels key the result, so a repeated label raises TrainingError.
    Shares its loop with `train` and `simulate_cluster`."""
    labels = [label for label, _ in streams]
    if len(set(labels)) < len(labels):
        raise TrainingError(f"stream labels must be distinct, got {labels}")
    results: dict[str, TrainingTrace] = {}
    for label, ids in streams:
        model = SurrogateModel(model_config, seed)
        results[label] = _train_loop(model, ids, val_ids, opt_config, _rounds(model, 1),
                                     batch_size, seed, budget=iteration_budget,
                                     checkpoint_every=checkpoint_every)
    return results
