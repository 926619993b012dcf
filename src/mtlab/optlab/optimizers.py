"""The four optimizer update rules and the epoch-boundary decay schedule.

SGD's learning rate decays by 0.7 whenever the epoch's validation
perplexity fails to improve on the previous epoch's, and unconditionally
after every epoch beyond the ninth; it never decays more than once per
boundary.  Adaptive-rule constants follow the usual published defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KINDS",
    "DEFAULT_LR",
    "OptimizerConfig",
    "Optimizer",
    "DimensionError",
    "NumericError",
    "accumulate_gradients",
]

KINDS = ("sgd_decay", "adam", "adagrad", "adadelta")
DEFAULT_LR = {"sgd_decay": 1.0, "adam": 0.0002, "adagrad": 0.1, "adadelta": 1.0}

DECAY_FACTOR = 0.7
START_DECAY_EPOCH = 9     # decay fires after every epoch beyond this
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAGRAD_EPS = 1e-10
ADADELTA_RHO = 0.9
ADADELTA_EPS = 1e-6


class DimensionError(ValueError):
    pass


class NumericError(ValueError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "sgd_decay"
    initial_lr: float | None = None     # None resolves to the per-kind default

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}, expected one of {KINDS}")
        if self.initial_lr is None:
            object.__setattr__(self, "initial_lr", DEFAULT_LR[self.kind])
        if self.initial_lr < 0:
            raise ValueError("learning rate must be non-negative")

    @property
    def lr(self) -> float:
        return float(self.initial_lr)


class Optimizer:
    """Stateful per-parameter update engine for one training run."""

    def __init__(self, config: OptimizerConfig):
        self.config = config
        self.current_lr = config.lr
        self.step_count = 0
        self.previous_ppl: float | None = None
        self._slots: dict[str, dict[str, np.ndarray]] = {}

    def _slot(self, name: str, like: np.ndarray, *keys: str) -> dict:
        slot = self._slots.setdefault(name, {})
        for key in keys:
            if key not in slot:
                slot[key] = np.zeros_like(like)
        return slot

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Apply one in-place update; raises on bad shapes or non-finite input."""
        for name, param in params.items():
            grad = grads.get(name)
            if grad is None or grad.shape != param.shape:
                got = None if grad is None else grad.shape
                raise DimensionError(f"gradient for {name!r}: expected {param.shape}, got {got}")
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite gradient in parameter block {name!r}")
        self.step_count += 1
        kind = self.config.kind
        if kind == "sgd_decay":
            for name, param in params.items():
                param -= self.current_lr * grads[name]
        elif kind == "adam":
            t = self.step_count
            bias1 = 1.0 - ADAM_BETA1 ** t
            bias2 = 1.0 - ADAM_BETA2 ** t
            for name, param in params.items():
                slot = self._slot(name, param, "m", "v")
                g = grads[name]
                slot["m"] *= ADAM_BETA1
                slot["m"] += (1.0 - ADAM_BETA1) * g
                slot["v"] *= ADAM_BETA2
                slot["v"] += (1.0 - ADAM_BETA2) * g * g
                m_hat = slot["m"] / bias1
                v_hat = slot["v"] / bias2
                param -= self.current_lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        elif kind == "adagrad":
            for name, param in params.items():
                slot = self._slot(name, param, "g2")
                g = grads[name]
                slot["g2"] += g * g
                param -= self.current_lr * g / np.sqrt(slot["g2"] + ADAGRAD_EPS)
        elif kind == "adadelta":
            for name, param in params.items():
                slot = self._slot(name, param, "eg2", "ed2")
                g = grads[name]
                slot["eg2"] *= ADADELTA_RHO
                slot["eg2"] += (1.0 - ADADELTA_RHO) * g * g
                delta = -np.sqrt(slot["ed2"] + ADADELTA_EPS) / np.sqrt(slot["eg2"] + ADADELTA_EPS) * g
                slot["ed2"] *= ADADELTA_RHO
                slot["ed2"] += (1.0 - ADADELTA_RHO) * delta * delta
                param += self.current_lr * delta

    def end_of_epoch(self, epoch: int, val_ppl: float) -> float:
        """Epoch-boundary hook; only sgd_decay changes its rate (at most once)."""
        if self.config.kind == "sgd_decay":
            no_improvement = self.previous_ppl is not None and val_ppl >= self.previous_ppl
            if no_improvement or epoch > START_DECAY_EPOCH:
                self.current_lr *= DECAY_FACTOR
        self.previous_ppl = val_ppl
        return self.current_lr


def accumulate_gradients(grads_list: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Mean of per-batch gradients, summed in list order.

    Shared by sequential gradient accumulation and the synchronous cluster
    simulation so the two produce bit-identical floats.  A single batch's
    gradient is returned as is: the mean of one is itself.
    """
    if not grads_list:
        raise ValueError("no gradients to accumulate")
    if len(grads_list) == 1:
        return grads_list[0]
    total = {name: g.copy() for name, g in grads_list[0].items()}
    for grads in grads_list[1:]:
        for name in total:
            total[name] += grads[name]
    scale = 1.0 / len(grads_list)
    for name in total:
        total[name] *= scale
    return total
