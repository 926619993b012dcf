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
SLOT_COUNT = {"sgd_decay": 0, "adam": 2, "adagrad": 1, "adadelta": 2}  # state vectors per rule

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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}, expected one of {KINDS}")


class Optimizer:
    """Stateful update engine over one flat parameter vector for one training run.

    Each rule runs in place over its slots and two scratch vectors, in the
    rounding order of its textbook form (noted per line).
    """

    def __init__(self, config: OptimizerConfig):
        self.config = config
        self.current_lr = DEFAULT_LR[config.kind]
        self.step_count = 0
        self.previous_ppl: float | None = None
        self._slots: list[np.ndarray] = []
        self._scratch: list[np.ndarray] = []

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Apply one in-place update; raises on bad shapes or non-finite input."""
        if grad.shape != theta.shape:
            raise DimensionError(f"gradient shape {grad.shape} does not match {theta.shape}")
        if not np.isfinite(grad).all():
            raise NumericError(f"non-finite gradient at flat index {np.argmin(np.isfinite(grad))}")
        self.step_count += 1
        kind = self.config.kind
        if self.step_count == 1:
            self._slots = [np.zeros_like(theta) for _ in range(SLOT_COUNT[kind])]
            self._scratch = [np.empty_like(theta) for _ in range(2)]
        lr = self.current_lr
        s, t = self._scratch
        if kind == "sgd_decay":
            # theta -= lr * g
            theta -= np.multiply(lr, grad, out=s)
        elif kind == "adam":
            bias1 = 1.0 - ADAM_BETA1 ** self.step_count
            bias2 = 1.0 - ADAM_BETA2 ** self.step_count
            m, v = self._slots
            # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, grad, out=s)
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, grad, out=s)
            v += np.multiply(s, grad, out=s)
            # theta -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.sqrt(np.divide(v, bias2, out=t), out=t)
            t += ADAM_EPS
            np.multiply(lr, np.divide(m, bias1, out=s), out=s)
            theta -= np.divide(s, t, out=s)
        elif kind == "adagrad":
            (g2,) = self._slots
            # g2 += g * g;  theta -= lr * g / sqrt(g2 + eps)
            g2 += np.multiply(grad, grad, out=s)
            np.sqrt(np.add(g2, ADAGRAD_EPS, out=t), out=t)
            np.multiply(lr, grad, out=s)
            theta -= np.divide(s, t, out=s)
        elif kind == "adadelta":
            eg2, ed2 = self._slots
            # eg2 = rho * eg2 + (1 - rho) * g * g
            eg2 *= ADADELTA_RHO
            np.multiply(1.0 - ADADELTA_RHO, grad, out=s)
            eg2 += np.multiply(s, grad, out=s)
            # delta = -sqrt(ed2 + eps) / sqrt(eg2 + eps) * g, left in s
            np.negative(np.sqrt(np.add(ed2, ADADELTA_EPS, out=s), out=s), out=s)
            np.sqrt(np.add(eg2, ADADELTA_EPS, out=t), out=t)
            np.multiply(np.divide(s, t, out=s), grad, out=s)
            # ed2 = rho * ed2 + (1 - rho) * delta * delta;  theta += lr * delta
            ed2 *= ADADELTA_RHO
            np.multiply(1.0 - ADADELTA_RHO, s, out=t)
            ed2 += np.multiply(t, s, out=t)
            theta += np.multiply(lr, s, out=s)

    def end_of_epoch(self, epoch: int, val_ppl: float) -> float:
        """Epoch-boundary hook; only sgd_decay changes its rate (at most once)."""
        if self.config.kind == "sgd_decay":
            no_improvement = self.previous_ppl is not None and val_ppl >= self.previous_ppl
            if no_improvement or epoch > START_DECAY_EPOCH:
                self.current_lr *= DECAY_FACTOR
        self.previous_ppl = val_ppl
        return self.current_lr


def accumulate_gradients(grads_list: list[np.ndarray]) -> np.ndarray:
    """Mean of per-batch gradient vectors, summed in list order.

    Shared by sequential gradient accumulation and the synchronous cluster
    simulation so the two produce bit-identical floats.  A single batch's
    gradient is returned as is: the mean of one is itself.
    """
    if not grads_list:
        raise ValueError("no gradients to accumulate")
    if len(grads_list) == 1:
        return grads_list[0]
    # one fresh buffer: the inputs may still be held elsewhere (the async heap)
    total = grads_list[0] + grads_list[1]
    for grad in grads_list[2:]:
        total += grad
    total *= 1.0 / len(grads_list)
    return total
