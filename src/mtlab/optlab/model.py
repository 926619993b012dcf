"""A tiny bigram neural language model with hand-derived gradients.

Stands in for a production translation network so optimizer and cluster
dynamics stay observable on a desk: embedding -> tanh hidden layer ->
softmax over next token.  Loss is mean negative log-likelihood; reported
perplexity is exp(loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rng import stream

__all__ = ["SurrogateConfig", "SurrogateModel", "check_gradients"]

PERPLEXITY_CHUNK = 8192   # tokens per partial mean; fixes the order perplexity sums in
GRADCHECK_FLOOR = 1e-4


@dataclass(frozen=True)
class SurrogateConfig:
    vocab_size: int = 200
    embed_dim: int = 16
    hidden_dim: int = 32

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


class SurrogateModel:
    def __init__(self, config: SurrogateConfig = SurrogateConfig(), seed: int = 0):
        self.config = config
        rng = stream(seed, "init")
        v, d, h = config.vocab_size, config.embed_dim, config.hidden_dim
        init = {
            "emb": rng.normal(0.0, 0.1, (v, d)),
            "w1": rng.normal(0.0, 1.0 / np.sqrt(d), (d, h)),
            "b1": np.zeros(h),
            "w2": rng.normal(0.0, 1.0 / np.sqrt(h), (h, v)),
            "b2": np.zeros(v),
        }
        # one float64 vector `theta`, blocks in sorted name order; `params` holds their views
        names = sorted(init)
        stops = np.cumsum([init[name].size for name in names]).tolist()
        self._layout = [(name, stop - init[name].size, stop, init[name].shape)
                        for name, stop in zip(names, stops)]
        self.theta = np.concatenate([init[name].ravel() for name in names])
        self.params: dict[str, np.ndarray] = self.views(self.theta)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter block's view into a vector laid out like `theta`."""
        return {name: vector[start:stop].reshape(shape)
                for name, start, stop, shape in self._layout}

    def _forward(self, inputs: np.ndarray):
        p = self.params
        e = p["emb"][inputs]
        a = e @ p["w1"] + p["b1"]
        z = np.tanh(a)
        logits = z @ p["w2"] + p["b2"]
        peak = logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(logits - peak).sum(axis=1, keepdims=True)) + peak
        logp = logits - log_z
        return e, z, logp

    def loss(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        _, _, logp = self._forward(inputs)
        return float(-logp[np.arange(len(targets)), targets].mean())

    def loss_and_grads(self, inputs: np.ndarray, targets: np.ndarray):
        """Mean NLL and a fresh gradient vector laid out like `theta`."""
        p = self.params
        batch = len(targets)
        e, z, logp = self._forward(inputs)
        loss = float(-logp[np.arange(batch), targets].mean())

        dlogits = np.exp(logp)
        dlogits[np.arange(batch), targets] -= 1.0
        dlogits /= batch
        dz = dlogits @ p["w2"].T
        da = (1.0 - z * z) * dz
        de = da @ p["w1"].T
        # fresh per call (callers hold several at once); every block but emb is overwritten
        grad = np.empty_like(self.theta)
        g = self.views(grad)
        g["emb"].fill(0.0)
        np.add.at(g["emb"], inputs, de)
        np.matmul(e.T, da, out=g["w1"])
        da.sum(axis=0, out=g["b1"])
        np.matmul(z.T, dlogits, out=g["w2"])
        dlogits.sum(axis=0, out=g["b2"])
        return loss, grad

    def perplexity(self, ids: np.ndarray) -> float:
        """exp(mean NLL) of a token stream under the bigram model.

        A bigram's log-probabilities depend only on its input token, so the
        forward pass runs once per distinct input and each position gathers
        its row.
        """
        ids = np.asarray(ids)
        if len(ids) < 2:
            raise ValueError("need at least two tokens to evaluate perplexity")
        distinct, rows = np.unique(ids[:-1], return_inverse=True)
        _, _, logp = self._forward(distinct)
        target_logp = logp[rows, ids[1:]]
        total = 0.0
        for start in range(0, len(target_logp), PERPLEXITY_CHUNK):
            chunk = target_logp[start : start + PERPLEXITY_CHUNK]
            total += float(-chunk.mean()) * len(chunk)
        return float(np.exp(total / len(target_logp)))


def check_gradients(
    model: SurrogateModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    n_samples: int = 200,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Worst relative error of analytic vs central-difference gradients.

    Coordinates are drawn uniformly over `theta`; the GRADCHECK_FLOOR keeps
    pure round-off noise on near-zero coordinates from registering (a
    planted wrong gradient still shows up as ~1.0).
    A NaN error is returned as soon as it occurs, so it fails any tolerance.
    Returns 0.0 on an empty sample set; raises ValueError on a negative
    `n_samples`, an empty batch or a `step` that is not finite and positive.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    if len(targets) == 0:
        raise ValueError("gradient check needs a non-empty batch")
    _, grad = model.loss_and_grads(inputs, targets)
    theta = model.theta
    rng = stream(seed, "gradcheck")
    worst = 0.0
    for index in rng.integers(0, theta.size, size=n_samples):
        original = theta[index]
        theta[index] = original + step
        plus = model.loss(inputs, targets)
        theta[index] = original - step
        minus = model.loss(inputs, targets)
        theta[index] = original
        fd = (plus - minus) / (2.0 * step)
        err = abs(grad[index] - fd) / max(abs(fd), GRADCHECK_FLOOR)
        if math.isnan(err):
            return err
        worst = max(worst, err)
    return worst
