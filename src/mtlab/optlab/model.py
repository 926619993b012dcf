"""A tiny bigram neural language model with hand-derived gradients.

Stands in for a production translation network so optimizer and cluster
dynamics stay observable on a desk: embedding -> tanh hidden layer ->
softmax over next token.  Loss is mean negative log-likelihood; reported
perplexity is exp(loss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import stream

__all__ = ["SurrogateConfig", "SurrogateModel", "check_gradients"]

PERPLEXITY_CHUNK = 8192   # tokens scored per forward pass; bounds the logits' memory
GRADCHECK_FLOOR = 1e-4


@dataclass(frozen=True)
class SurrogateConfig:
    vocab_size: int = 200
    embed_dim: int = 16
    hidden_dim: int = 32


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
        self._layout = [(name, init[name].shape) for name in sorted(init)]
        self._splits = np.cumsum([init[name].size for name, _ in self._layout])[:-1]
        self.theta = np.concatenate([init[name].ravel() for name, _ in self._layout])
        self.params: dict[str, np.ndarray] = self.views(self.theta)

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter block's view into a vector laid out like `theta`."""
        return {name: block.reshape(shape)
                for (name, shape), block in zip(self._layout, np.split(vector, self._splits))}

    def _forward(self, inputs: np.ndarray):
        p = self.params
        e = p["emb"][inputs]
        a = e @ p["w1"] + p["b1"]
        z = np.tanh(a)
        logits = z @ p["w2"] + p["b2"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + logits.max(axis=1, keepdims=True)
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
        grad = np.zeros_like(self.theta)
        g = self.views(grad)
        np.add.at(g["emb"], inputs, de)
        np.matmul(e.T, da, out=g["w1"])
        da.sum(axis=0, out=g["b1"])
        np.matmul(z.T, dlogits, out=g["w2"])
        dlogits.sum(axis=0, out=g["b2"])
        return loss, grad

    def perplexity(self, ids: np.ndarray) -> float:
        """exp(mean NLL) of a token stream under the bigram model."""
        ids = np.asarray(ids)
        if len(ids) < 2:
            raise ValueError("need at least two tokens to evaluate perplexity")
        total, count = 0.0, 0
        for start in range(0, len(ids) - 1, PERPLEXITY_CHUNK):
            inputs = ids[start : start + PERPLEXITY_CHUNK]
            targets = ids[start + 1 : start + PERPLEXITY_CHUNK + 1]
            inputs = inputs[: len(targets)]
            total += self.loss(inputs, targets) * len(targets)
            count += len(targets)
        return float(np.exp(total / count))


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
    Returns 0.0 on an empty sample set; raises ValueError on an empty batch.
    """
    if len(targets) == 0:
        raise ValueError("gradient check needs a non-empty batch")
    _, grad = model.loss_and_grads(inputs, targets)
    theta = model.theta
    if n_samples <= 0:
        return 0.0
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
        worst = max(worst, err)
    return worst
