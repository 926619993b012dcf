import math

import numpy as np
import pytest

from mtlab.optlab import (
    DimensionError,
    NumericError,
    Optimizer,
    OptimizerConfig,
    accumulate_gradients,
)
from mtlab.optlab.optimizers import DEFAULT_LR


def scalar_params(value=1.0):
    return np.array([value])


def test_default_learning_rates():
    assert Optimizer(OptimizerConfig("sgd_decay")).current_lr == 1.0
    assert Optimizer(OptimizerConfig("adam")).current_lr == 0.0002
    assert Optimizer(OptimizerConfig("adagrad")).current_lr == 0.1
    assert Optimizer(OptimizerConfig("adadelta")).current_lr == 1.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        OptimizerConfig("rmsprop")


def test_sgd_scalar_step():
    params = scalar_params(1.0)
    opt = Optimizer(OptimizerConfig("sgd_decay"))
    opt.step(params, np.array([0.5]))
    assert params[0] == pytest.approx(0.5)


def test_adam_first_step_moves_by_lr():
    # bias correction makes the first step ~lr regardless of gradient scale
    for g in (1.0, 100.0):
        params = scalar_params(1.0)
        opt = Optimizer(OptimizerConfig("adam"))
        opt.step(params, np.array([g]))
        assert params[0] == pytest.approx(1.0 - 0.0002, abs=1e-9)
    # for tiny gradients epsilon shaves the step by ~lr*eps/|g|
    params = scalar_params(1.0)
    opt = Optimizer(OptimizerConfig("adam"))
    opt.step(params, np.array([1e-4]))
    assert params[0] == pytest.approx(1.0 - 0.0002, abs=1e-7)


def test_adagrad_accumulates_squared_gradients():
    params = scalar_params(0.0)
    opt = Optimizer(OptimizerConfig("adagrad"))
    opt.step(params, np.array([3.0]))
    first = -0.1 * 3.0 / math.sqrt(9.0 + 1e-10)
    assert params[0] == pytest.approx(first, rel=1e-12)
    opt.step(params, np.array([3.0]))
    second = first - 0.1 * 3.0 / math.sqrt(18.0 + 1e-10)
    assert params[0] == pytest.approx(second, rel=1e-12)


def test_zero_gradient_fixes_parameters():
    for kind in ("sgd_decay", "adam", "adagrad", "adadelta"):
        params = scalar_params(2.5)
        opt = Optimizer(OptimizerConfig(kind))
        for _ in range(3):
            opt.step(params, np.array([0.0]))
        assert params[0] == 2.5


def test_shape_mismatch_raises():
    opt = Optimizer(OptimizerConfig("sgd_decay"))
    with pytest.raises(DimensionError, match=r"\(4,\) does not match \(3,\)"):
        opt.step(np.zeros(3), np.zeros(4))


def test_non_finite_gradient_names_flat_index():
    opt = Optimizer(OptimizerConfig("adam"))
    with pytest.raises(NumericError, match="flat index 1$"):
        opt.step(np.zeros(3), np.array([1.0, np.nan, np.inf]))


class TestDecaySchedule:
    def test_improving_ppl_keeps_lr_through_epoch_9(self):
        opt = Optimizer(OptimizerConfig("sgd_decay"))
        for epoch in range(1, 10):
            lr = opt.end_of_epoch(epoch, 10.0 - epoch)
        assert lr == 1.0

    def test_twenty_improving_epochs_decay_eleven_times(self):
        opt = Optimizer(OptimizerConfig("sgd_decay"))
        lrs = [opt.end_of_epoch(epoch, 100.0 - epoch) for epoch in range(1, 21)]
        assert lrs[:9] == [1.0] * 9
        assert lrs[-1] == pytest.approx(0.7 ** 11, abs=1e-12)

    def test_non_decreasing_ppl_triggers_decay(self):
        opt = Optimizer(OptimizerConfig("sgd_decay"))
        opt.end_of_epoch(3, 2.40)
        lr = opt.end_of_epoch(4, 2.50)
        assert lr == pytest.approx(0.7)

    def test_equal_ppl_counts_as_no_improvement(self):
        opt = Optimizer(OptimizerConfig("sgd_decay"))
        opt.end_of_epoch(1, 2.0)
        assert opt.end_of_epoch(2, 2.0) == pytest.approx(0.7)

    def test_decay_fires_at_most_once_per_boundary(self):
        opt = Optimizer(OptimizerConfig("sgd_decay"))
        opt.end_of_epoch(10, 5.0)
        lr = opt.end_of_epoch(11, 9.0)  # both conditions hold at this boundary
        assert lr == pytest.approx(0.7 ** 2)

    def test_lr_sequence_non_increasing(self):
        opt = Optimizer(OptimizerConfig("sgd_decay"))
        rng = np.random.default_rng(0)
        lrs = [opt.end_of_epoch(e, float(rng.uniform(1, 10))) for e in range(1, 30)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_other_kinds_do_not_decay(self):
        opt = Optimizer(OptimizerConfig("adam"))
        assert opt.end_of_epoch(12, 5.0) == 0.0002
        assert opt.end_of_epoch(13, 9.0) == 0.0002


def _textbook_steps(kind, theta, grads):
    """Each rule written as its formula, one temporary per operation."""
    lr = DEFAULT_LR[kind]
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        if kind == "sgd_decay":
            theta -= lr * g
        elif kind == "adam":
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            theta -= lr * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        elif kind == "adagrad":
            m = m + g * g
            theta -= lr * g / np.sqrt(m + 1e-10)
        else:
            m = 0.9 * m + (1.0 - 0.9) * g * g
            delta = -np.sqrt(v + 1e-6) / np.sqrt(m + 1e-6) * g
            v = 0.9 * v + (1.0 - 0.9) * delta * delta
            theta += lr * delta
    return theta


@pytest.mark.parametrize("kind", ["sgd_decay", "adam", "adagrad", "adadelta"])
def test_in_place_step_is_bit_equal_to_formula(kind):
    # theta starts at zero so an update's last bit is not absorbed by theta's own
    rng = np.random.default_rng(3)
    theta = np.zeros(257)
    grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=257) for _ in range(6)]
    opt = Optimizer(OptimizerConfig(kind))
    got = theta.copy()
    for g in grads:
        opt.step(got, g)
    assert np.array_equal(got, _textbook_steps(kind, theta.copy(), grads))


def test_accumulate_gradients_means_in_order():
    a = np.array([1.0])
    b = np.array([2.0])
    c = np.array([6.0])
    out = accumulate_gradients([a, b, c])
    assert out[0] == pytest.approx(3.0)
    assert a[0] == 1.0  # inputs untouched


def test_accumulate_gradients_bit_equal_to_ordered_sum():
    rng = np.random.default_rng(4)
    grads = [rng.normal(size=101) for _ in range(5)]
    copies = [g.copy() for g in grads]
    out = accumulate_gradients(grads)
    assert np.array_equal(out, (((grads[0] + grads[1]) + grads[2]) + grads[3] + grads[4]) * 0.2)
    assert all(np.array_equal(g, c) for g, c in zip(grads, copies))
    assert not any(np.shares_memory(out, g) for g in grads)


def test_accumulate_empty_rejected():
    with pytest.raises(ValueError):
        accumulate_gradients([])
