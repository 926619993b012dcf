"""Golden traces for the optlab training loop.

Pins per-row (epoch, iterations, sim_seconds, val_ppl, lr), `divergent`
and `max_staleness` for small runs of `train`, `simulate_cluster` and
`corpus_size_sweep`, so a refactor of the loop cannot change what it
computes.  Regenerate only from a commit whose traces are known good:

    PYTHONPATH=src python tests/test_optlab_golden.py
"""

import json
import math
import os

import pytest

from mtlab.optlab import (
    ClusterConfig,
    OptimizerConfig,
    SurrogateConfig,
    SurrogateModel,
    calibrated_cluster_config,
    corpus_size_sweep,
    optimizers,
    simulate_cluster,
    train,
)
from mtlab.synth import toy_lm_stream

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "optlab_traces.json")
REL_TOL = 1e-9
CFG = SurrogateConfig(24, 4, 8)
COMMON = dict(epochs=3, batch_size=16, seed=2)


def _data():
    return toy_lm_stream(800, 24, seed=3), toy_lm_stream(300, 24, seed=4)


def _train(kind, **kwargs):
    train_ids, val_ids = _data()
    return train(SurrogateModel(CFG, seed=9), train_ids, val_ids, OptimizerConfig(kind),
                 **COMMON, **kwargs)


def _divergent():
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(optimizers.DEFAULT_LR, "sgd_decay", 50.0)
        return _train("sgd_decay")


def _simulate(cluster):
    train_ids, val_ids = _data()
    return simulate_cluster(SurrogateModel(CFG, seed=9), train_ids, val_ids,
                            OptimizerConfig("sgd_decay"), cluster, **COMMON)


def _runs():
    """name -> zero-argument callable returning a trace or a {label: trace} dict."""
    runs = {f"train.{kind}": (lambda kind=kind: _train(kind))
            for kind in ("sgd_decay", "adam", "adagrad", "adadelta")}
    runs["train.sgd_decay_accum4"] = lambda: _train("sgd_decay", accum_steps=4)
    runs["train.adam_accum3"] = lambda: _train("adam", accum_steps=3)
    runs["train.divergent"] = _divergent
    runs["sync.k4"] = lambda: _simulate(calibrated_cluster_config("sync", 4, 1000.0, 50))
    runs["async.k4_warmup"] = lambda: _simulate(
        calibrated_cluster_config("async", 4, 1000.0, 50, warmup_iterations=20))
    runs["async.k5"] = lambda: _simulate(ClusterConfig(5, "async", per_batch_compute_time=2.0,
                                                       async_comm_time=0.5,
                                                       async_warmup_iterations=0))

    def sweep():
        full = toy_lm_stream(800, 24, seed=3)
        _, val_ids = _data()
        return corpus_size_sweep(CFG, [("300", full[:300]), ("800", full)], val_ids,
                                 OptimizerConfig("sgd_decay"), iteration_budget=130,
                                 batch_size=8, seed=5, checkpoint_every=50)

    runs["sweep"] = sweep
    return runs


def _record(trace):
    return {
        "rows": [[r.epoch, r.iterations, r.sim_seconds, r.val_ppl, r.lr] for r in trace.rows],
        "divergent": trace.divergent,
        "max_staleness": trace.max_staleness,
    }


def _collect(fn):
    result = fn()
    if isinstance(result, dict):
        return {label: _record(trace) for label, trace in result.items()}
    return _record(result)


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL), (where, got, want)
    else:
        assert got == want, (where, got, want)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(_runs())


@pytest.mark.parametrize("name", sorted(_runs()))
def test_trace_matches_golden(golden, name):
    _assert_close(_collect(_runs()[name]), golden[name], name)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: _collect(fn) for name, fn in sorted(_runs().items())}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
