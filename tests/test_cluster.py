import numpy as np
import pytest

from mtlab.optlab import (
    ClusterConfig,
    ClusterError,
    OptimizerConfig,
    SurrogateConfig,
    SurrogateModel,
    calibrated_cluster_config,
    simulate_cluster,
    train,
)
from mtlab.synth import toy_lm_stream

CFG = SurrogateConfig(vocab_size=24, embed_dim=4, hidden_dim=8)


@pytest.fixture(scope="module")
def data():
    return toy_lm_stream(800, 24, seed=3), toy_lm_stream(300, 24, seed=4)


def fresh_model():
    return SurrogateModel(CFG, seed=9)


def test_async_requires_two_workers():
    with pytest.raises(ClusterError):
        ClusterConfig(1, "async")


def test_unknown_mode_rejected():
    with pytest.raises(ClusterError):
        ClusterConfig(2, "ring")


@pytest.mark.parametrize("setting, value", [
    ("per_batch_compute_time", 0.0), ("per_batch_compute_time", -1.0),
    ("per_batch_compute_time", float("inf")), ("per_batch_compute_time", float("nan")),
    ("sync_overhead_per_batch", -0.5), ("sync_overhead_per_batch", float("inf")),
    ("async_comm_time", float("nan")), ("async_comm_time", -1.0),
])
def test_timings_must_be_finite_and_in_range(setting, value):
    with pytest.raises(ClusterError, match=setting):
        ClusterConfig(2, "sync", **{setting: value})


def test_calibration_needs_an_iteration_per_epoch():
    with pytest.raises(ClusterError, match="iterations_per_epoch"):
        calibrated_cluster_config("sync", 2, iterations_per_epoch=0)


def test_zero_overheads_are_allowed():
    ClusterConfig(2, "async", sync_overhead_per_batch=0.0, async_comm_time=0.0)


def test_sync_equals_sequential_accumulation(data):
    train_ids, val_ids = data
    model_a = fresh_model()
    trace_a = simulate_cluster(model_a, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                               ClusterConfig(4, "sync", sync_overhead_per_batch=0.0),
                               epochs=3, batch_size=16, seed=2)
    model_b = fresh_model()
    trace_b = train(model_b, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                    epochs=3, batch_size=16, seed=2, accum_steps=4)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name], model_b.params[name])
    assert [r.val_ppl for r in trace_a.rows] == [r.val_ppl for r in trace_b.rows]
    assert [r.iterations for r in trace_a.rows] == [r.iterations for r in trace_b.rows]


def test_single_trainer_async_equals_sequential_sgd(data):
    train_ids, val_ids = data
    model_a = fresh_model()
    trace_a = simulate_cluster(model_a, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                               ClusterConfig(2, "async", async_warmup_iterations=0),
                               epochs=3, batch_size=16, seed=2)
    model_b = fresh_model()
    trace_b = train(model_b, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                    epochs=3, batch_size=16, seed=2)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name], model_b.params[name])
    assert [r.val_ppl for r in trace_a.rows] == [r.val_ppl for r in trace_b.rows]
    assert trace_a.max_staleness == 0


def test_simulation_determinism(data):
    train_ids, val_ids = data
    traces = []
    for _ in range(2):
        model = fresh_model()
        traces.append(simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                                       ClusterConfig(5, "async", async_warmup_iterations=20),
                                       epochs=2, batch_size=16, seed=6))
    assert traces[0].rows == traces[1].rows
    assert traces[0].max_staleness == traces[1].max_staleness


def test_async_staleness_bounded(data):
    train_ids, val_ids = data
    for workers in (3, 5, 8):
        model = fresh_model()
        trace = simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                                 ClusterConfig(workers, "async", async_warmup_iterations=0),
                                 epochs=1, batch_size=16, seed=6)
        assert trace.max_staleness <= workers - 2


def test_async_warmup_limits_early_staleness(data):
    train_ids, val_ids = data
    model = fresh_model()
    # warmup longer than the whole run: single trainer throughout
    trace = simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                             ClusterConfig(6, "async", async_warmup_iterations=10 ** 6),
                             epochs=1, batch_size=16, seed=6)
    assert trace.max_staleness == 0


def test_wall_clock_timing_formulas(data):
    train_ids, val_ids = data
    # 800 tokens -> 799 bigrams -> 50 batches of 16 per epoch (last partial)
    cluster = ClusterConfig(4, "sync", per_batch_compute_time=2.0, sync_overhead_per_batch=0.25)
    model = fresh_model()
    trace = simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                             cluster, epochs=1, batch_size=16, seed=2)
    # 13 rounds: 12 full (2 + 4*0.25) + 1 partial of 2 batches (2 + 2*0.25)
    assert trace.rows[0].sim_seconds == pytest.approx(12 * 3.0 + 2.5)

    cluster = ClusterConfig(3, "async", per_batch_compute_time=2.0, async_comm_time=0.5,
                            async_warmup_iterations=0)
    model = fresh_model()
    trace = simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                             cluster, epochs=1, batch_size=16, seed=2)
    # 50 batches over 2 trainers -> 25 cycles of 2.5s each
    assert trace.rows[0].sim_seconds == pytest.approx(25 * 2.5)


def test_first_epoch_quality_ordering_under_warmup():
    # reported pattern: single < async < sync perplexity after one epoch
    train_ids = toy_lm_stream(2001, 64, seed=3, noise=0.1)
    val_ids = toy_lm_stream(2000, 64, seed=4, noise=0.1)
    cfg = SurrogateConfig(64, 16, 32)
    opt = OptimizerConfig("sgd_decay")

    model = SurrogateModel(cfg, seed=9)
    single = train(model, train_ids, val_ids, opt, epochs=1, batch_size=8, seed=2).rows[0].val_ppl
    model = SurrogateModel(cfg, seed=9)
    async_ppl = simulate_cluster(model, train_ids, val_ids, opt,
                                 ClusterConfig(4, "async", async_warmup_iterations=100),
                                 epochs=1, batch_size=8, seed=2).rows[0].val_ppl
    model = SurrogateModel(cfg, seed=9)
    sync_ppl = simulate_cluster(model, train_ids, val_ids, opt, ClusterConfig(4, "sync"),
                                epochs=1, batch_size=8, seed=2).rows[0].val_ppl
    assert single < async_ppl < sync_ppl


def test_calibrated_timing_reproduces_reported_table():
    reported = {
        ("sync", 2): 12660.0, ("async", 2): 21120.0,
        ("sync", 4): 8040.0, ("async", 4): 7500.0,
        ("sync", 6): 5940.0, ("async", 6): 4560.0,
        ("sync", 8): 4980.0, ("async", 8): 3360.0,
    }
    iterations = 840
    train_ids = toy_lm_stream(iterations * 4 + 1, 24, seed=3)
    val_ids = toy_lm_stream(120, 24, seed=4)
    for (mode, workers), expected in reported.items():
        cluster = calibrated_cluster_config(mode, workers, 22260.0, iterations)
        model = fresh_model()
        trace = simulate_cluster(model, train_ids, val_ids, OptimizerConfig("sgd_decay"),
                                 cluster, epochs=1, batch_size=4, seed=2)
        simulated = trace.rows[0].sim_seconds
        assert abs(simulated - expected) / expected < 0.15, (mode, workers, simulated)
