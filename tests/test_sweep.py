import pytest

from mtlab.optlab import OptimizerConfig, SurrogateConfig, TrainingError, corpus_size_sweep
from mtlab.synth import toy_lm_stream

CFG = SurrogateConfig(vocab_size=32, embed_dim=8, hidden_dim=16)


def nested_streams(sizes, seed=3):
    full = toy_lm_stream(max(sizes), 32, seed=seed)
    return [(str(n), full[:n]) for n in sizes]


@pytest.fixture(scope="module")
def val_ids():
    return toy_lm_stream(2000, 32, seed=4)


def test_traces_aligned_by_iterations(val_ids):
    traces = corpus_size_sweep(CFG, nested_streams([800, 3200]), val_ids,
                               OptimizerConfig("sgd_decay"), iteration_budget=400,
                               batch_size=8, seed=5, checkpoint_every=100)
    for trace in traces.values():
        assert [r.iterations for r in trace.rows] == [100, 200, 300, 400]


def test_equal_sizes_identical_traces(val_ids):
    streams = nested_streams([1600, 1600])
    streams = [("a", streams[0][1]), ("b", streams[1][1])]
    traces = corpus_size_sweep(CFG, streams, val_ids, OptimizerConfig("sgd_decay"),
                               iteration_budget=300, batch_size=8, seed=5)
    assert traces["a"].rows == traces["b"].rows


def test_smaller_corpus_ahead_early_with_decay(val_ids):
    # the epoch-based decay schedule kicks in sooner on the small corpus
    traces = corpus_size_sweep(CFG, nested_streams([500, 4000]), val_ids,
                               OptimizerConfig("sgd_decay"), iteration_budget=1200,
                               batch_size=8, seed=5, checkpoint_every=1200)
    assert traces["500"].rows[-1].val_ppl < traces["4000"].rows[-1].val_ppl


def test_larger_corpus_wins_with_large_budget(val_ids):
    traces = corpus_size_sweep(CFG, nested_streams([500, 8000]), val_ids,
                               OptimizerConfig("sgd_decay"), iteration_budget=8000,
                               batch_size=8, seed=5, checkpoint_every=8000)
    small = traces["500"].rows[-1].val_ppl
    large = traces["8000"].rows[-1].val_ppl
    assert large <= small * 1.02  # equality tolerance declared by this test


def test_repeated_label_rejected(val_ids):
    # the labels key the result, so a repeated one would drop a curve
    with pytest.raises(TrainingError, match="labels must be distinct"):
        corpus_size_sweep(CFG, nested_streams([300, 300]), val_ids, OptimizerConfig("sgd_decay"),
                          iteration_budget=10, batch_size=8, seed=5)
