"""Fast smoke test of the benchmark: every metric named in BENCHMARK.json is
emitted with its unit, and a corrupted golden fails operations.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import os
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import metrics  # noqa: E402
import run  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    run.prepare()
    import harness
    monkeypatch.setattr(harness, "SETUP_REPS", 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    expected = {
        0: {name: unit for name, unit, _, _ in metrics.END_TO_END},
        1: {name: unit for name, unit, _ in metrics.PER_LAYER},
    }
    for trace in (0, 1):
        result, detail = run.run(workload, seed=3, seconds=0.01, trace=bool(trace))
        assert result["correct"], detail["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        got = result["metrics"]
        assert set(got) == set(expected[trace])
        for name, unit in expected[trace].items():
            assert got[name]["unit"] == unit
            assert isinstance(got[name]["value"], (int, float))
        assert {"cpu", "nproc", "python", "numpy", "blas_threads", "seed"} <= set(detail["machine"])


@pytest.mark.parametrize("workload, corrupt", [
    ("lm_train", lambda g: g["lm_train"]["jobs"]["train.adam"].__setitem__(0, 1.0)),
    ("corpus_build", lambda g: g["corpus_build"].__setitem__("ner_scan_json", "0" * 64)),
])
def test_corrupted_golden_raises_fail_ratio(workload, corrupt):
    goldens = copy.deepcopy(run.load_goldens())
    corrupt(goldens)
    result, detail = run.run(workload, seed=3, seconds=0.01, trace=False, goldens=goldens)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["fail_ratio"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
