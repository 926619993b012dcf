"""Smoke runs of the experiment scripts on tiny settings."""

import json
import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
TRACE_HEADER = "epoch,iterations,sim_seconds,val_ppl,lr"


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_run_convergence_short(tmp_path):
    result = run_script("run_convergence.py", "--epochs", 2, "--out-dir", tmp_path)
    assert result.returncode == 0, result.stderr
    for kind in ("sgd_decay", "adam", "adagrad", "adadelta"):
        lines = (tmp_path / f"trace-{kind}.csv").read_text().splitlines()
        assert lines[0] == TRACE_HEADER and len(lines) == 3


def test_run_corpus_size_short(tmp_path):
    result = run_script("run_corpus_size.py", "--sizes", "500,1000", "--budget", 100,
                        "--checkpoint-every", 50, "--out-dir", tmp_path)
    assert result.returncode == 0, result.stderr
    for size in (500, 1000):
        lines = (tmp_path / f"sweep-{size}.csv").read_text().splitlines()
        assert lines[0] == TRACE_HEADER and len(lines) == 3


def test_run_corpus_size_rejects_negative_or_repeated_sizes(tmp_path):
    for sizes in ("500,-100", "500,500"):
        result = run_script("run_corpus_size.py", "--sizes", sizes, "--out-dir", tmp_path)
        assert result.returncode == 2
        assert "error: argument --sizes: size list" in result.stderr
    assert not list(tmp_path.iterdir())


def test_run_convergence_bad_count_exits_1_without_traceback(tmp_path):
    result = run_script("run_convergence.py", "--epochs", 0, "--out-dir", tmp_path)
    assert result.returncode == 1
    assert result.stderr == "error: epochs must be at least 1, got 0\n"
    assert "Traceback" not in result.stderr and not list(tmp_path.iterdir())


def test_run_cluster_timing(tmp_path):
    result = run_script("run_cluster_timing.py", "--out-dir", tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "manifest.json").exists()
    lines = result.stdout.splitlines()
    assert lines[0] == "single worker (calibration): 6h11m"
    rows = [line.split() for line in lines[2:10]]
    assert [(int(r[0]), r[1]) for r in rows] == [(w, m) for w in (2, 4, 6, 8)
                                                 for m in ("sync", "async")]
    assert all(abs(float(r[4].rstrip("%"))) < 15.0 for r in rows)
    assert lines[-1].startswith("worst absolute error: ")


def test_run_bsf_demo(tmp_path):
    result = run_script("run_bsf_demo.py", "--out-dir", tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "manifest.json").exists()
    out = result.stdout
    assert "== lexicon expansion ==" in out and "[de] macro-F1" in out
    flagged = out.split("flagged: ")[1].splitlines()[0]
    planted = out.split("planted flips: ")[1].splitlines()[0]
    flagged_ids = set(json.loads(flagged[flagged.index("["):]))
    assert flagged_ids and flagged_ids <= set(json.loads(planted))
