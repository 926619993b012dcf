"""Smoke runs of the experiment scripts on tiny settings."""

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
