"""Run one workload: set-up repetitions, the timed closed loop, checks, result.

A workload module provides ``setup(seed, workdir) -> state`` and
``run_round(state, index, ctx) -> Round``.  A round is a fixed amount of
work; the loop runs whole rounds, one after another from one caller, until
``seconds`` have passed.  Operations inside a round (a document, a CLI
command, a training job) are timed one by one and checked.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from meter import Meter
from metrics import END_TO_END, PER_LAYER

__all__ = ["Context", "Round", "run_workload", "quartiles", "BLAS_VARS"]

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3


@dataclass
class Round:
    items: int                 # the workload's unit of work (sentences, lines, examples)
    seconds: float             # the round's time on the corrected clock
    raw_seconds: float         # the same time on the plain wall clock
    classes: dict = field(default_factory=dict)   # class -> [items, seconds]


class Context:
    """What a round needs besides its state: the clock every timing uses,
    the tracer (or None), the operation bookkeeping, golden values and the
    latency samples."""

    def __init__(self, clock, tracer, goldens: dict):
        self.clock = clock
        self.tracer = tracer
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.latencies: list[float] = []
        self.counts: Counter = Counter()

    def stopwatch(self):
        """A function returning (corrected, raw wall) seconds since this call."""
        corrected, raw = self.clock(), time.perf_counter()
        return lambda: (self.clock() - corrected, time.perf_counter() - raw)

    def set_op(self, tag: str | None = None) -> None:
        if self.tracer is not None:
            self.tracer.op = self.attempted
            if tag is not None:
                self.tracer.tag = tag

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def record(self, op: str, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failed += 1
            self.failures[f"{op}: {failure}"[:300]] += 1

    def attempt(self, op: str, fn, *args):
        """Run one operation; an exception or a returned failure string fails it."""
        try:
            failure = fn(*args)
        except Exception as exc:  # the benchmark must keep running and report it
            failure = f"{type(exc).__name__}: {exc} @ {traceback.extract_tb(exc.__traceback__)[-1].name}"
        self.record(op, failure)
        return failure


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _summary(values: list[float], unit: str) -> dict:
    q1, med, q3 = quartiles(values)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def machine(seed: int) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
    }


def _per_layer(tracer, ctx: Context, traced_rate: float, window: float,
               window_start: float) -> dict:
    agg = tracer.aggregate()
    counts = Counter(tracer.counts)
    counts.update(ctx.counts)
    scans = counts.pop("entities.scans", 0)
    if scans:
        counts["entities.mismatched_pairs"] /= scans
    covered = tracer.top_level_seconds(window_start)
    derived = {
        "bench.traced_items_per_s": traced_rate,
        "bench.covered_ratio": covered / window,
        "bench.loop_s": window - covered,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name in counts:
            value = counts[name]
        else:
            span, _, measure = name.rpartition(".")
            value = agg.get(span, {}).get(measure, 0)
        out[name] = {"value": value, "unit": unit}
    return out, agg


def run_workload(module, name: str, seed: int, seconds: float, trace: bool,
                 goldens: dict, out_root: str, meter: Meter,
                 import_s: float) -> tuple[dict, dict]:
    """Returns (final result line, detail record).  ``meter`` is running and
    is stopped here; ``import_s`` is the workload's import time on it."""
    clock = meter.now
    tracer = restore = None
    workdir = os.path.join(out_root, f"work-{name}-{os.getpid()}")
    try:
        meter.use(module.REFERENCE)
        if trace:
            from spans import Tracer, install
            tracer = Tracer(clock)
            restore = install(tracer)
        setup_times = []
        for rep in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            last = rep == SETUP_REPS - 1
            if tracer is not None and last:
                # the final set-up is traced, tagged "setup", so set-up-only
                # layers (classifier training) still get a span; coverage
                # counts only spans that start in the timed window
                tracer.active, tracer.op, tracer.tag = True, -1, "setup"
            start = clock()
            state = module.setup(seed, workdir)
            setup_times.append(clock() - start)
        ctx = Context(clock, tracer, goldens)
        if tracer is not None:
            tracer.tag = ""
        rounds: list[Round] = []
        started, corrected_started = time.perf_counter(), clock()
        while True:
            rounds.append(module.run_round(state, len(rounds), ctx))
            if time.perf_counter() - started >= seconds:
                break
        window = clock() - corrected_started
        contention = (time.perf_counter() - started) / window
        if tracer is not None:
            tracer.active = False
        extra = module.finish(state, ctx) if hasattr(module, "finish") else {}
    finally:
        meter.stop()
        if restore is not None:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)

    rates = [r.items / r.seconds for r in rounds]
    raw_rates = [r.items / r.raw_seconds for r in rounds]
    wall = sum(r.seconds for r in rounds)
    latencies_ms = [x * 1000.0 for x in ctx.latencies]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p90 = statistics.quantiles(latencies_ms, n=10)[8] if len(latencies_ms) > 1 else latencies_ms[0]
    summary = {
        "setup_s": _summary([import_s + s for s in setup_times], "s"),
        "items_per_s": _summary(rates, "1/s"),
        "op_p50_ms": _summary(latencies_ms, "ms"),
        "op_p90_ms": {"value": p90, "n": len(latencies_ms),
                      "beyond": sum(1 for x in latencies_ms if x > p90), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "n": 1, "unit": "MB"},
        "ok_ratio": {"value": 1.0 - ctx.failed / ctx.attempted, "n": ctx.attempted, "unit": "ratio"},
    }
    classes = {}
    for r in rounds:
        for cls, (items, secs) in r.classes.items():
            if secs:
                classes.setdefault(cls, []).append(items / secs)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine(seed),
        "import_s": import_s,
        "meter": {"kernel": meter.kind, "samples": meter.samples,
                  "kernel_s": meter.kernel_s, "contention": contention},
        "rounds": len(rounds),
        "round_rates": rates,
        "round_seconds": [r.seconds for r in rounds],
        "round_raw_seconds": [r.raw_seconds for r in rounds],
        "raw_items_per_s": _summary(raw_rates, "1/s"),
        "wall_s": wall,
        "window_s": window,
        "fail_ratio": ctx.failed / ctx.attempted,
        "failures": dict(ctx.failures.most_common(20)),
        "summary": summary,
        "named": {**module.named_metrics(summary, {c: _summary(v, "1/s") for c, v in classes.items()}),
                  **extra},
    }
    if trace:
        metrics, agg = _per_layer(tracer, ctx, statistics.median(rates), window, corrected_started)
        detail["spans"] = {k: agg[k] for k in sorted(agg)}
        detail["span_count"] = len(tracer)
        tracer.write(os.path.join(out_root, f"spans-{name}.tsv"))
    else:
        metrics = {n: {"value": summary[n]["value"], "unit": u} for n, u, _, _ in END_TO_END}
    result = {"correct": ctx.failed == 0, "attempted": ctx.attempted, "failed": ctx.failed,
              "metrics": metrics}
    return result, detail


def write_detail(detail: dict, out_root: str) -> str:
    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    path = os.path.join(out_root, "results",
                        f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    return path
