"""Check that the corrected clock reads a known slowdown at full size.

Runs one workload in which every odd round does a fixed amount of extra
work before each operation, and compares the slowdown read on the corrected
clock with the one read on the plain wall clock.  Host speed drifts over
seconds, so the slowdown is taken per pair of neighbouring rounds (seconds
per item of round 2k+1 over round 2k) and the median over pairs is given.
The extra work comes in two kinds:

- ``cpu``: a fixed pure-Python loop, which leaves caches as they were;
- ``memory``: passes over a 64 MiB buffer, one byte per cache line, which
  also evict the program's data and the reference kernel's.

A faithful clock reads both slowdowns at the size the wall clock reads
them.  Run from the repository root:

    python3 perfbench/clock_check.py --workload text_pipeline --load memory --seconds 30

The last line of output is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

# extra work per operation, sized to slow each workload by roughly a quarter
# to a half: (pure-Python loop iterations, passes over the buffer)
EXTRA = {"text_pipeline": (40_000, 1), "corpus_build": (300_000, 6),
         "lm_train": (400_000, 6)}


def _cpu(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i
    return total


def _memory(buffer: bytearray, passes: int) -> int:
    return sum(len(buffer[i % 64::64]) for i in range(passes))


def check(workload: str, load: str, seed: int, seconds: float) -> dict:
    run.prepare()
    import harness
    iterations, passes = EXTRA[workload]
    buffer = bytearray(64 << 20) if load == "memory" else bytearray()
    extra = (lambda: _cpu(iterations)) if load == "cpu" else (lambda: _memory(buffer, passes))
    module = __import__(workload)
    run_round, attempt = module.run_round, harness.Context.attempt
    odd = [False]

    def alternating_round(state, index, ctx):
        odd[0] = index % 2 == 1
        return run_round(state, index, ctx)

    def loaded_attempt(self, op, fn, *args):
        def loaded(*a):
            extra()
            return fn(*a)
        return attempt(self, op, loaded if odd[0] else fn, *args)

    module.run_round, harness.Context.attempt = alternating_round, loaded_attempt
    result, detail = run.run(workload, seed, seconds, False)
    items = [rate * s for rate, s in zip(detail["round_rates"], detail["round_seconds"])]
    ratios = {}
    for clock in ("round_seconds", "round_raw_seconds"):
        per_item = [s / n for s, n in zip(detail[clock], items)]
        ratios[clock] = [per_item[i + 1] / per_item[i] for i in range(0, len(per_item) - 1, 2)]
    return {
        "workload": workload, "load": load, "seed": seed, "seconds": seconds,
        "correct": result["correct"], "pairs": len(ratios["round_seconds"]),
        "slowdown_corrected": statistics.median(ratios["round_seconds"]),
        "slowdown_raw": statistics.median(ratios["round_raw_seconds"]),
        "contention": detail["meter"]["contention"],
        "pair_ratios": ratios,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(EXTRA), required=True)
    parser.add_argument("--load", choices=("cpu", "memory"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    print(json.dumps(check(args.workload, args.load, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
