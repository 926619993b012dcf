"""Run every workload once per seed and report each end-to-end metric's spread.

For each workload and metric it prints the median of the per-run values and
their interquartile range as a share of the median (the spread the bounds in
BENCHMARK.json are checked against), and writes every run's result line and
machine block to a JSON record.  Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 --out perfbench/records/steadiness.json

Runs are sequential, each in its own process, for BENCHMARK.json's
``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import BENCHMARK_JSON, END_TO_END, WORKLOADS  # noqa: E402


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range over the median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    record: dict = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(1, args.seeds + 1):
            started = time.time()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            lines = out.stdout.splitlines()
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])
            runs.append({"seed": seed, "elapsed_s": time.time() - started, "result": result,
                         "machine": detail["machine"], "contention": detail["meter"]["contention"],
                         "raw_items_per_s": detail["raw_items_per_s"]["value"]})
            print(workload, seed, f"{runs[-1]['elapsed_s']:.1f}s", result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        stats = {}
        for name, _, _, bound in END_TO_END:
            median, share = spread([r["result"]["metrics"][name]["value"] for r in runs])
            stats[name] = {"median": median, "spread": share, "bound": bound}
            print(f"  {workload} {name}: median {median:.6g} spread {share:.4f} "
                  f"(bound {bound}, third {bound / 3:.4f})", flush=True)
        record["workloads"][workload] = {"stats": stats, "runs": runs}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
