"""Print every workload's end-to-end metrics, and with --trace the per-layer
metrics and the tracing overhead, by running perfbench/run.py once per
workload and mode.

Run from the repository root:

    python3 perfbench/report.py --seed 1 --seconds 20            # untraced
    python3 perfbench/report.py --seed 1 --seconds 20 --trace    # both runs

Tracing overhead is the traced run's end-to-end figure minus the untraced
one, given also as a share of the untraced figure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true", help="also run traced")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    machine_shown = False
    for workload in args.workload or WORKLOADS:
        result, detail = run_once(workload, args.seed, args.seconds, 0)
        if not machine_shown:
            print("machine:", json.dumps(detail["machine"]))
            machine_shown = True
        print(f"\n== {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={_fmt(detail['fail_ratio'])} "
              f"rounds={detail['rounds']}")
        for name, unit, better, bound in END_TO_END:
            s = detail["summary"][name]
            spread = f" q1 {_fmt(s['q1'])} q3 {_fmt(s['q3'])}" if "q1" in s else ""
            print(f"  {name:<14} {_fmt(s['value']):>12} {unit:<6} ({better} is better, bound "
                  f"{bound}){spread} n={s['n']}")
        for name, s in detail["named"].items():
            shown = _fmt(s["value"]) + f" {s['unit']} n={s['n']}" if isinstance(s, dict) else _fmt(s)
            print(f"    {name} = {shown}")
        if not args.trace:
            continue
        traced, tdetail = run_once(workload, args.seed, args.seconds, 1)
        print(f"  traced run: correct={traced['correct']} spans={tdetail['span_count']}")
        for name, _, _, _ in END_TO_END:
            if name in ("setup_s", "ok_ratio"):
                continue
            base, with_trace = detail["summary"][name]["value"], tdetail["summary"][name]["value"]
            print(f"  overhead {name:<14} {_fmt(with_trace - base):>12} "
                  f"({100.0 * (with_trace - base) / base:+.1f}%)")
        for name, unit, _ in PER_LAYER:
            value = traced["metrics"][name]["value"]
            if value:
                print(f"  {name:<40} {_fmt(value):>12} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
