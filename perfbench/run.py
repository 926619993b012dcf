"""mtlab benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload text_pipeline --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the detail record (machine block, medians with
quartiles and sample counts, failures), which is also written to
``.bench_out/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from metrics import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".bench_out"
GOLDENS = os.path.join(HERE, "goldens.json")


def prepare() -> None:
    """Cap BLAS threads before numpy loads and put src/ and perfbench/ on the path."""
    if not os.path.isfile(os.path.join("src", "mtlab", "__init__.py")):
        raise SystemExit("perfbench: src/mtlab not found; run from the repository root")
    sys.path[:0] = [os.path.abspath("src"), HERE]
    from harness import BLAS_VARS   # imports no numpy
    for var in BLAS_VARS:
        os.environ[var] = "1"


def load_goldens(path: str = GOLDENS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool,
        goldens: dict | None = None) -> tuple[dict, dict]:
    from meter import Meter
    meter = Meter("python")
    meter.start()
    try:
        started = meter.now()
        module = importlib.import_module(workload)
        import_s = meter.now() - started
    except BaseException:
        meter.stop()
        raise
    from harness import run_workload, write_detail
    result, detail = run_workload(module, workload, seed, seconds, trace,
                                  load_goldens() if goldens is None else goldens, OUT_ROOT,
                                  meter, import_s)
    detail["result_file"] = write_detail(detail, OUT_ROOT)
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
