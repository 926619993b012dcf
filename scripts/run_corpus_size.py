#!/usr/bin/env python3
"""Corpus-size learning curves, aligned by iteration count.

Nested subsets of one toy stream are trained for the same iteration
budget; the per-checkpoint CSVs show the small-corpora-win-early /
large-corpora-win-late crossover.

Usage: python scripts/run_corpus_size.py [--sizes 500,1000,2000,4000,8000]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mtlab.cli import parse_sizes
from mtlab.optlab import OptimizerConfig, SurrogateConfig, corpus_size_sweep
from mtlab.synth import toy_lm_stream


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=parse_sizes, default="500,1000,2000,4000,8000")
    parser.add_argument("--budget", type=int, default=8000)
    parser.add_argument("--checkpoint-every", type=int, default=500)
    parser.add_argument("--out-dir", default="runs/corpus-size")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    full = toy_lm_stream(max(args.sizes), 32, seed=3)
    val_ids = toy_lm_stream(3000, 32, seed=4)
    streams = [(str(size), full[:size]) for size in args.sizes]
    traces = corpus_size_sweep(SurrogateConfig(32, 8, 16), streams, val_ids,
                               OptimizerConfig("sgd_decay"), iteration_budget=args.budget,
                               batch_size=8, seed=5, checkpoint_every=args.checkpoint_every)

    for label, trace in traces.items():
        path = os.path.join(args.out_dir, f"sweep-{label}.csv")
        trace.to_csv(path)
    checkpoints = [row.iterations for row in next(iter(traces.values())).rows]
    header = "iterations " + " ".join(f"{label:>9}" for label in traces)
    print(header)
    for i, iteration in enumerate(checkpoints):
        cells = " ".join(f"{traces[label].rows[i].val_ppl:>9.3f}" for label in traces)
        print(f"{iteration:>10} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
