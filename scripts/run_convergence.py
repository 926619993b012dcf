#!/usr/bin/env python3
"""Optimizer comparison on the bundled toy language-model corpus.

Trains the surrogate model with SGD+decay, Adam, Adagrad and Adadelta on
identical data and seeds, writing one trace CSV per optimizer plus a
summary table.  The CSVs plot directly as validation-perplexity curves.

Usage: python scripts/run_convergence.py [--out-dir runs/convergence]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mtlab.optlab import OptimizerConfig, train
from mtlab.presets import CONVERGENCE, convergence_data, convergence_model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/convergence")
    parser.add_argument("--epochs", type=int, default=CONVERGENCE["epochs"])
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    train_ids, val_ids = convergence_data()
    summary = {}
    for kind in ("sgd_decay", "adam", "adagrad", "adadelta"):
        model = convergence_model()
        trace = train(model, train_ids, val_ids, OptimizerConfig(kind),
                      epochs=args.epochs, batch_size=CONVERGENCE["batch_size"],
                      seed=CONVERGENCE["seed"])
        path = os.path.join(args.out_dir, f"trace-{kind}.csv")
        trace.to_csv(path)
        summary[kind] = trace
        print(f"{kind:>10}: wrote {path}")

    quarter = max(1, args.epochs // 4)
    print(f"\n{'optimizer':>10} {'ppl@' + str(quarter):>10} {'final ppl':>10} {'final lr':>10}")
    for kind, trace in summary.items():
        print(f"{kind:>10} {trace.ppl_at_epoch(quarter):>10.3f} "
              f"{trace.final_ppl():>10.3f} {trace.rows[-1].lr:>10.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
