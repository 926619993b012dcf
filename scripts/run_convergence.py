#!/usr/bin/env python3
"""Optimizer comparison: one validation-perplexity trace CSV per optimizer.

An alias of `mtlab experiment convergence`, which also writes a manifest.json.
Usage: python scripts/run_convergence.py [--epochs 70] [--out-dir runs/convergence]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mtlab.cli import main

if __name__ == "__main__":
    sys.exit(main(["--out-dir", "runs/convergence", "experiment", "convergence", *sys.argv[1:]]))
