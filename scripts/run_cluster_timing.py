#!/usr/bin/env python3
"""The calibrated sync/async epoch-time table against the reported one.

An alias of `mtlab experiment cluster-timing`, which also writes a manifest.json.
Usage: python scripts/run_cluster_timing.py [--out-dir runs/cluster-timing]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mtlab.cli import main

if __name__ == "__main__":
    sys.exit(main(["--out-dir", "runs/cluster-timing", "experiment", "cluster-timing", *sys.argv[1:]]))
