#!/usr/bin/env python3
"""Reproduce the sync/async wall-clock table with the calibrated simulation.

Calibrates the additive timing model so a single worker takes 6h11m per
epoch, then simulates both modes on 2..8 workers and prints simulated
epoch times next to the reported ones.

Usage: python scripts/run_cluster_timing.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mtlab.cli import format_duration
from mtlab.presets import TIMING, timing_table


def main() -> int:
    print(f"single worker (calibration): {format_duration(TIMING['single_epoch_seconds'])}")
    print(f"{'workers':>8} {'mode':>6} {'simulated':>10} {'reported':>9} {'error':>7}")
    worst = 0.0
    for mode, workers, simulated, reported in timing_table():
        err = (simulated - reported) / reported
        worst = max(worst, abs(err))
        print(f"{workers:>8} {mode:>6} {format_duration(simulated):>10} "
              f"{format_duration(reported):>9} {err:>+7.1%}")
    print(f"\nworst absolute error: {worst:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
