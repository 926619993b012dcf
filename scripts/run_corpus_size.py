#!/usr/bin/env python3
"""Corpus-size learning curves, aligned by iteration count.

An alias of `mtlab experiment corpus-size`, which also writes a manifest.json.
Usage: python scripts/run_corpus_size.py [--sizes 500,1000,2000,4000,8000]
       [--budget 8000] [--checkpoint-every 500] [--out-dir runs/corpus-size]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mtlab.cli import main

if __name__ == "__main__":
    sys.exit(main(["--out-dir", "runs/corpus-size", "experiment", "corpus-size", *sys.argv[1:]]))
