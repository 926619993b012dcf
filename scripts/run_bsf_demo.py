#!/usr/bin/env python3
"""Business-sensitivity demo: embeddings, lexicon, classifiers, flip report.

An alias of `mtlab experiment bsf-demo`, which also writes a manifest.json.
Usage: python scripts/run_bsf_demo.py [--out-dir runs/bsf-demo]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mtlab.cli import main

if __name__ == "__main__":
    sys.exit(main(["--out-dir", "runs/bsf-demo", "experiment", "bsf-demo", *sys.argv[1:]]))
