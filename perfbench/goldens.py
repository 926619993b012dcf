"""Regenerate perfbench/goldens.json from the program as it is now.

Run from the repository root, only when a change is meant to alter the
pinned outputs (and say so in the change):

    python3 perfbench/goldens.py

It records the corpus_build golden set's BPE merge-list and ner scan
digests, and every lm_train job's validation perplexities.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

PPL_REL_TOL = 1e-6


def main() -> int:
    run.prepare()
    import corpus_build
    import lm_train

    workdir = os.path.join(run.OUT_ROOT, f"goldens-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        golden = corpus_build.setup(0, workdir).sets[0]
        for _, _, argv, _ in corpus_build.commands(golden):
            if corpus_build.run_command(argv) != 0:
                raise SystemExit(f"command failed: {argv}")
        build = corpus_build.golden_digests(golden.out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    state = lm_train.setup(0, "")
    jobs = {job: lm_train.run_job(state, job)[0] for job in lm_train.JOBS}
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({"corpus_build": build,
                   "lm_train": {"ppl_rel_tol": PPL_REL_TOL, "jobs": jobs}},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
