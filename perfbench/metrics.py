"""Workload and metric definitions, read from BENCHMARK.json at the repository root.

End-to-end metrics are emitted by untraced runs of every workload, each
with the meaning its workload gives it (see README.md).  Per-layer metrics
are emitted by traced runs; a workload that bypasses a layer reports 0.
"""

from __future__ import annotations

import json
import os

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")

with open(BENCHMARK_JSON, encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [(m["name"], m["unit"], m["better"], m["bound"]) for m in _SPEC["end_to_end"]]
# name, unit, better
PER_LAYER = [(m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"]]
