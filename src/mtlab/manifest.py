"""Run manifests: enough resolved configuration to reproduce any CLI run."""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone

from . import __version__
from .corpus import write_lines

__all__ = ["file_digest", "write_manifest"]


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(
    out_dir: str,
    subcommand: str,
    config: dict,
    inputs: list[str],
    outputs: list[str],
    seed: int | None,
) -> str:
    """Write manifest.json next to the run's outputs; returns its path."""
    payload = {
        "subcommand": subcommand,
        "config": {k: v for k, v in config.items() if not k.startswith("_") and not callable(v)},
        "inputs": {os.path.basename(p): file_digest(p) for p in inputs if p and os.path.exists(p)},
        "outputs": [os.path.basename(p) for p in outputs],
        "seed": seed,
        "version": __version__,
        "written_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.json")
    write_lines([json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)], path)
    return path
