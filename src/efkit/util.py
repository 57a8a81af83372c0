"""Small shared helpers: seeded runs, digests and run manifests."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Per-run seeds from one master seed, stable across platforms."""
    return [int(s) for s in np.random.SeedSequence(master_seed).generate_state(count)]


def map_jobs(worker: Callable, tasks: Sequence, jobs: int) -> list:
    """worker applied to every task, results in task order; in a pool of
    jobs processes when jobs > 1 (worker and tasks must then pickle)."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return [worker(task) for task in tasks]
    import concurrent.futures  # only here, to keep `import efkit` light

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(
    manifest_path,
    command: str,
    config: dict,
    master_seed,
    inputs: list,
    outputs: list,
) -> None:
    """Record what produced a set of artifacts; same manifest content means
    byte-identical outputs."""
    from . import __version__

    payload = {
        "command": command,
        "config": config,
        "master_seed": master_seed,
        "tool_version": __version__,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(p): sha256_file(p) for p in outputs},
    }
    Path(manifest_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
