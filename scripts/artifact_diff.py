"""Byte-for-byte comparison of the spaces and learned genomes two checkouts write.

    python3 scripts/artifact_diff.py --parent <checkout> --change <checkout>

For every learning workload of FULL and TOY in the change checkout's
bench/workloads.py, at seeds 0 and 1, runs the `gen-space` and `learn`
commands that workloads.run_learning runs, once with each checkout's efkit.
Each side runs in its own temporary directory under the same relative
paths, so the paths recorded in manifests match. Prints how many files it
compared and each file that differs or exists on one side only, with the
dotted key paths that differ in a JSON file, and exits 1 on any difference
or failed command. It imports the standard library and the change
checkout's bench modules only. The checkouts are read, never written:
neither this process nor the commands, run with -B, write a __pycache__
into them.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 1)
EFKIT = "import sys; from efkit.cli import main; sys.exit(main(sys.argv[1:]))"


def load_workloads(checkout: Path):
    """A checkout's bench/workloads.py, imported with its bench directory on
    sys.path for the benchmark modules it imports."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "bench"))
    import workloads

    return workloads


def commands(workloads) -> list[tuple[Path, list[str]]]:
    """(work directory, efkit argv) pairs in run order, every path relative
    to the side's root. The argv are run_learning's, built the same way."""
    out = []
    for table in ("FULL", "TOY"):
        for name, cfg in getattr(workloads, table).items():
            if not isinstance(cfg, workloads.LearningConfig):
                continue
            for seed in SEEDS:
                work = Path(table.lower(), name, f"seed{seed}")
                for spec in cfg.train + cfg.tests:
                    out.append((work, spec.argv(work / f"{spec.name}.space.txt", seed)))
                for spec in cfg.train:
                    out.append((work, ["learn", "--space", str(work / f"{spec.name}.space.txt"),
                                       "--out-dir", str(work / f"learn-{spec.name}"),
                                       "--runs", str(cfg.ga_runs), "--seed", str(workloads.GA_MASTER_SEED),
                                       "--jobs", "1", *cfg.ga_flags]))
    return out


def run_side(checkout: Path, root: Path, argvs: list[tuple[Path, list[str]]]) -> list[str]:
    """Run every command with the checkout's efkit from root; returns one
    line per command that exited non-zero."""
    paths = [str(checkout / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    failures = []
    for work, argv in argvs:
        (root / work).mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-B", "-c", EFKIT, *argv], cwd=root, env=env,
                              capture_output=True, text=True)
        print(f"artifact_diff: {checkout}: efkit {' '.join(argv)}: exit {proc.returncode}",
              file=sys.stderr, flush=True)
        if proc.returncode != 0:
            failures.append(f"{checkout}: exit {proc.returncode}: efkit {' '.join(argv)}: "
                            + " | ".join(proc.stderr.splitlines()[-3:]))
    return failures


def _children(value):
    """A JSON object's members, or a JSON array's items keyed by index."""
    if isinstance(value, dict):
        return value
    if isinstance(value, list):
        return {str(i): item for i, item in enumerate(value)}
    return None


def json_differences(parent, change, path: str = "") -> list[str]:
    """The dotted key paths at which two parsed JSON values differ, marking
    those that exist on one side only."""
    a, b = _children(parent), _children(change)
    if a is None or b is None or type(parent) is not type(change):
        return [] if parent == change and type(parent) is type(change) else [path or "(root)"]
    out = []
    for key in [*a, *(k for k in b if k not in a)]:
        sub = f"{path}.{key}" if path else key
        if key not in b:
            out.append(f"{sub} (only in parent)")
        elif key not in a:
            out.append(f"{sub} (only in change)")
        else:
            out += json_differences(a[key], b[key], sub)
    return out


def describe_json(parent: Path, change: Path) -> str:
    """': ' and the differing key paths of two JSON files, or '' when either
    does not parse or only the formatting differs."""
    try:
        keys = json_differences(json.loads(parent.read_text()), json.loads(change.read_text()))
    except ValueError:
        return ""
    return ": " + ", ".join(keys) if keys else ""


def compare(parent: Path, change: Path) -> tuple[int, list[str]]:
    """The number of files under either root, and one line per file that
    differs or exists on one side only. A differing JSON file's line names
    the key paths that differ."""
    files = {side: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for side, root in (("parent", parent), ("change", change))}
    lines = []
    for rel in sorted(files["parent"] | files["change"]):
        if rel not in files["change"]:
            lines.append(f"only in parent: {rel}")
        elif rel not in files["parent"]:
            lines.append(f"only in change: {rel}")
        elif not filecmp.cmp(parent / rel, change / rel, shallow=False):
            detail = describe_json(parent / rel, change / rel) if rel.suffix == ".json" else ""
            lines.append(f"differs: {rel}{detail}")
    return len(files["parent"] | files["change"]), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    argvs = commands(load_workloads(sides["change"]))
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        roots = {side: Path(tmp, side) for side in sides}
        failures = [line for side in sides for line in run_side(sides[side], roots[side], argvs)]
        count, differences = compare(roots["parent"], roots["change"])
    for line in failures + differences:
        print(line)
    print(f"artifact_diff: {len(argvs)} commands per side, compared {count} files, "
          f"{len(differences)} differ, {len(failures)} commands failed")
    return 1 if failures or differences else 0


if __name__ == "__main__":
    sys.exit(main())
