"""Alternated parent/change pairs of the benchmark, recorded in one JSON file.

    python3 scripts/bench_pairs.py --parent <checkout> --change <checkout> \
        --out BENCH_<n>.json [--claim TEXT]

Both checkouts must be git checkouts; each side is labelled with its
`git rev-parse` commit. For every workload of BENCHMARK.json, each of ten
pairs i runs `bench/run.py --workload w --seed i --seconds S --trace 0`
once in each checkout, alternating which side runs first (the parent on
even pairs), then one `--trace 1` run per side at seed 0. S is the file's
`run_seconds`. The output keeps every run's raw standard output and, per
workload and end-to-end metric, each side's median and quartiles, the
number of pairs the change won (ties count for neither), and whether the
change stays within the metric's bound and meets the gain rule: all ten
pairs run, at least 9 of them won and medians apart by more than the parent's
interquartile distance. The file is rewritten after every run, so an
interrupted run keeps what it measured. Standard library only; the two
checkouts are run, never modified: every run gets its own
PYTHONPYCACHEPREFIX, a fresh temporary directory removed after the run,
so both sides compile from source each time and neither checkout gains
or reads a __pycache__.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PAIRS = 10


def _label(checkout: Path) -> str:
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench_pairs_pycache_") as prefix:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": prefix}
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
              "wall_s": round(time.perf_counter() - start, 3), "stdout_lines": lines}
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
        record["stderr_tail"] = proc.stderr.splitlines()[-20:]
    return record


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _value(record: dict, metric: str):
    result = record["result"]
    return None if result is None else result["metrics"][metric]["value"]


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric: both sides' quartiles, the
    change's wins over the pairs, the bound check and the gain rule."""
    out = {}
    for w in spec["workloads"]:
        name = w["name"]
        pairs = {}
        for r in runs:
            if r["workload"] == name and r["trace"] == 0:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        if not complete:
            continue
        entry = {"pairs": len(complete),
                 "failed": {side: sum((p[side]["result"] or {}).get("failed", 1) for p in complete)
                            for side in ("parent", "change")}}
        for m in spec["end_to_end"]:
            metric, lower = m["name"], m["better"] == "lower"
            values = {side: [_value(p[side], metric) for p in complete] for side in ("parent", "change")}
            if None in values["parent"] or None in values["change"]:
                entry[metric] = {"unresolved": "a run printed no result"}
                continue
            wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            parent, change = _quartiles(values["parent"]), _quartiles(values["change"])
            delta = change["median"] - parent["median"]
            limit = parent["median"] * (1 + m["bound"] if lower else 1 - m["bound"])
            entry[metric] = {
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "within_bound": change["median"] <= limit if lower else change["median"] >= limit,
                "gain_rule_met": (len(complete) >= PAIRS and wins >= 0.9 * len(complete)
                                  and abs(delta) > parent["q3"] - parent["q1"]
                                  and (delta < 0 if lower else delta > 0)),
            }
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", default="none")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "parent": _label(sides["parent"]),
        "change": _label(sides["change"]),
        "claim": args.claim,
        "command": f"python3 bench/run.py --workload <w> --seed <i> --seconds {seconds:g} --trace <0|1>",
        "order": "pair i runs seed i on both sides, the parent first on even i; "
                 "then one --trace 1 run per side at seed 0",
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()}",
        "summary": {},
        "runs": [],
    }

    def add(side, result):
        result["side"] = side
        record["runs"].append(result)
        record["summary"] = summarize(record["runs"], spec)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        value = _value(result, "experiment_s") if result["trace"] == 0 and result["result"] else None
        print(f"bench_pairs: {result['workload']} seed {result['seed']} trace {result['trace']} "
              f"{side}: exit {result['exit']}, experiment_s {value}", file=sys.stderr, flush=True)

    for name in (w["name"] for w in spec["workloads"]):
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                add(side, _run(sides[side], name, i, seconds, 0))
        for side in ("parent", "change"):
            add(side, _run(sides[side], name, 0, seconds, 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
