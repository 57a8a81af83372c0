"""Benchmark of efkit's three paper experiments, end to end and per layer.

    python3 bench/run.py --workload <complete-n4|sampled-n10|sudoku-9x9> \
        --seed <n> --seconds <s> --trace <0|1> [--toy]

Runs whole rounds of the workload's experiment in this one process for
--seconds (at least one round, and none that is projected to end later),
checks every operation's output (see checks.py), and prints one JSON
object as the last line of standard output:
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end ones, with times at the reference speed of speed.py;
with --trace 1 rounds alternate untraced and traced, and the metrics are
the per-layer ones from the traced rounds plus the tracing overhead, the
untraced wall time and the speed probe. --toy shrinks every workload for
the self-test.
Exits 1 when any check fails, 2 when efkit's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = REPO / ".bench_out"
SETUP_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "experiment_s": "s", "peak_rss_mb": "MB"}


def _process_seconds(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True)
    return time.perf_counter() - start


def measure_setup(run_dir: Path) -> float:
    """Median time of fresh processes that import numpy and efkit and prepare
    an output directory, at the reference speed: each runs right after a
    reference process that only imports numpy (see speed.py)."""
    import speed

    times, references = [], []
    for i in range(SETUP_PROBES):
        references.append(_process_seconds([sys.executable, "-c", "import numpy"]))
        times.append(_process_seconds(
            [sys.executable, str(HERE / "setup_probe.py"), str(REPO / "src"), str(run_dir / f"probe{i}")]))
    wall, reference = statistics.median(times), statistics.median(references)
    print(f"bench: set-up wall median {wall:.4f} s, numpy-import reference median {reference:.4f} s",
          file=sys.stderr)
    return wall * speed.REFERENCE_IMPORT_S / reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    args = parser.parse_args(argv)

    for needed in (REPO / "src" / "efkit" / "__init__.py", REPO / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(REPO)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    import checks  # puts src/ and tests/ on sys.path
    import efkit
    import tracing
    import workloads

    if not Path(efkit.__file__).resolve().is_relative_to(REPO / "src"):
        print(f"bench: efkit imported from {efkit.__file__}, not this checkout", file=sys.stderr)
        return 2
    configs = workloads.TOY if args.toy else workloads.FULL
    if args.workload not in configs:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(configs)}")
    cfg = configs[args.workload]

    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_s = measure_setup(run_dir) if not args.trace else None
        verifier = checks.Verifier()
        tracer = tracing.Tracer()
        plain, traced, attempted, failures = [], [], 0, []
        plain_wall, probes = [], []
        start = time.perf_counter()
        index = 0
        while True:
            round_start = time.perf_counter()
            use_tracer = bool(args.trace) and index % 2 == 1
            if use_tracer:
                tracing.install(tracer)
            try:
                r = workloads.run_round(cfg, args.seed, run_dir / f"round{index}",
                                        tracer if use_tracer else None, verifier)
            finally:
                tracer.unwrap_all()
            (traced if use_tracer else plain).append(r.seconds)
            if not use_tracer:
                plain_wall.append(r.wall_seconds)
            probes += r.meter.probes_s
            attempted += r.attempted
            failures += r.failures
            index += 1
            # Whole rounds only: stop before a round that would end past
            # --seconds, once the mode has the rounds it needs.
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds and (traced or not args.trace):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        size = "-toy" if args.toy else ""
        tracer.dump(OUT / "traces" / f"{args.workload}{size}-seed{args.seed}.jsonl")
        values = tracing.layer_metrics(tracer, len(traced), {
            "trace.overhead_pct": (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0,
            "wall.experiment_s": statistics.median(plain_wall),
            "speed.probe_ms": statistics.median(probes) * 1000.0,
        })
        units = tracing.PER_LAYER_UNITS
    else:
        values = {
            "setup_s": setup_s,
            "experiment_s": statistics.median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print(f"bench: {len(plain_wall)} untraced rounds, wall median {statistics.median(plain_wall):.4f} s, "
          f"speed probe median {statistics.median(probes) * 1000.0:.2f} ms", file=sys.stderr)
    for failure in failures[:20]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
