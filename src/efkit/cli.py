"""Command-line pipelines: space generation, learning, evaluation, solving.

Every command is deterministic in its inputs, flags and master seed, and
each produced artifact gets a `<artifact>.manifest.json` sidecar recording
input/output digests so pipeline drift is detectable.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from pathlib import Path

from . import __version__, concepts, ga, hamming, icn, solver, spaces, util
from .spaces import EnumerationCapError, SamplingExhaustedError


class _Parser(argparse.ArgumentParser):
    # Only whole flag names are read: with argparse's default, any unique
    # prefix of a flag would stand for it.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # Usage problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def integer(text: str) -> int:
    """concepts.parse_int under the name argparse's error messages show."""
    return concepts.parse_int(text)


def _constraint_from_args(args) -> concepts.ConstraintInstance:
    kind = concepts.parse_kind(args.kind)
    return concepts.ConstraintInstance(kind=kind, n=args.n, lo=args.lo, hi=args.hi, p=args.p)


def _config_echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def cmd_gen_space(args) -> int:
    c = _constraint_from_args(args)
    concepts.check_solvable(c)  # every space's costs need a solution
    if args.complete:
        space = spaces.enumerate_complete(c)
    elif args.solutions == "direct":
        space = spaces.sample_balanced_direct(c, args.k, args.seed)
    else:
        space = spaces.sample_balanced(c, args.k, args.seed)
    if args.costs == "reference":
        space = hamming.label_space_costs_reference(space)
    else:
        space = hamming.label_space_costs(space, hamming.solution_set_from_space(space))
    out = Path(args.out)
    spaces.save_space(space, out)
    util.write_manifest(
        out.with_name(out.name + ".manifest.json"),
        command="gen-space",
        config=_config_echo(args),
        master_seed=args.seed,
        inputs=[],
        outputs=[out],
    )
    print(
        f"wrote {out}: {len(space)} entries, {space.solution_count} solutions, "
        f"complete={int(space.complete)}"
    )
    return 0


# GA settings a flag may override; the seed always comes from --seed.
_GA_SETTINGS = ("population_size", "max_generations", "steady_stop")


def _ga_config(args) -> ga.GaConfig:
    settings = {key: getattr(args, key) for key in _GA_SETTINGS if getattr(args, key) is not None}
    return ga.GaConfig(**settings, rng_seed=args.seed)


def cmd_learn(args) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be >= 1, got {args.runs}")
    space = spaces.load_space(args.space)
    if not space.has_costs:
        raise ValueError(f"{args.space} has no costs; regenerate with a cost mode")
    cfg = _ga_config(args)
    seeds = util.derive_seeds(args.seed, args.runs)
    results = ga.learn_many(space, seeds, cfg, jobs=args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = icn.ctx_from_constraint(space.constraint)
    outputs = []
    summary: dict[str, list[ga.LearnResult]] = {}
    for run, result in enumerate(results):
        ef = icn.ErrorFunction(result.best_genome, ctx)
        genome_path = out_dir / f"run{run:03d}.genome.txt"
        icn.save_genome(ef, genome_path)
        metrics_path = out_dir / f"run{run:03d}.metrics.json"
        metrics_path.write_text(
            json.dumps(
                {
                    "seed": result.seed,
                    "best_loss": result.best_loss,
                    "best_deviation": result.best_deviation,
                    "generations_run": result.generations_run,
                    "function": icn.describe_genome(result.best_genome),
                },
                indent=2,
            )
            + "\n"
        )
        trace_path = out_dir / f"run{run:03d}.trace.csv"
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["generation", "best_loss"])
            writer.writerows(enumerate(result.loss_trace))
        outputs += [genome_path, metrics_path, trace_path]
        summary.setdefault(icn.describe_genome(result.best_genome), []).append(result)

    ranked = sorted(summary.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    lines = ["count\tmin_deviation\tfunction"]
    for text, group in ranked:
        dev = min(r.best_deviation for r in group)
        lines.append(f"{len(group)}\t{dev:.6g}\t{text}")
    summary_path = out_dir / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")
    outputs.append(summary_path)
    util.write_manifest(
        out_dir / "manifest.json",
        command="learn",
        config={**_config_echo(args), "ga_config": cfg.__dict__},
        master_seed=args.seed,
        inputs=[args.space],
        outputs=outputs,
    )
    print("\n".join(lines))
    print(f"modal function: {ranked[0][0]}")
    return 0


def cmd_eval(args) -> int:
    space = spaces.load_space(args.space)
    if not space.has_costs:
        raise ValueError(f"{args.space} has no costs; cannot score against it")
    target = Path(args.genome)
    paths = sorted(target.glob("*.genome.txt")) if target.is_dir() else [target]
    if not paths:
        raise ValueError(f"no *.genome.txt files under {target}")
    errors = []
    for path in paths:
        ef = icn.load_genome(path)
        if ef.ctx.kind is not None and ef.ctx.kind is not space.constraint.kind:
            raise ValueError(
                f"{path}: genome was learned for {ef.ctx.kind.value}, space is "
                f"{space.constraint.kind.value}"
            )
        err = icn.normalized_mean_error(ef, space)
        errors.append(err)
        print(f"{path}\t{err:.6g}\t{icn.describe_genome(ef.genome)}")
    if len(errors) > 1:
        print(f"median\t{statistics.median(errors):.6g}")
        print(f"mean\t{statistics.fmean(errors):.6g}")
        print(f"stdev\t{statistics.stdev(errors):.6g}")
    return 0


def cmd_solve(args) -> int:
    genome = None
    if args.genome:
        ef = icn.load_genome(args.genome)
        if ef.ctx.kind not in (None, concepts.ConstraintKind.ALL_DIFFERENT):
            raise ValueError(
                f"{args.genome}: genome was learned for {ef.ctx.kind.value}, "
                "Sudoku needs alldiff"
            )
        genome = ef.genome
    stats = solver.benchmark_sudoku(
        k=args.k,
        variant=args.variant,
        runs=args.runs,
        timeout_ms=args.timeout,
        seed=args.seed,
        genome=genome,
        jobs=args.jobs,
    )
    out = Path(args.out)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "variant", "k", "run", "seed", "status", "ms", "iterations", "restarts",
            "unfaithful_restarts",
        ])
        for run, seed, status, ms, *counts in stats.rows:
            writer.writerow([args.variant, args.k, run, seed, status, f"{ms:.3f}", *counts])
    util.write_manifest(
        out.with_name(out.name + ".manifest.json"),
        command="solve",
        config=_config_echo(args),
        master_seed=args.seed,
        inputs=[args.genome] if args.genome else [],
        outputs=[out],
    )

    def fmt(value):
        return f"{value:.2f}" if value is not None else "-"

    print(
        f"{args.variant} {args.k * args.k}x{args.k * args.k}: "
        f"mean={fmt(stats.mean_ms)} median={fmt(stats.median_ms)} "
        f"stdev={fmt(stats.stdev_ms)} timeouts={stats.timeouts}/{stats.runs}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="efkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"efkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-space", help="generate a labeled assignment space")
    p.add_argument("--kind", required=True, help="|".join(k.value for k in concepts.ConstraintKind))
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--lo", type=integer, required=True)
    p.add_argument("--hi", type=integer, required=True)
    p.add_argument("--p", type=integer, default=0)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--complete", action="store_true")
    mode.add_argument("--sampled", action="store_true")
    p.add_argument("--k", type=integer, default=1000, help="per-class count for --sampled")
    p.add_argument(
        "--solutions",
        choices=["rejection", "direct"],
        default="rejection",
        help="how --sampled finds solutions: LHS rejection (training protocol) "
        "or direct per-kind samplers (test sets whose solution rate defeats rejection)",
    )
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument(
        "--costs",
        choices=["auto", "reference"],
        default="auto",
        help="auto: Hamming distance to the nearest solution in the space, exact for "
        "complete spaces; reference: per-kind closed forms (for large test sets)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_space)

    p = sub.add_parser("learn", help="run seeded GA learnings on a space file")
    p.add_argument("--space", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--runs", type=integer, default=1)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--jobs", type=integer, default=1)
    for key in _GA_SETTINGS:
        p.add_argument("--" + key.replace("_", "-"), type=integer, dest=key)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("eval", help="score genome files against a space file")
    p.add_argument("--genome", required=True, help="genome file or directory of them")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="benchmark Sudoku variants")
    p.add_argument("--k", type=integer, default=3, choices=[3, 4])
    p.add_argument("--variant", required=True, choices=list(solver.SUDOKU_VARIANTS))
    p.add_argument("--runs", type=integer, default=100)
    p.add_argument("--timeout", type=integer, default=10000, help="per-run timeout in ms")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--genome", help="genome file for the icn variants")
    p.add_argument("--jobs", type=integer, default=1)
    p.add_argument("--out", default="sudoku_benchmark.csv")
    p.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EnumerationCapError, SamplingExhaustedError) as exc:
        print(f"efkit: resource cap: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"efkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
