"""The three paper experiments as benchmark workloads.

A round runs one whole experiment. Learning workloads drive efkit's own
command line in-process (`gen-space`, `learn --jobs 1`, `eval`), so they
time what a user of the pipeline waits for, file writes and manifests
included. The Sudoku workload calls the solver directly, because the
`solve` command does not expose the grids the checks need.

An operation is a space build, a learn run, a genome scored on a test
space or a Sudoku solve; each is checked by `checks` and counted.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import checks
import speed
import tracing


@dataclass(frozen=True)
class SpaceSpec:
    """One `efkit gen-space` call. mode is complete, direct or rejection;
    costs is auto (exact or nearest sampled solution) or reference."""

    name: str
    kind: str
    n: int
    lo: int
    hi: int
    p: int = 0
    mode: str = "complete"
    k: int = 0
    seed_offset: int = 0
    costs: str = "auto"

    def argv(self, out: Path, seed: int) -> list[str]:
        argv = ["gen-space", "--kind", self.kind, "--n", str(self.n), "--lo", str(self.lo),
                "--hi", str(self.hi), "--p", str(self.p), "--out", str(out)]
        if self.mode == "complete":
            return argv + ["--complete"]
        argv += ["--sampled", "--k", str(self.k), "--seed", str(seed + self.seed_offset)]
        if self.mode == "direct":
            argv += ["--solutions", "direct"]
        return argv + ["--costs", self.costs]


@dataclass(frozen=True)
class LearningConfig:
    train: tuple[SpaceSpec, ...]
    tests: tuple[SpaceSpec, ...]
    ga_runs: int
    ga_flags: tuple[str, ...] = ()
    references: tuple[str, ...] = ()  # kinds whose canonical genome is also scored


@dataclass(frozen=True)
class SudokuConfig:
    seeds: tuple[int, ...]


GA_MASTER_SEED = 42  # `learn --seed`, which fixes the GA seed set
SOLVE_TIMEOUT_MS = 60000  # no solve comes near it


ALLDIFF_100 = SpaceSpec("alldiff100", "alldiff", 100, 1, 100, 0, "direct", 1000, 1, "reference")
# k=400 keeps LinearSum rejection sampling inside one block of draws for any seed.
LINEARSUM_100 = SpaceSpec("linearsum100", "linearsum", 100, 1, 100, 5050, "rejection", 400, 2, "reference")

# The first two solve seeds the acceptance suite derives from master seed 42
# (`solver.derive_seeds(42, 2)`), written out so the inputs stay fixed.
SUDOKU_SEEDS = (3444837047, 2669555309)

FULL = {
    "complete-n4": LearningConfig(
        train=(
            SpaceSpec("alldiff", "alldiff", 4, 1, 5),
            SpaceSpec("minimum", "minimum", 4, 1, 6, 3),
            SpaceSpec("linearsum", "linearsum", 4, 1, 6, 14),
        ),
        tests=(ALLDIFF_100, LINEARSUM_100),
        ga_runs=2,
        references=("alldiff", "linearsum"),
    ),
    "sampled-n10": LearningConfig(
        train=(SpaceSpec("alldiff10", "alldiff", 10, 1, 10, mode="rejection", k=10000),),
        tests=(ALLDIFF_100,),
        ga_runs=1,
        ga_flags=("--max-generations", "10", "--steady-stop", "10"),
    ),
    "sudoku-9x9": SudokuConfig(seeds=SUDOKU_SEEDS),
}

ALLDIFF_20 = SpaceSpec("alldiff20", "alldiff", 20, 1, 20, 0, "direct", 50, 1, "reference")
TOY = {
    "complete-n4": LearningConfig(
        train=(
            SpaceSpec("alldiff", "alldiff", 3, 1, 4),
            SpaceSpec("minimum", "minimum", 3, 1, 4, 2),
            SpaceSpec("linearsum", "linearsum", 3, 1, 4, 7),
        ),
        tests=(
            ALLDIFF_20,
            SpaceSpec("linearsum20", "linearsum", 20, 1, 20, 210, "rejection", 50, 2, "reference"),
        ),
        ga_runs=2,
        ga_flags=("--population-size", "20", "--max-generations", "5", "--steady-stop", "5"),
        references=("alldiff", "linearsum"),
    ),
    "sampled-n10": LearningConfig(
        train=(SpaceSpec("alldiff5", "alldiff", 5, 1, 5, mode="rejection", k=200),),
        tests=(ALLDIFF_20,),
        ga_runs=2,
        ga_flags=("--population-size", "20", "--max-generations", "5", "--steady-stop", "5"),
    ),
    "sudoku-9x9": SudokuConfig(seeds=SUDOKU_SEEDS[:1]),
}


@dataclass
class Round:
    """Timed stages, the speed probes taken around them, and checked
    operations of one experiment run."""

    stage_s: dict[str, float] = field(default_factory=dict)
    meter: speed.Meter = field(default_factory=speed.Meter)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def wall_seconds(self) -> float:
        return sum(self.stage_s.values())

    @property
    def seconds(self) -> float:
        """Stage time at the reference speed (see speed.py)."""
        return speed.scaled(self.wall_seconds, self.meter.probes_s)

    def op(self, what: str, check, *args, status: int = 0) -> None:
        """Count one operation; it fails when its command exited non-zero
        or its check raises anything at all."""
        self.attempted += 1
        try:
            if status != 0:
                raise checks.CheckError(f"command exited {status}")
            check(*args)
        except Exception as exc:  # a fault fails this operation, not the run
            self.failures.append(f"{what}: {exc!r}")


@contextlib.contextmanager
def _stage(round_: Round, tracer, name: str, **attrs):
    span = tracer.span(f"stage.{name}", **attrs) if tracer else contextlib.nullcontext()
    # No probes inside a traced stage: they would land in its layer spans.
    with round_.meter.timing(during=tracer is None), span:
        yield
    round_.stage_s[name] = round_.stage_s.get(name, 0.0) + round_.meter.last_s


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one efkit command in this process; returns (exit status, stdout)."""
    from efkit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def run_learning(cfg: LearningConfig, seed: int, work: Path, tracer, verifier) -> Round:
    from efkit import icn

    r = Round()
    files = {}
    for spec in cfg.train + cfg.tests:
        files[spec.name] = work / f"{spec.name}.space.txt"
        with _stage(r, tracer, "space"):
            status, _ = _cli(spec.argv(files[spec.name], seed))
        r.op(f"space {spec.name}", verifier.space, files[spec.name], spec, status=status)

    learned: dict[str, dict[str, Path]] = {}  # kind -> genome bits -> file
    for spec in cfg.train:
        run_dir = work / f"learn-{spec.name}"
        with _stage(r, tracer, "learn"):
            status, _ = _cli(["learn", "--space", str(files[spec.name]), "--out-dir", str(run_dir),
                              "--runs", str(cfg.ga_runs), "--seed", str(GA_MASTER_SEED),
                              "--jobs", "1", *cfg.ga_flags])
        for run in range(cfg.ga_runs):
            stem = run_dir / f"run{run:03d}"
            r.op(f"learn {spec.name} run {run}", verifier.learn_run, stem, files[spec.name],
                 status=status)
            genome = stem.with_name(stem.name + ".genome.txt")
            if genome.is_file():
                learned.setdefault(spec.kind, {}).setdefault(genome.read_text().split("\n")[1], genome)

    references = {"alldiff": icn.alldifferent_reference_genome(),
                  "linearsum": icn.linear_sum_reference_genome()}
    for spec in cfg.tests:
        eval_dir = work / f"eval-{spec.name}"
        eval_dir.mkdir()
        for i, path in enumerate(learned.get(spec.kind, {}).values()):
            shutil.copyfile(path, eval_dir / f"learned{i:02d}.genome.txt")
        if spec.kind in cfg.references:
            ctx = icn.ctx_from_constraint(_train_constraint(cfg, spec.kind))
            icn.save_genome(icn.ErrorFunction(references[spec.kind], ctx),
                            eval_dir / "reference.genome.txt")
        with _stage(r, tracer, "eval"):
            status, printed = _cli(["eval", "--genome", str(eval_dir),
                                    "--space", str(files[spec.name])])
        scores = checks.parse_eval_output(printed)
        for path in sorted(eval_dir.glob("*.genome.txt")):
            r.op(f"score {path.name} on {spec.name}", verifier.score,
                 path, scores.get(str(path)), files[spec.name], status=status)
    return r


def _train_constraint(cfg: LearningConfig, kind: str):
    from efkit import concepts

    spec = next(s for s in cfg.train if s.kind == kind)
    return concepts.ConstraintInstance(concepts.parse_kind(kind), spec.n, spec.lo, spec.hi, spec.p)


def run_sudoku(cfg: SudokuConfig, seed: int, work: Path, tracer, verifier) -> Round:
    """Every variant over the fixed seed set; --seed does not enter, so each
    round repeats the same deterministic trajectories."""
    from efkit import solver

    r = Round()
    trajectories = {}
    for variant in tracing.VARIANTS:
        model = solver.build_sudoku(3, variant)
        if tracer:
            tracing.wrap_model(tracer, model, variant)
        for s in cfg.seeds:
            with _stage(r, tracer, "solve", variant=variant):
                outcome = solver.solve(model, SOLVE_TIMEOUT_MS, s)
            trajectories[variant, s] = (outcome.iterations, outcome.restarts)
            r.op(f"solve {variant} seed {s}", verifier.solve, outcome)
    for s in cfg.seeds:
        r.op(f"feed-forward vs hard-coded seed {s}", verifier.same_trajectory,
             trajectories["icn_feedforward", s], trajectories["icn_hardcoded", s])
    return r


def run_round(cfg, seed: int, work: Path, tracer, verifier) -> Round:
    work.mkdir(parents=True)
    try:
        if isinstance(cfg, SudokuConfig):
            return run_sudoku(cfg, seed, work, tracer, verifier)
        return run_learning(cfg, seed, work, tracer, verifier)
    finally:
        shutil.rmtree(work, ignore_errors=True)
