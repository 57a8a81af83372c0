"""Local-search solver over predicate and error-function models, with the
Sudoku builders used to compare constraint representations.

The search is a tabu-flavoured min-conflicts loop: pick the most
penalized non-tabu variable, move it to its best value, and restart from
scratch after a long plateau. It is guided by summed constraint errors; a
predicate-only constraint reports the 0/1 violation indicator, so its
model is guided by the count of violated constraints.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import icn
from .icn import ErrorFunction, EvalContext, Genome
from .util import derive_seeds, map_jobs

SUDOKU_VARIANTS = ("predicate", "handcrafted", "icn_feedforward", "icn_hardcoded")
# The search is fixed, not tuned: the paper compares constraint
# representations under one local search. A moved variable stays tabu for
# TABU_TENURE iterations; a restart follows PLATEAU_MOVES_PER_VARIABLE
# moves per variable without a new best total.
TABU_TENURE = 2
PLATEAU_MOVES_PER_VARIABLE = 10


def alldiff_primal_violation(x: Sequence[int]) -> int:
    """Number of index pairs sharing a value (primal-graph violation count)."""
    counts: dict[int, int] = {}
    for v in x:
        counts[v] = counts.get(v, 0) + 1
    return sum(c * (c - 1) // 2 for c in counts.values())


def alldiff_primal_violation_batch(X: np.ndarray) -> np.ndarray:
    """alldiff_primal_violation of each row: equal ordered pairs, less the
    diagonal, halved."""
    equal = (X[:, :, None] == X[:, None, :]).sum(axis=(1, 2))
    return (equal - X.shape[1]) // 2


def _all_distinct(x: Sequence[int]) -> bool:
    return len(set(x)) == len(x)


def _duplicate_positions(x: Sequence[int]) -> int:
    # Equals Count>0( count_eq_right ): positions with a later duplicate.
    return len(x) - len(set(x))


def _duplicate_positions_batch(X: np.ndarray) -> np.ndarray:
    """_duplicate_positions of each row: equal neighbours after a row sort."""
    ordered = np.sort(X, axis=1)
    return (ordered[:, 1:] == ordered[:, :-1]).sum(axis=1)


def _has_duplicate(x: Sequence[int]) -> int:
    # The predicate variant's error: the 0/1 violation indicator.
    return int(_duplicate_positions(x) > 0)


def _has_duplicate_batch(X: np.ndarray) -> np.ndarray:
    """_has_duplicate of each row."""
    return (_duplicate_positions_batch(X) > 0).astype(np.int64)


@dataclass
class Constraint:
    """A scoped constraint with a guidance error and a ground-truth predicate.

    error returns a non-negative integer, 0 exactly when the predicate is
    intended to hold; for a predicate-only constraint it is the 0/1
    violation indicator. error is required. error_batch maps a (rows,
    len(scope)) int64 candidate matrix to one error per row; left out, it
    applies error row by row. The solver calls only error_batch.
    """

    scope: tuple[int, ...]
    error: Callable[[Sequence[int]], int]
    predicate: Callable[[Sequence[int]], bool]
    error_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise ValueError(f"scope {tuple(self.scope)} names a variable more than once")
        if self.error is None:
            raise ValueError(f"constraint on scope {tuple(self.scope)} has no error function")
        if self.error_batch is None:
            error = self.error
            self.error_batch = lambda X: np.array([error(r) for r in X.tolist()], dtype=np.int64)


@dataclass
class Model:
    domains: list[tuple[int, int]]  # inclusive per-variable intervals
    constraints: list[Constraint]

    @property
    def variable_count(self) -> int:
        return len(self.domains)

    def satisfied(self, assignment: Sequence[int]) -> bool:
        return all(
            con.predicate([assignment[i] for i in con.scope]) for con in self.constraints
        )


@dataclass
class SolveOutcome:
    status: str  # "solved" | "timeout"
    assignment: Optional[list[int]]
    elapsed_ms: float
    iterations: int
    restarts: int


def build_sudoku(
    k: int,
    variant: str,
    genome: Optional[Genome] = None,
) -> Model:
    """A k^2 x k^2 Sudoku as 3k^2 all-different constraints over rows,
    columns and k x k boxes, with the chosen constraint representation."""
    if k not in (3, 4):
        raise ValueError(f"supported grid orders are 3 and 4, got {k}")
    if variant not in SUDOKU_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick one of {SUDOKU_VARIANTS}")
    if genome is not None and variant in ("predicate", "handcrafted"):
        raise ValueError(f"variant {variant} takes no genome; only the icn variants use one")
    n = k * k
    scopes: list[tuple[int, ...]] = []
    for r in range(n):
        scopes.append(tuple(r * n + c for c in range(n)))
    for c in range(n):
        scopes.append(tuple(r * n + c for r in range(n)))
    for br in range(k):
        for bc in range(k):
            scopes.append(
                tuple((br * k + dr) * n + bc * k + dc for dr in range(k) for dc in range(k))
            )
    domains = [(1, n)] * (n * n)

    if variant == "predicate":
        error, error_batch = _has_duplicate, _has_duplicate_batch
    elif variant == "handcrafted":
        error, error_batch = alldiff_primal_violation, alldiff_primal_violation_batch
    else:
        reference = icn.alldifferent_reference_genome()
        if genome is None:
            genome = reference
        if variant == "icn_hardcoded" and genome != reference:
            raise ValueError(
                "no hard-coded equivalent for this genome; only "
                f"{icn.describe_genome(reference)} is coded directly"
            )
        if variant == "icn_hardcoded":
            error, error_batch = _duplicate_positions, _duplicate_positions_batch
        else:
            ef = ErrorFunction(genome, EvalContext(n=n, d=n, p=0, lo=1))
            error, error_batch = ef.evaluate, ef.evaluate_batch
    cons = [
        Constraint(scope=s, error=error, predicate=_all_distinct, error_batch=error_batch)
        for s in scopes
    ]
    return Model(domains, cons)


def solve(model: Model, timeout_ms: int, rng_seed: int) -> SolveOutcome:
    """Tabu min-conflicts with restarts; stops at total error 0 (re-checked
    with the predicates) or at the deadline."""
    if timeout_ms <= 0:
        raise ValueError("timeout_ms must be positive")
    nvars = model.variable_count
    plateau_budget = PLATEAU_MOVES_PER_VARIABLE * nvars
    rng = random.Random(rng_seed)
    constraints = model.constraints
    ncons = len(constraints)
    domains = model.domains
    scopes = [np.array(con.scope, dtype=np.intp) for con in constraints]
    # incidence[v, ci] is 1 when constraint ci has variable v in its scope,
    # so a variable's penalty is incidence @ errors.
    incidence = np.zeros((nvars, ncons), dtype=np.int64)
    for ci, scope in enumerate(scopes):
        incidence[scope, ci] = 1
    # Each variable's scoring plan: its constraints grouped by evaluator and
    # scope width, so that a move makes one stacked error_batch call per
    # group (network overhead is per call, not per row).
    plans = []
    for row in incidence:
        groups: dict[tuple, list[int]] = {}
        for ci in np.flatnonzero(row).tolist():
            groups.setdefault((constraints[ci].error_batch, len(scopes[ci])), []).append(ci)
        plans.append([
            (error_batch, np.array(members), np.stack([scopes[ci] for ci in members]))
            for (error_batch, _), members in groups.items()
        ])

    start = time.perf_counter()
    deadline = start + timeout_ms / 1000.0
    iterations = 0
    restarts = 0
    errors = np.zeros(ncons, dtype=np.int64)
    # A variable with a one-value domain cannot move: it stays tabu for good.
    fixed = np.array([lo == hi for lo, hi in domains], dtype=bool)
    movable = np.flatnonzero(~fixed)
    tabu_until = np.zeros(nvars, dtype=np.int64)

    def finish(status, assignment):
        elapsed = (time.perf_counter() - start) * 1000.0
        return SolveOutcome(status, assignment, elapsed, iterations, restarts)

    while True:
        assignment = np.array([rng.randint(lo, hi) for lo, hi in domains], dtype=np.int64)
        for ci, con in enumerate(constraints):
            errors[ci] = con.error_batch(assignment[scopes[ci]][None])[0]
        total = int(errors.sum())
        tabu_until[:] = 0
        tabu_until[fixed] = np.iinfo(np.int64).max
        best_total = total
        since_improvement = 0

        while True:
            if total == 0:
                solution = assignment.tolist()
                if model.satisfied(solution):
                    return finish("solved", solution)
                break  # unfaithful guidance: restart rather than loop forever
            if time.perf_counter() > deadline:
                return finish("timeout", None)
            iterations += 1

            penalties = incidence @ errors
            blocked = tabu_until >= iterations
            penalties[blocked] = -1
            worst = penalties.max()
            if worst > 0:
                candidates = np.flatnonzero(penalties == worst)
            else:
                # Everything informative is tabu; pick any free variable.
                candidates = np.flatnonzero(~blocked)
                if len(candidates) == 0:
                    if len(movable) == 0:
                        return finish("timeout", None)
                    candidates = movable
            var = int(candidates[0]) if len(candidates) == 1 else int(rng.choice(candidates))

            # A move always changes the variable; allowing it to stay put
            # lets non-improving no-ops rotate through the tabu list forever.
            lo, hi = domains[var]
            values = np.arange(lo, hi, dtype=np.int64)
            values[values >= assignment[var]] += 1
            # out[row, slot]: error of the group's slot-th constraint with the
            # variable set to values[row].
            outs = []
            cand_totals = np.zeros(len(values), dtype=np.int64)
            for error_batch, members, member_scopes in plans[var]:
                rows = np.where(
                    member_scopes == var, values[:, None, None], assignment[member_scopes]
                )
                out = error_batch(rows.reshape(-1, rows.shape[2]))
                out = out.reshape(len(values), len(members))
                outs.append((members, out))
                cand_totals += out.sum(axis=1)
            choices = np.flatnonzero(cand_totals == cand_totals.min())
            pick = int(choices[0]) if len(choices) == 1 else int(rng.choice(choices))

            assignment[var] = values[pick]
            for members, out in outs:
                errors[members] = out[pick]
            total = int(errors.sum())
            tabu_until[var] = iterations + TABU_TENURE

            if total < best_total:
                best_total = total
                since_improvement = 0
            else:
                since_improvement += 1
            if since_improvement >= plateau_budget:
                break

        restarts += 1
        if time.perf_counter() > deadline:
            return finish("timeout", None)


@dataclass
class BenchmarkStats:
    variant: str
    k: int
    runs: int
    timeouts: int
    mean_ms: Optional[float]
    median_ms: Optional[float]
    stdev_ms: Optional[float]
    rows: list[tuple] = field(default_factory=list)  # (run, seed, status, ms, iters, restarts)


def _run_one(args) -> tuple:
    k, variant, genome, timeout_ms, run, seed = args
    model = build_sudoku(k, variant, genome=genome)
    outcome = solve(model, timeout_ms, seed)
    return (run, seed, outcome.status, outcome.elapsed_ms, outcome.iterations, outcome.restarts)


def benchmark_sudoku(
    k: int,
    variant: str,
    runs: int,
    timeout_ms: int,
    seed: int,
    genome: Optional[Genome] = None,
    jobs: int = 1,
) -> BenchmarkStats:
    """runs independent solves with derived sub-seeds; timed-out runs are
    counted but excluded from the runtime statistics."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    build_sudoku(k, variant, genome=genome)  # validate arguments up front
    seeds = derive_seeds(seed, runs)
    tasks = [(k, variant, genome, timeout_ms, run, seeds[run]) for run in range(runs)]
    rows = map_jobs(_run_one, tasks, jobs)
    solved_ms = [row[3] for row in rows if row[2] == "solved"]
    timeouts = runs - len(solved_ms)
    mean_ms = statistics.fmean(solved_ms) if solved_ms else None
    median_ms = statistics.median(solved_ms) if solved_ms else None
    stdev_ms = statistics.stdev(solved_ms) if len(solved_ms) > 1 else None
    return BenchmarkStats(
        variant=variant,
        k=k,
        runs=runs,
        timeouts=timeouts,
        mean_ms=mean_ms,
        median_ms=median_ms,
        stdev_ms=stdev_ms,
        rows=rows,
    )
