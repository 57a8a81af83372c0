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
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import icn
from .concepts import ConstraintInstance, ConstraintKind, concept_holds_batch
from .icn import ErrorFunction, EvalContext, Genome
from .util import derive_seeds, map_jobs

SUDOKU_VARIANTS = ("predicate", "handcrafted", "icn_feedforward", "icn_hardcoded")
# The search is fixed, not tuned: the paper compares constraint
# representations under one local search. A moved variable stays tabu for
# TABU_TENURE iterations; a restart follows PLATEAU_MOVES_PER_VARIABLE
# moves per variable without a new best total.
TABU_TENURE = 2
PLATEAU_MOVES_PER_VARIABLE = 10


def _all_distinct(x: Sequence[int]) -> bool:
    return len(set(x)) == len(x)


@dataclass
class Constraint:
    """A scoped constraint with a guidance error and a ground-truth predicate.

    The error is a non-negative integer, 0 exactly when the predicate is
    intended to hold; for a predicate-only constraint it is the 0/1
    violation indicator. It is given in exactly one of two forms:

    - error_batch, a function mapping a (rows, len(scope)) int64 candidate
      matrix to one error per row; the solver scores moves with it.
    - count_terms, a table of len(scope) + 1 entries with count_terms[0]
      == 0: the error is a sum over values of a term depending only on how
      many scope variables hold the value, count_terms[c] for a value held
      c times; the solver scores moves from value counts.

    error, the error of one tuple of the scope's values, is derived: the
    one-row call of error_batch, or the sum of the count terms. The solver
    reads it once per constraint at each (re)start.
    """

    scope: tuple[int, ...]
    predicate: Callable[[Sequence[int]], bool]
    error_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    count_terms: Optional[tuple[int, ...]] = None
    error: Callable[[Sequence[int]], int] = field(init=False)

    def __post_init__(self):
        where = f"constraint on scope {tuple(self.scope)}"
        if len(set(self.scope)) != len(self.scope):
            raise ValueError(f"scope {tuple(self.scope)} names a variable more than once")
        if self.error_batch is not None and self.count_terms is not None:
            raise ValueError(
                f"{where} gives error_batch and count_terms; give exactly one error form"
            )
        if self.count_terms is not None:
            if len(self.count_terms) != len(self.scope) + 1 or self.count_terms[0] != 0:
                raise ValueError(
                    f"{where}: count_terms needs {len(self.scope) + 1} entries, the first 0"
                )
            terms = self.count_terms
            self.error = lambda x: sum(terms[c] for c in Counter(x).values())
        elif self.error_batch is not None:
            error_batch = self.error_batch
            self.error = lambda x: int(error_batch(np.array([x], dtype=np.int64))[0])
        else:
            raise ValueError(f"{where} has no error function")


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
    unfaithful_restarts: int  # restarts at total error 0 with a false predicate


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

    # The two count-based errors are their terms per value count: a value
    # held c times adds c(c-1)/2 equal pairs, or c-1 duplicate positions.
    error_batch = count_terms = None
    if variant == "predicate":
        concept = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, n, 1, n)

        def error_batch(X):
            return 1 - concept_holds_batch(concept, X)
    elif variant == "handcrafted":
        count_terms = tuple(c * (c - 1) // 2 for c in range(n + 1))
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
            count_terms = tuple(max(c - 1, 0) for c in range(n + 1))
        else:
            error_batch = ErrorFunction(genome, EvalContext(n=n, d=n, p=0, lo=1)).evaluate_batch
    cons = [
        Constraint(
            scope=s,
            predicate=_all_distinct,
            error_batch=error_batch,
            count_terms=count_terms,
        )
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
    domains = model.domains
    # A variable with a one-value domain cannot move: its penalty stays -1,
    # below every other, so the penalty scan never picks it.
    is_movable = [lo != hi for lo, hi in domains]
    movable = [v for v in range(nvars) if is_movable[v]]
    watched = [[v for v in con.scope if is_movable[v]] for con in constraints]
    cons_of: list[list[int]] = [[] for _ in range(nvars)]
    for ci, con in enumerate(constraints):
        for v in con.scope:
            cons_of[v].append(ci)
    # A constraint with count_terms is scored from its value counts, which
    # counts[ci][value - offsets[ci]] holds; steps[ci][c] is the error change
    # when a value held c times gains one more holder.
    offsets, steps = {}, {}
    for ci, con in enumerate(constraints):
        if con.count_terms is not None:
            terms = con.count_terms
            offsets[ci] = min(domains[v][0] for v in con.scope)
            steps[ci] = [terms[c + 1] - terms[c] for c in range(len(terms) - 1)]
    # The other constraints of a variable are grouped by evaluator and scope
    # width, so that a move makes one stacked error_batch call per group
    # (network overhead is per call, not per row).
    count_plans, batch_plans = [], []
    for v in range(nvars):
        count_plans.append([ci for ci in cons_of[v] if ci in steps])
        groups: dict[tuple, list[int]] = {}
        for ci in cons_of[v]:
            if ci not in steps:
                con = constraints[ci]
                groups.setdefault((con.error_batch, len(con.scope)), []).append(ci)
        plan = []
        for (error_batch, _), members in groups.items():
            member_scopes = np.array([constraints[ci].scope for ci in members], dtype=np.intp)
            plan.append((error_batch, members, member_scopes, member_scopes == v))
        batch_plans.append(plan)

    start = time.perf_counter()
    deadline = start + timeout_ms / 1000.0
    iterations = 0
    restarts = 0
    unfaithful_restarts = 0

    def finish(status, assignment):
        elapsed = (time.perf_counter() - start) * 1000.0
        return SolveOutcome(status, assignment, elapsed, iterations, restarts, unfaithful_restarts)

    while True:
        assignment = [rng.randint(lo, hi) for lo, hi in domains]
        current = np.array(assignment, dtype=np.int64)  # the assignment, for stacking rows
        errors = [con.error([assignment[v] for v in con.scope]) for con in constraints]
        penalties = [
            sum(errors[ci] for ci in cons_of[v]) if is_movable[v] else -1 for v in range(nvars)
        ]
        counts = {}
        for ci, offset in offsets.items():
            scope = constraints[ci].scope
            counts[ci] = table = [0] * (max(domains[v][1] for v in scope) - offset + 1)
            for v in scope:
                table[assignment[v] - offset] += 1
        total = sum(errors)
        tabu: list[int] = []  # the variables moved in the last TABU_TENURE iterations
        best_total = total
        since_improvement = 0

        while True:
            if total == 0:
                if model.satisfied(assignment):
                    return finish("solved", assignment)
                unfaithful_restarts += 1
                break  # unfaithful guidance: restart rather than loop forever
            if time.perf_counter() > deadline:
                return finish("timeout", None)
            iterations += 1

            # The most penalized free variables, in ascending order; if
            # every free variable scores 0, any of them.
            scan = penalties
            if tabu:
                scan = penalties.copy()
                for v in tabu:
                    scan[v] = -1
            worst = max(scan, default=-1)
            if worst >= 0:
                candidates = []
                v = -1
                for _ in range(scan.count(worst)):
                    v = scan.index(worst, v + 1)
                    candidates.append(v)
            elif movable:
                candidates = movable  # everything is tabu; pick any movable variable
            else:
                return finish("timeout", None)
            var = candidates[0] if len(candidates) == 1 else rng.choice(candidates)

            # A move always changes the variable; allowing it to stay put
            # lets non-improving no-ops rotate through the tabu list forever.
            lo, hi = domains[var]
            old = assignment[var]
            values = [b for b in range(lo, hi + 1) if b != old]
            # new_errors[slot][row]: error of the slot-th constraint on var
            # with var set to values[row].
            scored, new_errors = [], []
            for ci in count_plans[var]:
                step, table, offset = steps[ci], counts[ci], offsets[ci]
                base = errors[ci] - step[table[old - offset] - 1]
                scored.append(ci)
                new_errors.append([base + step[table[b - offset]] for b in values])
            if batch_plans[var]:
                value_column = np.array(values, dtype=np.int64)[:, None, None]
                for error_batch, members, member_scopes, at_var in batch_plans[var]:
                    rows = np.where(at_var, value_column, current[member_scopes])
                    out = error_batch(rows.reshape(-1, rows.shape[2]))
                    scored.extend(members)
                    new_errors.extend(out.reshape(len(values), len(members)).T.tolist())
            if new_errors:
                cand_totals = [sum(column) for column in zip(*new_errors)]
            else:
                cand_totals = [0] * len(values)
            least = min(cand_totals)
            choices = [row for row, t in enumerate(cand_totals) if t == least]
            pick = choices[0] if len(choices) == 1 else rng.choice(choices)

            new = values[pick]
            assignment[var] = current[var] = new
            for ci in count_plans[var]:
                counts[ci][old - offsets[ci]] -= 1
                counts[ci][new - offsets[ci]] += 1
            for ci, errs in zip(scored, new_errors):
                delta = errs[pick] - errors[ci]
                if delta:
                    errors[ci] += delta
                    total += delta
                    for v in watched[ci]:
                        penalties[v] += delta
            tabu.append(var)
            if len(tabu) > TABU_TENURE:
                del tabu[0]

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
    # (run, seed, status, ms, iterations, restarts, unfaithful_restarts)
    rows: list[tuple] = field(default_factory=list)


def _run_one(args) -> tuple:
    k, variant, genome, timeout_ms, run, seed = args
    model = build_sudoku(k, variant, genome=genome)
    outcome = solve(model, timeout_ms, seed)
    return (run, seed, outcome.status, outcome.elapsed_ms, outcome.iterations, outcome.restarts,
            outcome.unfaithful_restarts)


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
