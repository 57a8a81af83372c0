"""Hamming cost computation against exhaustive or sampled solution sets.

The cost of an assignment is its minimum coordinate-wise disagreement with
any known solution: exact when the solution set is exhaustive, an upper
bound when it only holds a sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import concepts, spaces
from .concepts import ConstraintInstance
from .spaces import LabeledSpace

# Row chunk for pairwise distance scans, keeps peak memory near 100 MB.
_SCAN_CHUNK_CELLS = 10**7


class UnsatisfiableConstraintError(ValueError):
    """No solution exists, so Hamming costs are undefined."""


@dataclass
class SolutionSet:
    constraint: ConstraintInstance
    solutions: np.ndarray  # (s, n) int64
    exhaustive: bool

    def __post_init__(self):
        self.solutions = np.asarray(self.solutions, dtype=np.int64)
        if self.solutions.ndim != 2 or self.solutions.shape[1] != self.constraint.n:
            raise ValueError("solution matrix shape does not match constraint scope")

    def __len__(self) -> int:
        return len(self.solutions)


def exhaustive_solution_set(
    c: ConstraintInstance, cap: int = spaces.DEFAULT_ENUMERATION_CAP
) -> SolutionSet:
    """Every solution of the complete space, found by enumeration."""
    space = spaces.enumerate_complete(c, cap=cap)
    return SolutionSet(c, space.assignments[space.labels], exhaustive=True)


def solution_set_from_space(space: LabeledSpace) -> SolutionSet:
    """The solutions recorded in a labeled space; exhaustive iff complete."""
    return SolutionSet(
        space.constraint, space.assignments[space.labels], exhaustive=space.complete
    )


def nearest_distances(queries: np.ndarray, solutions: np.ndarray) -> np.ndarray:
    """Per-query minimum disagreement count against the solution rows."""
    queries = np.asarray(queries, dtype=np.int64)
    solutions = np.asarray(solutions, dtype=np.int64)
    if len(solutions) == 0:
        raise UnsatisfiableConstraintError("empty solution set")
    m, n = queries.shape
    out = np.empty(m, dtype=np.int64)
    chunk = max(1, _SCAN_CHUNK_CELLS // (len(solutions) * n))
    for start in range(0, m, chunk):
        block = queries[start : start + chunk]
        diff = block[:, None, :] != solutions[None, :, :]
        out[start : start + chunk] = diff.sum(axis=2).min(axis=1)
    return out


def _require_solutions(s: SolutionSet) -> None:
    if len(s) == 0:
        raise UnsatisfiableConstraintError(
            f"{concepts.format_constraint_line(s.constraint)} has no solution in the set"
        )


def exact_hamming(x: Sequence[int], s: SolutionSet) -> int:
    """Minimum number of coordinates to reassign to reach a solution."""
    if not s.exhaustive:
        raise ValueError("exact Hamming needs an exhaustive solution set")
    return approx_hamming(x, s)


def approx_hamming(x: Sequence[int], s: SolutionSet) -> int:
    """Distance to the closest sampled solution; an upper bound on the
    exact cost, and 0 whenever x itself is in the sample."""
    _require_solutions(s)
    return int(nearest_distances(np.asarray([x], dtype=np.int64), s.solutions)[0])


def label_space_costs(space: LabeledSpace, s: SolutionSet) -> LabeledSpace:
    """Fill every entry cost from the solution set; solutions cost 0.

    The set must be exhaustive exactly when the space is complete, so that
    complete spaces carry exact costs and sampled ones the documented
    nearest-sampled-solution approximation.
    """
    if s.exhaustive != space.complete:
        raise ValueError(
            f"solution set exhaustive={s.exhaustive} does not match "
            f"space complete={space.complete}"
        )
    if len(space) == 0:
        return space.with_costs(np.zeros(0, dtype=np.int64))
    _require_solutions(s)
    costs = np.zeros(len(space), dtype=np.int64)
    non = ~space.labels
    if non.any():
        costs[non] = nearest_distances(space.assignments[non], s.solutions)
    return space.with_costs(costs)


def label_space_costs_reference(space: LabeledSpace) -> LabeledSpace:
    """Fill costs from the per-kind closed forms (exact at any scale).

    Only defined for kinds with a trusted closed form; used to build large
    test spaces whose exact costs are out of reach of enumeration.
    """
    costs = concepts.reference_costs_batch(space.constraint, space.assignments)
    return space.with_costs(costs)
