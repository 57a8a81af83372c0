"""Hamming cost labeling against exhaustive or sampled solution sets.

The cost of an assignment is its minimum coordinate-wise disagreement with
any known solution: exact when the solution set is exhaustive, an upper
bound when it only holds a sample. nearest_distances computes it for a
matrix of assignments, and label_space_costs fills a space's costs with it;
label_space_costs_reference takes them from concepts' closed forms instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import concepts
from .concepts import ConstraintInstance
from .spaces import LabeledSpace

# Row chunk for pairwise distance scans, keeps peak memory near 100 MB.
_SCAN_CHUNK_CELLS = 10**7

# The one-hot product replaces the scan while a one-hot row of n * width
# cells stays within _ONEHOT_MAX_ROW_CELLS, width being one more than the
# count of integers from the least to the greatest solution value. At 2048
# the product took 0.4-0.8 of the scan's time for n from 2 to 20 on a
# 2-core x86_64 VM; past about 4000 the scan was faster. Solution one-hot
# blocks and product blocks each hold about _PRODUCT_CHUNK_CELLS float32
# cells.
_ONEHOT_MAX_ROW_CELLS = 2048
_PRODUCT_CHUNK_CELLS = 2 * 10**6


class UnsatisfiableConstraintError(ValueError):
    """No solution exists, so Hamming costs are undefined."""


@dataclass
class SolutionSet:
    constraint: ConstraintInstance
    solutions: np.ndarray  # (s, n) int64
    exhaustive: bool

    def __post_init__(self):
        self.solutions = concepts.assignment_matrix(self.solutions, self.constraint.n)

    def __len__(self) -> int:
        return len(self.solutions)


def solution_set_from_space(space: LabeledSpace) -> SolutionSet:
    """The solutions recorded in a labeled space; exhaustive iff complete."""
    return SolutionSet(
        space.constraint, space.assignments[space.labels], exhaustive=space.complete
    )


def nearest_distances(queries: np.ndarray, solutions: np.ndarray) -> np.ndarray:
    """Per-query minimum disagreement count against the solution rows.

    A query agrees with a solution at one-hot(query) @ one-hot(solution)
    positions, so its distance is n minus the row maximum of that product.
    The counts are at most n, which float32 holds exactly in any summation
    order. Solutions and queries are both taken in blocks. When n times the
    solutions' value span is too wide for the one-hot, rows are compared
    position by position instead.
    """
    if len(solutions) == 0:
        raise UnsatisfiableConstraintError("empty solution set")
    solutions = concepts.assignment_matrix(solutions, np.shape(solutions)[-1])
    queries = concepts.assignment_matrix(queries, solutions.shape[1])
    m, n = queries.shape
    low = int(solutions.min())
    width = int(solutions.max()) - low + 2  # the values, plus one column no solution sets
    if n * width > _ONEHOT_MAX_ROW_CELLS:
        return _nearest_by_scan(queries, solutions)
    best = np.zeros(m, dtype=np.float32)
    rows = max(1, _PRODUCT_CHUNK_CELLS // max(1, n * width))
    for s_start in range(0, len(solutions), rows):
        solution_hot = _one_hot(solutions[s_start : s_start + rows], low, width)
        chunk = max(1, _PRODUCT_CHUNK_CELLS // max(len(solution_hot), n * width))
        for start in range(0, m, chunk):
            matches = _one_hot(queries[start : start + chunk], low, width) @ solution_hot.T
            block = best[start : start + chunk]
            np.maximum(block, matches.max(axis=1), out=block)
    return n - best.astype(np.int64)


def _one_hot(X: np.ndarray, low: int, width: int) -> np.ndarray:
    """(rows, n * width) float32 with column i * width + 1 + x_i - low set in
    each row; a value outside [low, low + width - 2] sets column i * width."""
    rows, n = X.shape
    inside = (X >= low) & (X <= low + width - 2)
    index = np.subtract(X, low, out=np.full_like(X, -1), where=inside) + 1
    out = np.zeros((rows, n, width), dtype=np.float32)
    np.put_along_axis(out, index[:, :, None], 1.0, axis=2)
    return out.reshape(rows, n * width)


def _nearest_by_scan(queries: np.ndarray, solutions: np.ndarray) -> np.ndarray:
    m, n = queries.shape
    out = np.empty(m, dtype=np.int64)
    chunk = max(1, _SCAN_CHUNK_CELLS // (len(solutions) * n))
    for start in range(0, m, chunk):
        block = queries[start : start + chunk]
        diff = block[:, None, :] != solutions[None, :, :]
        out[start : start + chunk] = diff.sum(axis=2).min(axis=1)
    return out


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
    if len(s) == 0:
        raise UnsatisfiableConstraintError(
            f"{concepts.format_constraint_line(s.constraint)} has no solution in the set"
        )
    costs = np.zeros(len(space), dtype=np.int64)
    non = ~space.labels
    if non.any():
        costs[non] = nearest_distances(space.assignments[non], s.solutions)
    return space.with_costs(costs)


def label_space_costs_reference(space: LabeledSpace) -> LabeledSpace:
    """Fill costs from the per-kind closed forms (exact at any scale); used
    to build large test spaces whose exact costs are out of reach of
    enumeration.
    """
    costs = concepts.reference_costs_batch(space.constraint, space.assignments)
    return space.with_costs(costs)
