"""Constraint assignment spaces: exhaustive enumeration and LHS sampling.

A labeled space pairs assignments with their concept label and (once
filled) a Hamming cost. Complete spaces enumerate every assignment;
incomplete ones are sampled with Latin hypercube batches until a target
number of solutions and non-solutions is reached. Sampling orders each
block of batches on one helper thread while the calling thread draws the
next block and labels the last; the rows are identical to serial
generation.

ENUMERATION_CAP and DRAW_BUDGET are fixed limits, not settings: one pair
serves every space the paper builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .concepts import (
    CONSTRAINT_KEYS,
    ConstraintInstance,
    ConstraintKind,
    check_solvable,
    concept_holds_batch,
    constraint_from_fields,
    format_constraint_line,
    parse_fields,
    parse_ints,
)

ENUMERATION_CAP = 10**7  # assignments a complete space may hold
DRAW_BUDGET = 10**8  # LHS rows a sampled space may label

# Full batches are generated in blocks of up to this many cells (4096
# batches at d = n = 10); values are identical to one-batch-at-a-time
# generation because each full batch consumes exactly d*n uniform draws in
# row-major order either way.
_BLOCK_CELLS = 4096 * 10 * 10


class EnumerationCapError(Exception):
    """Complete enumeration would exceed ENUMERATION_CAP."""


class SamplingExhaustedError(Exception):
    """DRAW_BUDGET ran out before both class quotas were met."""


class NoDirectSamplerError(ValueError):
    """sample_solutions has no direct sampler for the constraint's kind."""


@dataclass
class LabeledSpace:
    """Assignments of one constraint with labels and optional costs.

    assignments is an (m, n) int64 matrix, labels an (m,) bool vector and
    costs an (m,) int64 vector or None while costs are still unset.
    """

    constraint: ConstraintInstance
    assignments: np.ndarray
    labels: np.ndarray
    costs: Optional[np.ndarray]
    complete: bool

    def __post_init__(self):
        m = len(self.assignments)
        if self.assignments.ndim != 2 or self.assignments.shape[1] != self.constraint.n:
            raise ValueError("assignment matrix shape does not match constraint scope")
        if self.labels.shape != (m,):
            raise ValueError("labels length mismatch")
        if self.costs is not None and self.costs.shape != (m,):
            raise ValueError("costs length mismatch")

    def __len__(self) -> int:
        return len(self.assignments)

    @property
    def solution_count(self) -> int:
        return int(self.labels.sum())

    @property
    def has_costs(self) -> bool:
        return self.costs is not None

    def with_costs(self, costs: np.ndarray) -> "LabeledSpace":
        costs = np.asarray(costs, dtype=np.int64)
        return LabeledSpace(self.constraint, self.assignments, self.labels, costs, self.complete)


def enumerate_complete(c: ConstraintInstance) -> LabeledSpace:
    """All d^n assignments in lexicographic order, labeled, costs unset."""
    size = c.d**c.n
    if size > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"complete space holds {size} assignments, above the cap of {ENUMERATION_CAP}"
        )
    # Column j cycles with period d^(n-1-j); lexicographic by construction.
    idx = np.arange(size)
    cols = []
    for j in range(c.n):
        period = c.d ** (c.n - 1 - j)
        cols.append(c.lo + (idx // period) % c.d)
    xs = np.column_stack(cols).astype(np.int64)
    labels = concept_holds_batch(c, xs)
    return LabeledSpace(c, xs, labels, None, complete=True)


def _block_batches(c: ConstraintInstance) -> int:
    return max(1, _BLOCK_CELLS // (c.d * c.n))


def _order_block(c: ConstraintInstance, u: np.ndarray) -> np.ndarray:
    """The rows of the full batches drawn as u, a (count, d, n) array that
    is overwritten: each column of a batch visits its d strata in the order
    of its d draws, equal draws in row order, so a column is lo + the stable
    argsort of its draws along the stratum axis.
    """
    count, d, n = u.shape
    b = (d - 1).bit_length()
    if 53 + b > 64:
        order = u.argsort(axis=1, kind="stable")
    else:
        # A draw is k * 2^-53 with an integer k < 2^53, so u * 2^(53+b) is
        # exactly k << b, and (k << b) | row is a 64-bit key that sorts by
        # draw, then by row; its low b bits are the argsort. The keys
        # overwrite the draws: a flat same-size cast needs no temporary.
        flat = u.reshape(-1)
        flat *= 2.0 ** (53 + b)
        keys = flat.view(np.uint64)
        keys[...] = flat
        planes = keys.reshape(count, d * n)  # one row-index pattern per batch
        planes |= np.repeat(np.arange(d, dtype=np.uint64), n)
        keys = keys.reshape(count, d, n)
        keys.sort(axis=1)
        keys &= np.uint64((1 << b) - 1)
        order = keys.view(np.int64)
    order += c.lo
    return order.reshape(count * d, n)


def _full_batch_block(c: ConstraintInstance, count: int, rng: np.random.Generator) -> np.ndarray:
    """count full batches of size d at once, from count * d * n uniforms."""
    return _order_block(c, rng.random((count, c.d, c.n)))


def _lhs_blocks(c: ConstraintInstance, rng: np.random.Generator, draw_budget: int, orderer):
    """The LHS rows in blocks of full batches, in draw order, draw_budget
    rows in all; orderer is a one-thread executor that orders each block.

    This thread draws block k+1 while the helper orders block k, and the
    helper orders block k+1 while the caller labels block k. Every draw is
    made here in block order, so the rows are those of serial generation.
    """
    drawn = 0

    def draw():
        nonlocal drawn
        block = min(_block_batches(c), max(1, -(-(draw_budget - drawn) // c.d)))
        rows = min(block * c.d, draw_budget - drawn)
        drawn += rows
        return orderer.submit(_order_block, c, rng.random((block, c.d, c.n))), rows

    ordering, rows = draw()
    while drawn < draw_budget:
        ahead, ahead_rows = draw()
        yield ordering.result()[:rows]
        ordering, rows = ahead, ahead_rows
    yield ordering.result()[:rows]


def _draw_classes(
    c: ConstraintInstance, need_sol: int, need_non: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw LHS blocks until need_sol solutions and need_non non-solutions
    are collected, never labeling more than DRAW_BUDGET rows.

    Returns the kept rows and their labels: the earliest-drawn rows of each
    class, in draw order. Raises SamplingExhaustedError when the budget runs
    out first. The block drawn after the last one labeled is never labeled.
    """
    # Imported here: only sampling needs it, and it adds ~5 ms to import efkit.
    from concurrent.futures import ThreadPoolExecutor

    kept_rows: list[np.ndarray] = []
    kept_labels: list[np.ndarray] = []
    n_sol = n_non = 0
    with ThreadPoolExecutor(max_workers=1) as orderer:
        blocks = _lhs_blocks(c, rng, DRAW_BUDGET, orderer)
        while n_sol < need_sol or n_non < need_non:
            xs = next(blocks, None)
            if xs is None:
                raise SamplingExhaustedError(
                    f"draw budget of {DRAW_BUDGET} exhausted with {n_sol}/{need_sol} solutions "
                    f"and {n_non}/{need_non} non-solutions for {format_constraint_line(c)}; "
                    "the class rate may be too low for balanced sampling"
                )
            labels = concept_holds_batch(c, xs)
            sol_rows = np.flatnonzero(labels)[: need_sol - n_sol]
            non_rows = np.flatnonzero(~labels)[: need_non - n_non]
            sel = np.sort(np.concatenate([sol_rows, non_rows]))
            kept_rows.append(xs[sel])
            kept_labels.append(labels[sel])
            n_sol += len(sol_rows)
            n_non += len(non_rows)
    return np.concatenate(kept_rows, axis=0), np.concatenate(kept_labels, axis=0)


def sample_balanced(c: ConstraintInstance, k: int, rng_seed: int) -> LabeledSpace:
    """Draw LHS batches until k solutions and k non-solutions are collected.

    The earliest-drawn k entries of each class are kept, in draw order.
    Raises SamplingExhaustedError when the budget runs out first; expect
    this for constraints with extremely low (or zero) class rates.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    xs, labels = _draw_classes(c, k, k, np.random.default_rng(rng_seed))
    return LabeledSpace(c, xs, labels, None, complete=False)


def sample_solutions(c: ConstraintInstance, count: int, rng_seed: int) -> np.ndarray:
    """count solutions drawn directly, uniformly over the solution set.

    Needed for constraints whose solution rate makes rejection hopeless
    (an AllDifferent over 100 variables has a rate near 1e-42). A kind
    without a direct sampler raises NoDirectSamplerError before drawing;
    use rejection at a reachable rate for it instead.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if c.kind is ConstraintKind.LINEAR_SUM:
        raise NoDirectSamplerError(f"no direct solution sampler for {c.kind.value}")
    check_solvable(c)
    rng = np.random.default_rng(rng_seed)
    d, n = c.d, c.n
    if c.kind is ConstraintKind.ALL_DIFFERENT:
        domain = np.arange(c.lo, c.hi + 1)
        out = np.empty((count, n), dtype=np.int64)
        for i in range(count):
            out[i] = rng.permutation(domain)[:n]
        return out
    if c.kind is ConstraintKind.MINIMUM:
        return rng.integers(max(c.lo, c.p), c.hi + 1, size=(count, n), dtype=np.int64)
    if c.kind is ConstraintKind.ORDERED:
        # Nondecreasing x over [lo, hi] <-> strictly increasing x[i] + i,
        # i.e. an n-subset of a (d + n - 1)-element range.
        picks = np.empty((count, n), dtype=np.int64)
        for i in range(count):
            picks[i] = np.sort(rng.choice(d + n - 1, size=n, replace=False))
        return c.lo + picks - np.arange(n)
    # NoOverlap1D, the one kind left: sorted starts with gaps >= p <-> an
    # n-subset of a shrunken range; a random per-row shuffle then spreads
    # the starts over variables.
    width = d - (n - 1) * (c.p - 1)
    out = np.empty((count, n), dtype=np.int64)
    for i in range(count):
        picks = np.sort(rng.choice(width, size=n, replace=False))
        starts = c.lo + picks + np.arange(n) * (c.p - 1)
        out[i] = rng.permutation(starts)
    return out


def sample_balanced_direct(c: ConstraintInstance, k: int, rng_seed: int) -> LabeledSpace:
    """k directly-sampled solutions followed by k LHS-drawn non-solutions.

    The test-set builder for constraints out of rejection's reach; falls
    back to rejection for the solution class when no direct sampler exists.
    DRAW_BUDGET caps the LHS rows drawn, as in sample_balanced.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    try:
        sols = sample_solutions(c, k, rng_seed)
    except NoDirectSamplerError:
        sols = None
    rng = np.random.default_rng(rng_seed + 1)
    xs, labels = _draw_classes(c, k if sols is None else 0, k, rng)
    if sols is None:
        sols = xs[labels]
    xs = np.concatenate([sols, xs[~labels]], axis=0)
    labels = np.concatenate([np.ones(k, dtype=bool), np.zeros(k, dtype=bool)])
    return LabeledSpace(c, xs, labels, None, complete=False)


# ---------------------------------------------------------------------------
# File format: header line then one `v1 v2 ... vn | label | cost` per entry.
# ---------------------------------------------------------------------------


def save_space(space: LabeledSpace, path) -> None:
    lines = [
        f"# constraint {format_constraint_line(space.constraint)} "
        f"complete={1 if space.complete else 0}"
    ]
    costs = space.costs
    for i in range(len(space)):
        values = " ".join(str(int(v)) for v in space.assignments[i])
        label = "1" if space.labels[i] else "0"
        cost = str(int(costs[i])) if costs is not None else "-"
        lines.append(f"{values} | {label} | {cost}")
    Path(path).write_text("\n".join(lines) + "\n")


def _int_tokens(path, ln: int, text: str) -> list[int]:
    try:
        values = parse_ints(text)
    except ValueError as exc:
        raise ValueError(f"{path}:{ln}: {exc}") from None
    if values and (min(values) < -(2**63) or max(values) >= 2**63):
        token = next(t for t in text.split() if not -(2**63) <= int(t) < 2**63)
        raise ValueError(f"{path}:{ln}: {token!r} does not fit a 64-bit integer")
    return values


def _int_token(path, ln: int, token: str) -> int:
    values = _int_tokens(path, ln, token)
    if len(values) != 1:
        raise ValueError(f"{path}:{ln}: {token!r} is not an integer")
    return values[0]


def load_space(path) -> LabeledSpace:
    """Read a space file, rejecting with the file and line: a header with a
    token that is not key=value, an unknown, repeated or missing key, or an
    invalid constraint; a file with no rows; rows of the wrong width,
    non-integer tokens, values outside [lo, hi], labels other than 0/1 or at
    odds with the concept, and solutions with a non-zero cost."""
    text = Path(path).read_text().splitlines()
    if not text or not text[0].startswith("# constraint "):
        raise ValueError(f"{path}:1: missing space header")
    try:
        header = text[0][len("# constraint "):]
        fields = parse_fields(header, "header", CONSTRAINT_KEYS + ("complete",), ("p",))
        if fields["complete"] not in ("0", "1"):
            raise ValueError(f"complete must be 0 or 1, got {fields['complete']!r}")
        c = constraint_from_fields(fields)
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from None
    rows, labels, costs, line_nos = [], [], [], []
    for ln, line in enumerate(text[1:], start=2):
        if not line.strip():
            continue
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 3:
            raise ValueError(f"{path}:{ln}: expected `values | label | cost`")
        values, label, cost = parts
        row = _int_tokens(path, ln, values)
        if len(row) != c.n:
            raise ValueError(f"{path}:{ln}: expected {c.n} values, got {len(row)}")
        if label not in ("0", "1"):
            raise ValueError(f"{path}:{ln}: label must be 0 or 1, got {label!r}")
        if cost == "-":
            cost = -1
        elif (cost := _int_token(path, ln, cost)) < 0:
            raise ValueError(f"{path}:{ln}: cost must be non-negative or -, got {cost}")
        if label == "1" and cost > 0:
            raise ValueError(f"{path}:{ln}: a solution has cost 0, got {cost}")
        rows.append(row)
        labels.append(label == "1")
        costs.append(cost)
        line_nos.append(ln)
    if not rows:
        raise ValueError(f"{path}:2: no rows after the header")
    xs = np.array(rows, dtype=np.int64)
    label_arr = np.array(labels, dtype=bool)
    outside = np.flatnonzero(((xs < c.lo) | (xs > c.hi)).any(axis=1))
    if len(outside):
        raise ValueError(f"{path}:{line_nos[outside[0]]}: value outside [{c.lo}, {c.hi}]")
    wrong = np.flatnonzero(concept_holds_batch(c, xs) != label_arr)
    if len(wrong):
        i = wrong[0]
        raise ValueError(
            f"{path}:{line_nos[i]}: label {int(label_arr[i])} contradicts "
            f"{format_constraint_line(c)}"
        )
    cost_arr = np.array(costs, dtype=np.int64)
    if (cost_arr < 0).all():
        cost_arr = None
    elif (cost_arr < 0).any():
        raise ValueError(f"{path}: mixed set and unset costs")
    return LabeledSpace(c, xs, label_arr, cost_arr, complete=fields["complete"] == "1")
