"""Constraint kinds, instances and their concept predicates.

A constraint instance bundles a kind, a scope size n, an integer interval
domain [lo, hi] and an integer parameter p. concept_holds_batch decides
which rows of an assignment matrix satisfy the constraint, and
reference_costs_batch gives each row's exact Hamming cost from a per-kind
closed form; both reject a value outside [lo, hi]. The strict key=value
and integer readers of the file formats live here too.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class ConstraintKind(Enum):
    ALL_DIFFERENT = "alldiff"
    LINEAR_SUM = "linearsum"
    MINIMUM = "minimum"
    NO_OVERLAP_1D = "nooverlap"
    ORDERED = "ordered"


# Accepted spellings in config lines and CLI flags: each kind's value, plus
# two longer names.
_KIND_ALIASES = {kind.value: kind for kind in ConstraintKind} | {
    "alldifferent": ConstraintKind.ALL_DIFFERENT,
    "nooverlap1d": ConstraintKind.NO_OVERLAP_1D,
}

# Kinds whose parameter is meaningful; the others are pinned to p = 0 so
# that parameter-consuming network operations stay total.
_PARAMETRIC_KINDS = frozenset(
    {ConstraintKind.LINEAR_SUM, ConstraintKind.MINIMUM, ConstraintKind.NO_OVERLAP_1D}
)


# Bound on n * max(|lo|, |hi|, |p|): every row sum and p - sum then fits int64.
_INT64_SAFE = 2**62

# Row chunk for the NoOverlap1D cost DP: a row holds d presence cells and
# (p + 1) * (n + 1) DP cells, together at most about 4d since (n - 1) * p < d.
_NO_OVERLAP_CHUNK_CELLS = 10**7


def parse_kind(name: str) -> ConstraintKind:
    try:
        return _KIND_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown constraint kind {name!r}") from None


def check_int64_safe(n: int, lo: int, hi: int, p: int) -> None:
    """Raise a ValueError unless n * max(|lo|, |hi|, |p|) < 2^62, so that
    every row sum and p - sum of n values in [lo, hi] fits int64."""
    if n * max(abs(lo), abs(hi), abs(p)) >= _INT64_SAFE:
        raise ValueError(
            "n * max(|lo|, |hi|, |p|) must be below 2^62, so that row sums fit 64 bits"
        )


@dataclass(frozen=True)
class ConstraintInstance:
    """One constraint over n integer variables sharing the domain [lo, hi]."""

    kind: ConstraintKind
    n: int
    lo: int
    hi: int
    p: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"scope size must be >= 2, got {self.n}")
        if self.hi < self.lo:
            raise ValueError(f"empty domain [{self.lo}, {self.hi}]")
        if self.d < 2:
            raise ValueError(f"domain must hold at least 2 values, got {self.d}")
        if self.kind not in _PARAMETRIC_KINDS and self.p != 0:
            raise ValueError(f"{self.kind.value} takes no parameter; p must be 0")
        if self.kind is ConstraintKind.NO_OVERLAP_1D and self.p < 1:
            raise ValueError("nooverlap task length p must be >= 1")
        check_int64_safe(self.n, self.lo, self.hi, self.p)

    @property
    def d(self) -> int:
        """Domain size."""
        return self.hi - self.lo + 1


def _rows(c: ConstraintInstance, xs) -> tuple[np.ndarray, int, int]:
    """xs as an int64 (m, n) matrix with its least and greatest value; a
    value outside [lo, hi] is a ValueError."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.ndim != 2 or xs.shape[1] != c.n:
        raise ValueError(f"expected shape (m, {c.n}), got {xs.shape}")
    if not xs.size:
        return xs, c.lo, c.lo
    low, high = int(xs.min()), int(xs.max())
    if low < c.lo or high > c.hi:
        outside = xs[(xs < c.lo) | (xs > c.hi)]
        raise ValueError(f"value {outside[0]} outside domain [{c.lo}, {c.hi}]")
    return xs, low, high


def concept_holds_batch(c: ConstraintInstance, xs: np.ndarray) -> np.ndarray:
    """Vectorized concept predicate over a (m, n) assignment matrix of
    values in [lo, hi].

    AllDifferent uses one value mask per row while the values of xs span at
    most 64 integers, in the narrowest unsigned word that holds the span
    (8, 16, 32 or 64 bits), and a row sort otherwise."""
    xs, low, high = _rows(c, xs)
    if c.kind is ConstraintKind.ALL_DIFFERENT:
        if (span := high - low) < 64:
            # One bit per value: n distinct values set n bits. Or-ing column
            # by column is faster than np.bitwise_or.reduce along the rows.
            word = np.min_scalar_type(1 << span)
            bits = np.subtract(xs, low, out=np.empty(xs.shape, word), casting="unsafe")
            np.left_shift(word.type(1), bits, out=bits)
            mask = bits[:, 0].copy()
            for j in range(1, c.n):
                mask |= bits[:, j]
            return np.bitwise_count(mask) == c.n
        s = np.sort(xs, axis=1)
        return ~np.any(s[:, 1:] == s[:, :-1], axis=1)
    if c.kind is ConstraintKind.LINEAR_SUM:
        return xs.sum(axis=1) == c.p
    if c.kind is ConstraintKind.MINIMUM:
        return xs.min(axis=1) >= c.p
    if c.kind is ConstraintKind.NO_OVERLAP_1D:
        s = np.sort(xs, axis=1)
        return np.all(s[:, 1:] - s[:, :-1] >= c.p, axis=1)
    if c.kind is ConstraintKind.ORDERED:
        return np.all(xs[:, 1:] >= xs[:, :-1], axis=1)
    raise AssertionError(c.kind)


def _longest_nondecreasing_run(x: Sequence[int]) -> int:
    # Patience-style O(n log n): tails[k] = smallest possible tail of a
    # nondecreasing subsequence of length k+1.
    tails: list[int] = []
    for v in x:
        i = bisect.bisect_right(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def check_solvable(c: ConstraintInstance) -> None:
    """Raise a ValueError when c has no solution: AllDifferent with d < n,
    Minimum with p > hi, LinearSum with p outside [n * lo, n * hi] and
    NoOverlap1D with d < (n - 1) * p + 1. Ordered always has one."""
    if c.kind is ConstraintKind.ALL_DIFFERENT and c.d < c.n:
        raise ValueError("alldiff with d < n has no solution")
    if c.kind is ConstraintKind.MINIMUM and c.p > c.hi:
        raise ValueError(f"minimum with p={c.p} > hi={c.hi} has no solution")
    if c.kind is ConstraintKind.LINEAR_SUM and not c.n * c.lo <= c.p <= c.n * c.hi:
        raise ValueError(f"linearsum with p={c.p} has no solution on {c.n} x [{c.lo}, {c.hi}]")
    if c.kind is ConstraintKind.NO_OVERLAP_1D and c.d < (c.n - 1) * c.p + 1:
        raise ValueError(f"nooverlap n={c.n} p={c.p} does not fit in [{c.lo}, {c.hi}]")


def reference_costs_batch(c: ConstraintInstance, xs: np.ndarray) -> np.ndarray:
    """Closed-form Hamming costs for a (m, n) matrix of values in [lo, hi];
    an instance without a solution is a ValueError from check_solvable."""
    xs = _rows(c, xs)[0]
    check_solvable(c)
    if c.kind is ConstraintKind.ALL_DIFFERENT:
        s = np.sort(xs, axis=1)
        distinct = 1 + (s[:, 1:] != s[:, :-1]).sum(axis=1)
        return (c.n - distinct).astype(np.int64)
    if c.kind is ConstraintKind.MINIMUM:
        return (xs < c.p).sum(axis=1).astype(np.int64)
    if c.kind is ConstraintKind.ORDERED:
        return np.array([c.n - _longest_nondecreasing_run(row) for row in xs], dtype=np.int64)
    if c.kind is ConstraintKind.NO_OVERLAP_1D:
        return _no_overlap_costs(c, xs)
    # LinearSum, the one kind left: move the values with the most room toward p first.
    delta = c.p - xs.sum(axis=1)
    room = np.where(delta[:, None] > 0, c.hi - xs, xs - c.lo)
    room = -np.sort(-room, axis=1)
    reach = np.cumsum(room, axis=1)
    need = np.abs(delta)
    counts = 1 + (reach < need[:, None]).sum(axis=1)
    return np.where(need == 0, 0, counts).astype(np.int64)


def _no_overlap_costs(c: ConstraintInstance, xs: np.ndarray) -> np.ndarray:
    """n minus the most distinct values of a row that n starts in [lo, hi],
    pairwise at least p apart, can keep: each kept value stays at one of its
    positions and the other starts fill the rest.

    kept[pos][k] is the most row values that k starts in [lo, lo + pos] keep:
    max(kept[pos - 1][k], kept[pos - p][k - 1] + [lo + pos in row]). Only the
    last p positions' states are live, in a ring indexed by pos % p; a state
    that k starts cannot reach starts at -(n + 1), so it stays negative.
    _rows has checked the domain: a value outside it would index the
    presence mask from its end."""
    word = np.min_scalar_type(-(c.n + 1))
    costs = np.empty(len(xs), dtype=np.int64)
    chunk = max(1, _NO_OVERLAP_CHUNK_CELLS // (c.d + (c.p + 1) * (c.n + 1)))
    for start in range(0, len(xs), chunk):
        block = xs[start : start + chunk]
        present = np.zeros((c.d, len(block)), dtype=bool)
        present[block - c.lo, np.arange(len(block))[:, None]] = True
        ring = np.full((c.p, c.n + 1, len(block)), -(c.n + 1), dtype=word)
        ring[:, 0] = 0
        step = np.empty((c.n, len(block)), dtype=word)
        for pos in range(c.d):
            # The slot of kept[pos - p] becomes kept[pos].
            slot, before = ring[pos % c.p], ring[(pos - 1) % c.p]
            np.add(slot[:-1], present[pos], out=step)
            np.maximum(before[1:], step, out=slot[1:])
        costs[start : start + chunk] = c.n - ring[(c.d - 1) % c.p][c.n]
    return costs


# Keys a constraint line must carry; p is optional and defaults to 0.
CONSTRAINT_KEYS = ("kind", "n", "lo", "hi")


def parse_fields(
    text: str, what: str, required: Sequence[str], optional: Sequence[str] = ()
) -> dict[str, str]:
    """Split `key=value` tokens into a dict. A token without `=`, a key
    outside required + optional, a repeated key and a missing required key
    are ValueErrors; `what` names the line in their messages."""
    fields: dict[str, str] = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"{what} token {token!r} is not key=value")
        if key not in required and key not in optional:
            raise ValueError(f"unknown {what} key {key!r}")
        if key in fields:
            raise ValueError(f"duplicate {what} key {key!r}")
        fields[key] = value
    for key in required:
        if key not in fields:
            raise ValueError(f"{what} line missing {key!r}")
    return fields


_INT_TOKEN = re.compile(r"-?[0-9]+")


def parse_int(token: str) -> int:
    """A decimal integer written as -?[0-9]+ and nothing else: no `+`, no
    underscores, no surrounding spaces, no non-ASCII digits."""
    if not _INT_TOKEN.fullmatch(token):
        raise ValueError(f"{token!r} is not an integer")
    return int(token)


def parse_ints(text: str) -> list[int]:
    """The whitespace-separated integers of text, each in parse_int's form."""
    words = text.split()
    # On ASCII words without `+` or `_`, int() accepts exactly that form,
    # so a whole row is checked by a few string scans.
    if text.isascii() and "+" not in text and "_" not in text:
        try:
            return list(map(int, words))
        except ValueError:
            pass
    return [parse_int(word) for word in words]


def constraint_from_fields(fields: dict[str, str]) -> ConstraintInstance:
    """The instance described by parsed kind, n, lo, hi and optional p fields."""
    kind = parse_kind(fields["kind"])
    try:
        n, lo, hi = (parse_int(fields[key]) for key in ("n", "lo", "hi"))
        p = parse_int(fields.get("p", "0"))
    except ValueError as exc:
        raise ValueError(f"bad integer in constraint line: {exc}") from None
    return ConstraintInstance(kind=kind, n=n, lo=lo, hi=hi, p=p)


def format_constraint_line(c: ConstraintInstance) -> str:
    return f"kind={c.kind.value} n={c.n} lo={c.lo} hi={c.hi} p={c.p}"
