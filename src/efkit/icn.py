"""The compositional error-function network and its binary genome.

The network has four layers. A genome of 31 bits selects which operation
each layer applies:

  bits  0..17  transformation: element-wise maps from the assignment to a
               vector of n integers (several may be selected);
  bits 18..19  arithmetic: component-wise combination of the selected
               transformation vectors (exactly one);
  bits 20..21  aggregation: vector to scalar (exactly one);
  bits 22..30  comparison: scalar to the final nonnegative error, using
               the evaluation context n, d, p (exactly one).

Selected operations compose into a short, human-readable function, which
describe_genome renders.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .concepts import (
    ConstraintInstance,
    ConstraintKind,
    check_int64_safe,
    parse_fields,
    parse_int,
    parse_kind,
)
from .spaces import LabeledSpace

GENOME_LENGTH = 31
T_SLICE = slice(0, 18)
A_SLICE = slice(18, 20)
G_SLICE = slice(20, 22)
C_SLICE = slice(22, 31)

# Values are clamped to this magnitude after every combining step; counts
# multiplied across transformations can explode at scope 100.
SATURATION_CEILING = 2**31 - 1

# Pairwise transformation scans run in row blocks of at most this many
# matrix cells (rows * n * n) to bound peak memory.
_PAIR_CHUNK_CELLS = 2 * 10**7

# A pairwise count is at most n - 1, so up to this scope size it fits in
# uint8 and the counts reduce as a uint8 product with a ones vector.
_UINT8_COUNT_MAX_N = 256


@dataclass(frozen=True)
class EvalContext:
    """Scalar inputs the comparison and parameter operations consume."""

    n: int
    d: int
    p: int
    lo: int
    kind: Optional[ConstraintKind] = None


def ctx_from_constraint(c: ConstraintInstance) -> EvalContext:
    return EvalContext(n=c.n, d=c.d, p=c.p, lo=c.lo, kind=c.kind)


def _bit(position: int) -> int:
    """The int mask of a bit position; position 0 is the most significant."""
    return 1 << (GENOME_LENGTH - 1 - position)


def _selected(value: int, layer: slice) -> list[int]:
    """Positions set within a layer, relative to the layer start."""
    last = GENOME_LENGTH - 1
    return [i - layer.start for i in range(layer.start, layer.stop) if value >> (last - i) & 1]


_LAYERS = (T_SLICE, A_SLICE, G_SLICE, C_SLICE)
_LAYER_MASKS = tuple((layer, sum(map(_bit, range(layer.start, layer.stop)))) for layer in _LAYERS)


class Layers(NamedTuple):
    """The operations a valid genome selects, as catalog indices."""

    transformations: tuple[int, ...]
    arithmetic: int
    aggregation: int
    comparison: int


@dataclass(frozen=True)
class Genome:
    """31 bits held as one int; bit position 0 is the most significant, so
    int order is the order of the bit strings."""

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or not 0 <= self.value < 1 << GENOME_LENGTH:
            raise ValueError(f"genome must be an int in [0, 2^{GENOME_LENGTH}), got {self.value!r}")

    def count(self) -> int:
        return self.value.bit_count()

    @functools.cached_property
    def layers(self) -> Optional[Layers]:
        """The decoded selections, or None when the genome breaks the layer
        rules: at least one transformation, exactly one of each other layer."""
        t, a, g, c = (_selected(self.value, layer) for layer in _LAYERS)
        if not t or len(a) != 1 or len(g) != 1 or len(c) != 1:
            return None
        return Layers(tuple(t), a[0], g[0], c[0])


def validate(g: Genome) -> bool:
    """At least one transformation; exactly one of each other layer."""
    return g.layers is not None


def repair(g: Genome, rng) -> Genome:
    """Fix layer cardinalities: trim over-full exclusive layers to one kept
    bit chosen uniformly, seed empty layers with one uniform bit."""
    value = g.value
    for layer, mask in _LAYER_MASKS:
        count = (value & mask).bit_count()
        if layer is not T_SLICE and count > 1:
            keep = rng.choice(_selected(value, layer))
            value = value & ~mask | _bit(layer.start + keep)
        elif count == 0:
            value |= _bit(rng.randrange(layer.start, layer.stop))
    return Genome(value)


# ---------------------------------------------------------------------------
# Operation catalog
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _pair_mask(n: int, side: str) -> np.ndarray:
    if side == "right":
        return np.triu(np.ones((n, n), dtype=bool), k=1)  # j > i
    if side == "left":
        return np.tril(np.ones((n, n), dtype=bool), k=-1)  # j < i
    return ~np.eye(n, dtype=bool)  # j != i


@functools.lru_cache(maxsize=64)
def _uint8_ones(n: int) -> np.ndarray:
    return np.ones(n, dtype=np.uint8)


def _pairwise_block(block: np.ndarray, rel: Callable, mask: np.ndarray) -> np.ndarray:
    hits = rel(block[:, None, :], block[:, :, None])
    hits &= mask
    n = block.shape[1]
    if n <= _UINT8_COUNT_MAX_N:
        return (hits.view(np.uint8) @ _uint8_ones(n)).astype(np.int64)
    return hits.sum(axis=2)


def _pairwise_count(X: np.ndarray, rel: Callable, side: str) -> np.ndarray:
    """Counts over index pairs: out[r, i] = |{j in side(i) : rel(x_j, x_i)}|."""
    m, n = X.shape
    mask = _pair_mask(n, side)
    chunk = max(1, _PAIR_CHUNK_CELLS // (n * n))
    if m <= chunk:
        return _pairwise_block(X, rel, mask)
    out = np.empty((m, n), dtype=np.int64)
    for start in range(0, m, chunk):
        out[start : start + chunk] = _pairwise_block(X[start : start + chunk], rel, mask)
    return out


def _near(p: int) -> Callable:
    """The relation |x_j - x_i| < p."""
    return lambda xj, xi: np.abs(xj - xi) < p


def _shift_next(X: np.ndarray) -> np.ndarray:
    # x[i+1] with the last column repeating itself.
    return np.concatenate([X[:, 1:], X[:, -1:]], axis=1)


def _shift_prev(X: np.ndarray) -> np.ndarray:
    return np.concatenate([X[:, :1], X[:, :-1]], axis=1)


# Each layer's operations by name, in genome bit order.
_TRANSFORMATIONS: dict[str, Callable[[np.ndarray, EvalContext], np.ndarray]] = {
    "identity": lambda X, ctx: X.copy(),
    "count_eq_right": lambda X, ctx: _pairwise_count(X, np.equal, "right"),
    "count_eq_left": lambda X, ctx: _pairwise_count(X, np.equal, "left"),
    "count_eq_others": lambda X, ctx: _pairwise_count(X, np.equal, "all"),
    "count_lt_right": lambda X, ctx: _pairwise_count(X, np.less, "right"),
    "count_gt_right": lambda X, ctx: _pairwise_count(X, np.greater, "right"),
    "count_lt_left": lambda X, ctx: _pairwise_count(X, np.less, "left"),
    "count_gt_left": lambda X, ctx: _pairwise_count(X, np.greater, "left"),
    "max_with_next": lambda X, ctx: np.maximum(X, _shift_next(X)),
    "min_with_next": lambda X, ctx: np.minimum(X, _shift_next(X)),
    "drop_to_next": lambda X, ctx: np.maximum(X - _shift_next(X), 0),
    "drop_from_prev": lambda X, ctx: np.maximum(_shift_prev(X) - X, 0),
    "gap_below_p": lambda X, ctx: np.maximum(ctx.p - X, 0),
    "gap_above_p": lambda X, ctx: np.maximum(X - ctx.p, 0),
    "count_near_right": lambda X, ctx: _pairwise_count(X, _near(ctx.p), "right"),
    "count_near_others": lambda X, ctx: _pairwise_count(X, _near(ctx.p), "all"),
    "eq_p": lambda X, ctx: (X == ctx.p).astype(np.int64),
    "lt_p": lambda X, ctx: (X < ctx.p).astype(np.int64),
}

_ARITHMETIC_SYMBOLS = {"add": " + ", "mul": " * "}

AGGREGATION_NAMES = ["Sum", "Count>0"]

_COMPARISONS: dict[str, Callable[[np.ndarray, EvalContext], np.ndarray]] = {
    "identity": lambda y, ctx: np.abs(y),
    "AbsDiff_p": lambda y, ctx: np.abs(y - ctx.p),
    "Euclid_p": lambda y, ctx: (np.abs(y - ctx.p) + ctx.d - 1) // ctx.d,
    "AbsDiff_n": lambda y, ctx: np.abs(y - ctx.n),
    "AbsDiff_d": lambda y, ctx: np.abs(y - ctx.d),
    "Excess_p": lambda y, ctx: np.maximum(y - ctx.p, 0),
    "Shortfall_p": lambda y, ctx: np.maximum(ctx.p - y, 0),
    "NonZero": lambda y, ctx: (y != 0).astype(np.int64),
    "Euclid_0": lambda y, ctx: (np.abs(y) + ctx.d - 1) // ctx.d,
}

TRANSFORMATION_NAMES = list(_TRANSFORMATIONS)
_TRANSFORMATION_FNS = list(_TRANSFORMATIONS.values())
ARITHMETIC_NAMES = list(_ARITHMETIC_SYMBOLS)
COMPARISON_NAMES = list(_COMPARISONS)
_COMPARISON_FNS = list(_COMPARISONS.values())


def genome_from_names(
    transformations: Sequence[str],
    arithmetic: str = "add",
    aggregation: str = "Sum",
    comparison: str = "identity",
) -> Genome:
    """Build a genome by operation names; the layer-index bookkeeping stays here."""
    if not transformations:
        raise ValueError("need at least one transformation name")
    value = 0
    for name in transformations:
        value |= _bit(T_SLICE.start + TRANSFORMATION_NAMES.index(name))
    value |= _bit(A_SLICE.start + ARITHMETIC_NAMES.index(arithmetic))
    value |= _bit(G_SLICE.start + AGGREGATION_NAMES.index(aggregation))
    value |= _bit(C_SLICE.start + COMPARISON_NAMES.index(comparison))
    return Genome(value)


def alldifferent_reference_genome() -> Genome:
    """The canonical learned AllDifferent function: Count>0( count_eq_right )."""
    return genome_from_names(["count_eq_right"], "add", "Count>0", "identity")


def linear_sum_reference_genome() -> Genome:
    """The canonical learned LinearSum function: Euclid_p( Sum( identity ) )."""
    return genome_from_names(["identity"], "add", "Sum", "Euclid_p")


# ---------------------------------------------------------------------------
# Feed-forward evaluation
# ---------------------------------------------------------------------------


# Sums bounded by this cannot wrap int64.
_INT64_MAX = 2**63 - 1


# numpy scalars: with Python-int bounds np.clip builds iinfo objects on
# every call.
_CLAMP_LOW, _CLAMP_HIGH = np.int64(-SATURATION_CEILING), np.int64(SATURATION_CEILING)


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.clip(values, _CLAMP_LOW, _CLAMP_HIGH).astype(np.int64, copy=False)


def _peak(v: np.ndarray) -> int:
    """max |v|, 0 for an empty array."""
    return max(int(v.max()), -int(v.min())) if v.size else 0


def _compare(comp: int, ctx: EvalContext, y: np.ndarray, peak: int) -> np.ndarray:
    """The comparison layer on a y with |y| <= peak. Every output then has
    |out| <= peak + max(|p|, |n|, |d|), or at most 2 from a ceiling division
    by d < 0, so the clamp runs only when that bound passes the ceiling."""
    out = _COMPARISON_FNS[comp](y, ctx)
    if peak + max(abs(ctx.p), abs(ctx.n), abs(ctx.d)) <= SATURATION_CEILING:
        return out
    return _clamp(out)


def _forward(
    arith: int, agg: int, comp: int, ctx: EvalContext, vectors: list[np.ndarray]
) -> np.ndarray:
    # The add path is exact and saturates once, after aggregation. Every
    # partial sum is bounded by n * sum(max |T_t|); while that bound fits
    # int64 it adds in int64, beyond it in Python ints. The multiply path
    # clamps every step to keep products inside int64.
    if arith == 0 or len(vectors) == 1:
        terms = vectors[0].shape[1] if agg == 0 else 1
        if (len(vectors) > 1 or terms > 1) and terms * sum(map(_peak, vectors)) > _INT64_MAX:
            vectors = [v.astype(object) for v in vectors]
        combined = vectors[0] if len(vectors) == 1 else np.add.reduce(vectors)
    else:
        combined = _clamp(vectors[0])
        for v in vectors[1:]:
            combined = _clamp(combined * _clamp(v))
    if agg == 0:
        return _compare(comp, ctx, _clamp(combined.sum(axis=1)), SATURATION_CEILING)
    return _compare(comp, ctx, (combined > 0).sum(axis=1), combined.shape[1])


def _valid_layers(genome: Genome) -> Layers:
    if genome.layers is None:
        raise ValueError("genome violates layer cardinality rules")
    return genome.layers


def network_outputs(genome: Genome, ctx: EvalContext, X: np.ndarray) -> np.ndarray:
    """Feed a (m, n) integer matrix through the four layers; returns (m,)
    int64 >= 0. Values of any other dtype are a ValueError, not truncated,
    and so is a uint64 value past the int64 range, not wrapped."""
    t_idx, arith, agg, comp = _valid_layers(genome)
    X = np.asarray(X)
    if X.dtype.kind not in "iu":
        raise ValueError(f"expected integer values, got dtype {X.dtype}")
    if X.dtype == np.uint64 and X.size and int(X.max()) > _INT64_MAX:
        raise ValueError(f"value {int(X.max())} does not fit int64")
    X = X.astype(np.int64, copy=False)
    if X.ndim != 2 or X.shape[1] != ctx.n:
        raise ValueError(f"expected shape (m, {ctx.n}), got {X.shape}")
    vectors = [_TRANSFORMATION_FNS[t](X, ctx) for t in t_idx]
    return _forward(arith, agg, comp, ctx, vectors)


@dataclass(frozen=True)
class ErrorFunction:
    """A valid genome bound to an evaluation context."""

    genome: Genome
    ctx: EvalContext

    def __post_init__(self):
        if not validate(self.genome):
            raise ValueError("error function requires a valid genome")

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return network_outputs(self.genome, self.ctx, X)


def describe_genome(g: Genome) -> str:
    """Symbolic rendering, innermost layer first, identity comparison elided."""
    t_idx, arith, agg, comp = _valid_layers(g)
    symbol = _ARITHMETIC_SYMBOLS[ARITHMETIC_NAMES[arith]]
    inner = symbol.join(TRANSFORMATION_NAMES[t] for t in t_idx)
    text = f"{AGGREGATION_NAMES[agg]}( {inner} )"
    if comp != 0:
        text = f"{COMPARISON_NAMES[comp]}( {text} )"
    return text


# ---------------------------------------------------------------------------
# Loss and metrics
# ---------------------------------------------------------------------------


def regularization(g: Genome) -> float:
    """Length penalty in [0, 0.9]: 0.9 * selected operations / catalog size."""
    return 0.9 * g.count() / GENOME_LENGTH


def _space_arrays(space: LabeledSpace) -> tuple[EvalContext, np.ndarray, np.ndarray]:
    if not space.has_costs:
        raise ValueError("space costs are unset; fill them before computing losses")
    X = np.asarray(space.assignments, dtype=np.int64)
    return ctx_from_constraint(space.constraint), X, np.asarray(space.costs, dtype=np.int64)


class SpaceEvaluator:
    """Scores many genomes against one space from tables built once.

    The tables hold all 18 transformations position-major, (18, n, m), their
    row sums (18, m), a (n, m) uint32 mask whose bit t is set where T_t > 0,
    and each transformation's min and max |T_t|. From them:

    - add + Sum sums the selected row sums;
    - add + Count>0 counts positions where any selected bit is set;
    - mul + Count>0 counts positions where every selected bit is set;
    - mul with a selected T_t that is identically 0 gives y = 0;
    - mul + Sum multiplies without clamps while the product of the
      selected max |T_t| stays within the saturation ceiling.

    The mask paths need every selected T_t >= 0 (or a single one), and
    add + Sum needs n * sum(max |T_t|) <= 2^63 - 1. Anything else runs the
    general forward pass on the tabulated vectors. Every path gives the
    outputs network_outputs gives.
    """

    def __init__(self, space: LabeledSpace):
        self.ctx, X, self.costs = _space_arrays(space)
        m, n = X.shape
        self.tables = np.empty((len(_TRANSFORMATION_FNS), n, m), dtype=np.int64)
        self.mask = np.zeros((n, m), dtype=np.uint32)
        for t, fn in enumerate(_TRANSFORMATION_FNS):
            self.tables[t] = fn(X, self.ctx).T
            self.mask |= (self.tables[t] > 0).astype(np.uint32) << np.uint32(t)
        self.sums = self.tables.sum(axis=1)  # wrapped sums are never read, see _aggregate
        self.nonnegative = [m == 0 or int(T.min()) >= 0 for T in self.tables]
        self.peaks = [_peak(T) for T in self.tables]

    def _aggregate(self, t_idx: tuple[int, ...], arith: int, agg: int) -> Optional[np.ndarray]:
        """The aggregated y from the tables, or None where only the general
        forward pass is exact."""
        single = len(t_idx) == 1
        masked = single or all(self.nonnegative[t] for t in t_idx)
        bits = np.uint32(sum(1 << t for t in t_idx))
        if arith == 0 or single:
            if agg == 1:
                return ((self.mask & bits) != 0).sum(axis=0) if masked else None
            if self.ctx.n * sum(self.peaks[t] for t in t_idx) > _INT64_MAX:
                return None
            return _clamp(self.sums[list(t_idx)].sum(axis=0))
        if any(self.peaks[t] == 0 for t in t_idx):
            return np.zeros(self.tables.shape[2], dtype=np.int64)
        if agg == 1:
            return ((self.mask & bits) == bits).sum(axis=0) if masked else None
        if math.prod(self.peaks[t] for t in t_idx) > SATURATION_CEILING:
            return None
        combined = self.tables[t_idx[0]] * self.tables[t_idx[1]]
        for t in t_idx[2:]:
            combined *= self.tables[t]
        return _clamp(combined.sum(axis=0))

    def deviation(self, genome: Genome) -> int:
        t_idx, arith, agg, comp = _valid_layers(genome)
        y = self._aggregate(t_idx, arith, agg)
        if y is None:
            out = _forward(arith, agg, comp, self.ctx, [self.tables[t].T for t in t_idx])
        else:
            peak = self.tables.shape[1] if agg == 1 else SATURATION_CEILING
            out = _compare(comp, self.ctx, y, peak)
        return int(np.abs(out - self.costs).sum())

    def loss(self, genome: Genome) -> float:
        return self.deviation(genome) + regularization(genome)


def loss(g: Genome, space: LabeledSpace) -> float:
    """Eq.-style training loss: summed |prediction - cost| plus the length
    penalty. Costs must be present on every entry. One genome builds no
    tables; SpaceEvaluator scores many."""
    ctx, X, costs = _space_arrays(space)
    return int(np.abs(network_outputs(g, ctx, X) - costs).sum()) + regularization(g)


def normalized_mean_error(f: ErrorFunction, space: LabeledSpace) -> float:
    """Mean |prediction - cost| over the space, divided by its scope size.

    The genome is evaluated under the space's own context, so a function
    learned at one scope can be scored on spaces of any size.
    """
    if len(space) == 0:
        raise ValueError("normalized mean error undefined for an empty space")
    ctx, X, costs = _space_arrays(space)
    dev = np.abs(network_outputs(f.genome, ctx, X) - costs).mean()
    return float(dev) / space.constraint.n


# ---------------------------------------------------------------------------
# Genome files
# ---------------------------------------------------------------------------

_GENOME_MAGIC = "icn-genome v1"


def save_genome(f: ErrorFunction, path) -> None:
    ctx = f.ctx
    ctx_line = f"ctx n={ctx.n} d={ctx.d} p={ctx.p} lo={ctx.lo}"
    if ctx.kind is not None:
        ctx_line += f" kind={ctx.kind.value}"
    lines = [
        _GENOME_MAGIC,
        format(f.genome.value, f"0{GENOME_LENGTH}b"),
        ctx_line,
        f"# {describe_genome(f.genome)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_genome(path) -> ErrorFunction:
    """Read a genome file, rejecting with the file and line: a first line
    other than the magic line, a missing bit or ctx line, a bit line that
    is not 31 0/1 characters or breaks the layer rules, and a ctx line with
    a token that is not key=value, an unknown or repeated key, an unknown
    kind, a missing or non-integer n, d, p or lo, n or d below 1, or
    n * max(|lo|, |lo + d - 1|, |p|) at 2^62 or more, the bound of
    concepts.check_int64_safe, and a later line that is neither blank nor a
    `#` comment."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != _GENOME_MAGIC:
        raise ValueError(f"{path}:1: first line must be {_GENOME_MAGIC!r}")
    if len(lines) < 3:
        missing = "bit" if len(lines) == 1 else "ctx"
        raise ValueError(f"{path}:{len(lines) + 1}: missing the {missing} line")
    bit_text = lines[1].strip()
    if len(bit_text) != GENOME_LENGTH or set(bit_text) - {"0", "1"}:
        raise ValueError(f"{path}:2: bit line must be {GENOME_LENGTH} 0/1 characters")
    genome = Genome(int(bit_text, 2))
    if not validate(genome):
        raise ValueError(f"{path}:2: genome {bit_text} breaks the layer rules")
    ctx_line = lines[2].strip()
    if not ctx_line.startswith("ctx "):
        raise ValueError(f"{path}:3: ctx line must start with `ctx `")
    try:
        fields = parse_fields(ctx_line[4:], "ctx", ("n", "d", "p", "lo"), ("kind",))
        kind = parse_kind(fields["kind"]) if "kind" in fields else None
    except ValueError as exc:
        raise ValueError(f"{path}:3: {exc}") from None
    numbers = {}
    for key in ("n", "d", "p", "lo"):
        try:
            numbers[key] = parse_int(fields[key])
        except ValueError:
            raise ValueError(
                f"{path}:3: ctx {key} must be an integer, got {fields[key]!r}"
            ) from None
    if numbers["n"] < 1 or numbers["d"] < 1:
        raise ValueError(f"{path}:3: ctx n and d must be at least 1")
    try:
        check_int64_safe(
            numbers["n"], numbers["lo"], numbers["lo"] + numbers["d"] - 1, numbers["p"]
        )
    except ValueError as exc:
        raise ValueError(f"{path}:3: ctx {exc}, where hi = lo + d - 1") from None
    for number, line in enumerate(lines[3:], start=4):
        if line.strip() and not line.lstrip().startswith("#"):
            raise ValueError(
                f"{path}:{number}: expected a blank or `#` comment line after the ctx line"
            )
    return ErrorFunction(genome, EvalContext(**numbers, kind=kind))
