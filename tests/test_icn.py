import hashlib
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efkit import icn
from efkit.concepts import ConstraintInstance, ConstraintKind
from efkit.hamming import exhaustive_solution_set, label_space_costs
from efkit.icn import (
    EvalContext,
    ErrorFunction,
    Genome,
    SpaceEvaluator,
    alldifferent_reference_genome,
    ctx_from_constraint,
    describe_genome,
    genome_from_names,
    linear_sum_reference_genome,
    load_genome,
    loss,
    normalized_mean_error,
    regularization,
    repair,
    save_genome,
    validate,
)
from efkit.spaces import LabeledSpace, enumerate_complete, load_space

from oracles import genome_bits, straight_line_eval

ALLDIFF_CTX = EvalContext(n=4, d=5, p=0, lo=1)


def bits_of(**layers):
    bits = ["0"] * 31
    for layer, start in (("t", 0), ("a", 18), ("g", 20), ("c", 22)):
        for idx in layers.get(layer, []):
            bits[start + idx] = "1"
    return Genome(int("".join(bits), 2))


def test_validate():
    assert not validate(Genome(0))
    assert validate(alldifferent_reference_genome())
    two_comparisons = bits_of(t=[1], a=[0], g=[1], c=[0, 3])
    assert not validate(two_comparisons)
    no_transformation = bits_of(t=[], a=[0], g=[0], c=[0])
    assert not validate(no_transformation)


def test_repair():
    rng = random.Random(0)
    valid = alldifferent_reference_genome()
    assert repair(valid, rng) == valid

    three_comparisons = bits_of(t=[2], a=[1], g=[0], c=[1, 4, 7])
    fixed = repair(three_comparisons, rng)
    assert validate(fixed)
    assert fixed.layers.comparison in (1, 4, 7)
    assert fixed.layers[:3] == ((2,), 1, 0)

    fixed = repair(Genome(0), rng)
    assert validate(fixed)
    assert fixed.count() == 4


def test_repair_keeps_one_uniformly():
    genome = bits_of(t=[2], a=[1], g=[0], c=[1, 4, 7])
    rng = random.Random(12)
    seen = {1: 0, 4: 0, 7: 0}
    for _ in range(3000):
        seen[repair(genome, rng).layers.comparison] += 1
    for count in seen.values():
        assert abs(count / 3000 - 1 / 3) < 0.05


def test_evaluate_alldiff_reference():
    f = ErrorFunction(alldifferent_reference_genome(), ALLDIFF_CTX)
    X = np.array([[1, 1, 2, 3], [1, 2, 3, 4], [2, 2, 2, 2]])
    assert f.evaluate_batch(X).tolist() == [1, 0, 3]


def test_evaluate_linearsum_reference():
    ctx = EvalContext(n=3, d=3, p=6, lo=1)
    f = ErrorFunction(linear_sum_reference_genome(), ctx)
    assert f.evaluate_batch(np.array([[1, 2, 3], [3, 3, 3]])).tolist() == [0, 1]


def test_evaluate_arity_mismatch():
    f = ErrorFunction(alldifferent_reference_genome(), ALLDIFF_CTX)
    for X in (np.array([[1, 2, 3]]), np.array([1, 2, 3, 4]), np.ones((1, 1, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match=re.escape("expected shape (m, 4)")):
            f.evaluate_batch(X)


def test_non_integer_values_are_rejected_not_truncated():
    # Cast to int64, [1.7, 1.2, 3] would be scored as [1, 1, 3]: error 1.
    f = ErrorFunction(alldifferent_reference_genome(), EvalContext(3, 3, 0, 1))
    with pytest.raises(ValueError, match="got dtype float64"):
        f.evaluate_batch(np.array([[1.7, 1.2, 3]]))
    with pytest.raises(ValueError, match="got dtype float64"):
        f.evaluate_batch(np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError, match="got dtype object"):
        f.evaluate_batch(np.array([[1, 2, 2**70]]))
    with pytest.raises(ValueError, match="got dtype bool"):
        f.evaluate_batch(np.ones((2, 3), dtype=bool))
    for dtype in (np.int8, np.int32, np.uint16, np.int64, np.uint64):
        assert f.evaluate_batch(np.array([[1, 2, 2], [1, 2, 3]], dtype=dtype)).tolist() == [1, 0]
    # Cast to int64, 2^63 wraps to -2^63, which Count>0( identity ) does
    # not count: [[2^63, 1]] would score 1, not 2.
    count = ErrorFunction(genome_from_names(["identity"], "add", "Count>0", "identity"), EvalContext(2, 3, 0, 1))
    assert count.evaluate_batch(np.array([[2**62, 1], [2**63 - 1, 1]], dtype=np.uint64)).tolist() == [2, 2]
    for big in (2**63, 2**64 - 1):
        with pytest.raises(ValueError, match=f"value {big} does not fit int64"):
            count.evaluate_batch(np.array([[1, 1], [big, 1]], dtype=np.uint64))


def test_invalid_genome_rejected():
    with pytest.raises(ValueError):
        ErrorFunction(Genome(0), ALLDIFF_CTX)
    with pytest.raises(ValueError):
        Genome(1 << 31)  # 32 bits
    with pytest.raises(ValueError):
        Genome(-1)
    with pytest.raises(ValueError):
        Genome((0,) * 31)  # a bit tuple is not a genome


def test_evaluate_batch_matches_scalar():
    rng = random.Random(3)
    ctx = EvalContext(n=5, d=6, p=2, lo=0)
    genome = genome_from_names(
        ["count_lt_right", "gap_below_p"], "mul", "Sum", "Euclid_0"
    )
    f = ErrorFunction(genome, ctx)
    X = np.array([[rng.randint(0, 5) for _ in range(5)] for _ in range(40)])
    bits = genome_bits(genome.value)
    expected = [straight_line_eval(bits, ctx.n, ctx.d, ctx.p, row, ceiling=CEILING) for row in X.tolist()]
    assert f.evaluate_batch(X).tolist() == expected
    assert [f.evaluate_batch(X[i : i + 1]).tolist()[0] for i in range(len(X))] == expected


def test_describe_reference_forms():
    assert describe_genome(alldifferent_reference_genome()) == "Count>0( count_eq_right )"
    assert describe_genome(linear_sum_reference_genome()) == "Euclid_p( Sum( identity ) )"
    two = genome_from_names(["identity", "eq_p"], "mul", "Sum", "AbsDiff_n")
    assert describe_genome(two) == "AbsDiff_n( Sum( identity * eq_p ) )"
    added = genome_from_names(["count_eq_right", "lt_p"], "add", "Count>0", "identity")
    assert describe_genome(added) == "Count>0( count_eq_right + lt_p )"


# Every operation's bit position, name and function: a sha256 prefix over
# (genome int, describe_genome, network_outputs bytes) for each genome with
# one operation per layer, then for two fixed transformation mixes under
# every arithmetic, aggregation and comparison. Inputs have negative values
# and p != 0, so sign, order and p all reach the outputs.
CATALOG_MIXES = ((0, 1, 12), (6, 10, 15, 17))
GOLDEN_CATALOG = "ccff5a5ac306b4fe"


def test_catalog_golden():
    rng = np.random.default_rng(14)
    ctx = EvalContext(n=5, d=11, p=2, lo=-3)
    X = rng.integers(-3, 8, size=(300, 5))
    choices = [[(t,) for t in range(18)] + list(CATALOG_MIXES), range(2), range(2), range(9)]
    digest = hashlib.sha256()
    for t, a, g, c in itertools.product(*choices):
        genome = bits_of(t=t, a=[a], g=[g], c=[c])
        digest.update(f"{genome.value} {describe_genome(genome)}\n".encode())
        digest.update(icn.network_outputs(genome, ctx, X).tobytes())
    assert digest.hexdigest()[:16] == GOLDEN_CATALOG


def test_regularization_values():
    assert regularization(Genome(0)) == 0.0
    assert regularization(Genome(2**31 - 1)) == pytest.approx(0.9)
    four = alldifferent_reference_genome()
    assert regularization(four) == pytest.approx(0.9 * 4 / 31)


def alldiff_space_with_costs(n=3, lo=1, hi=3):
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, n, lo, hi)
    return label_space_costs(enumerate_complete(c), exhaustive_solution_set(c))


def test_loss_zero_deviation_leaves_regularization():
    space = alldiff_space_with_costs()
    g = alldifferent_reference_genome()
    assert loss(g, space) == pytest.approx(0.9 * 4 / 31)


def test_loss_on_empty_space_is_regularization_only():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 3)
    empty = LabeledSpace(
        c,
        np.zeros((0, 3), dtype=np.int64),
        np.zeros(0, dtype=bool),
        np.zeros(0, dtype=np.int64),
        complete=False,
    )
    g = alldifferent_reference_genome()
    assert loss(g, empty) == pytest.approx(regularization(g))


def test_loss_requires_costs_and_validity():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 3)
    space = enumerate_complete(c)
    with pytest.raises(ValueError):
        loss(alldifferent_reference_genome(), space)
    with pytest.raises(ValueError):
        loss(Genome(0), alldiff_space_with_costs())


def test_clearing_redundant_bit_shifts_loss_by_one_slot():
    # eq_p with p=0 never fires on a [1,3] domain, so dropping it changes
    # nothing but the length penalty.
    space = alldiff_space_with_costs()
    with_dead_op = genome_from_names(
        ["count_eq_right", "eq_p"], "add", "Count>0", "identity"
    )
    without = alldifferent_reference_genome()
    delta = loss(with_dead_op, space) - loss(without, space)
    assert delta == pytest.approx(0.9 / 31, abs=1e-12)


def test_reference_genomes_are_zero_on_solutions():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5)
    space = enumerate_complete(c)
    f = ErrorFunction(alldifferent_reference_genome(), ctx_from_constraint(c))
    outputs = f.evaluate_batch(space.assignments[space.labels])
    assert (outputs == 0).all()

    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 1, 5, p=12)
    space = enumerate_complete(c)
    f = ErrorFunction(linear_sum_reference_genome(), ctx_from_constraint(c))
    outputs = f.evaluate_batch(space.assignments[space.labels])
    assert (outputs == 0).all()

    # Sampled check far above the training scope.
    big = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 100, 1, 100)
    from efkit.spaces import sample_solutions

    sols = sample_solutions(big, 200, rng_seed=5)
    f = ErrorFunction(alldifferent_reference_genome(), ctx_from_constraint(big))
    assert (f.evaluate_batch(sols) == 0).all()


def test_normalized_mean_error_perfect_and_offset():
    space = alldiff_space_with_costs()
    perfect = ErrorFunction(alldifferent_reference_genome(), ALLDIFF_CTX)
    assert normalized_mean_error(perfect, space) == 0.0

    # On a solutions-only space with zero costs, |y - n| evaluates to n
    # everywhere, i.e. a constant off-by-n function: normalized error 1.
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 3)
    sols_only = LabeledSpace(
        c,
        exhaustive_solution_set(c).solutions,
        np.ones(6, dtype=bool),
        np.zeros(6, dtype=np.int64),
        complete=False,
    )
    off = genome_from_names(["count_eq_right"], "add", "Count>0", "AbsDiff_n")
    assert normalized_mean_error(ErrorFunction(off, ALLDIFF_CTX), sols_only) == 1.0

    with pytest.raises(ValueError):
        normalized_mean_error(
            perfect,
            LabeledSpace(
                c,
                np.zeros((0, 3), dtype=np.int64),
                np.zeros(0, dtype=bool),
                np.zeros(0, dtype=np.int64),
                complete=False,
            ),
        )


def test_normalized_mean_error_rebinds_to_space_context():
    # A genome learned at n=4 scores spaces of any arity.
    from efkit.spaces import sample_balanced_direct
    from efkit.hamming import label_space_costs_reference

    big = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 30, 1, 30)
    space = label_space_costs_reference(sample_balanced_direct(big, 50, rng_seed=2))
    trained_small = ErrorFunction(alldifferent_reference_genome(), ALLDIFF_CTX)
    assert normalized_mean_error(trained_small, space) == 0.0


def test_saturation_flagged_and_capped():
    ctx = EvalContext(n=50, d=100, p=0, lo=1)
    heavy = genome_from_names(
        ["identity", "count_eq_others", "max_with_next", "min_with_next"],
        "mul",
        "Sum",
        "identity",
    )
    f = ErrorFunction(heavy, ctx)
    X = np.full((4, 50), 100, dtype=np.int64)
    out = f.evaluate_batch(X)
    assert (out == icn.SATURATION_CEILING).all()  # 50 * 100 * 49 * 100 * 100 > 2^31 - 1
    assert (out <= icn.SATURATION_CEILING).all()
    assert (out >= 0).all()


def test_clamp_saturates_python_ints_beyond_int64():
    # add + Sum past int64 sums in Python ints (object dtype) and clamps those.
    C = icn.SATURATION_CEILING
    values = np.array([2**70, -(2**70), 2**63, -(2**63) - 1, C + 1, -C - 1, C, -C, 5, 0], dtype=object)
    out = icn._clamp(values)
    assert out.dtype == np.int64
    assert out.tolist() == [C, -C, C, -C, C, -C, C, -C, 5, 0]
    # Sums past int64 either way, through the whole network.
    ctx = EvalContext(n=2, d=2**62, p=0, lo=-(2**61))
    plus = genome_from_names(["identity", "max_with_next", "min_with_next"], "add", "Sum", "identity")
    rows = [[2**61 - 1, 2**61 - 1], [-(2**61), -(2**61)], [1, 2]]
    expected = [straight_line_eval(genome_bits(plus.value), 2, ctx.d, 0, row, ceiling=C) for row in rows]
    assert icn.network_outputs(plus, ctx, np.array(rows, dtype=np.int64)).tolist() == expected


PAIRWISE_RELATIONS = {
    "count_eq_right": (lambda xj, xi: xj == xi, lambda j, i: j > i),
    "count_eq_left": (lambda xj, xi: xj == xi, lambda j, i: j < i),
    "count_eq_others": (lambda xj, xi: xj == xi, lambda j, i: j != i),
    "count_lt_right": (lambda xj, xi: xj < xi, lambda j, i: j > i),
    "count_gt_right": (lambda xj, xi: xj > xi, lambda j, i: j > i),
    "count_lt_left": (lambda xj, xi: xj < xi, lambda j, i: j < i),
    "count_gt_left": (lambda xj, xi: xj > xi, lambda j, i: j < i),
}


@pytest.mark.parametrize("n", [255, 256, 257])
def test_pairwise_counts_around_the_uint8_cutoff(n):
    # A count reaches n - 1, which fits 8 bits up to n = 256: one row with
    # every value equal and one strictly increasing row reach it for each
    # relation on one side or the other.
    ctx = EvalContext(n=n, d=n, p=0, lo=1)
    X = np.array([[7] * n, list(range(1, n + 1))], dtype=np.int64)
    for name, (rel, side) in PAIRWISE_RELATIONS.items():
        out = icn._TRANSFORMATIONS[name](X, ctx)
        expected = [[sum(1 for j in range(n) if side(j, i) and rel(row[j], row[i])) for i in range(n)]
                    for row in X.tolist()]
        assert out.dtype == np.int64 and out.tolist() == expected, name


def test_genome_file_round_trip(tmp_path):
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 1, 5, p=12)
    f = ErrorFunction(linear_sum_reference_genome(), ctx_from_constraint(c))
    path = tmp_path / "fn.genome.txt"
    save_genome(f, path)
    text = path.read_text().splitlines()
    assert text[0] == "icn-genome v1"
    assert len(text[1]) == 31
    assert text[2] == "ctx n=4 d=5 p=12 lo=1 kind=linearsum"
    assert text[3] == "# Euclid_p( Sum( identity ) )"

    loaded = load_genome(path)
    assert loaded.genome == f.genome
    assert loaded.ctx == f.ctx
    path2 = tmp_path / "fn2.genome.txt"
    save_genome(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_genome_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    for text, line, message in [
        ("something else\n", 1, "first line must be 'icn-genome v1'"),
        ("", 1, "first line must be 'icn-genome v1'"),
        ("icn-genome v1\n", 2, "missing the bit line"),
        (f"icn-genome v1\n{GOOD_BITS}\n", 3, "missing the ctx line"),
        ("icn-genome v1\n0101\nctx n=4 d=5 p=0 lo=1\n", 2, "bit line must be 31 0/1 characters"),
        (f"icn-genome v1\n{'0' * 31}\nn=4 d=5\n", 2, "breaks the layer rules"),
        (f"icn-genome v1\n{GOOD_BITS}\nn=4 d=5\n", 3, "ctx line must start with `ctx `"),
        # y - p would wrap int64 inside the network, or overflow the cast.
        (f"icn-genome v1\n{EXCESS_BITS}\nctx n=3 d=4 p=-9223372036854775807 lo=1 kind=alldiff\n",
         3, "ctx n * max(|lo|, |hi|, |p|) must be below 2^62"),
        (f"icn-genome v1\n{EXCESS_BITS}\nctx n=3 d=4 p=100000000000000000000000 lo=1 kind=alldiff\n",
         3, "ctx n * max(|lo|, |hi|, |p|) must be below 2^62"),
        (f"icn-genome v1\n{EXCESS_BITS}\nctx n=2 d={2**61 + 1} p=0 lo=0\n", 3, "where hi = lo + d - 1"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{line}: ')}.*{re.escape(message)}"):
            load_genome(path)


GOOD_BITS = "0100000000000000001001100000000"  # Count>0( count_eq_right )
EXCESS_BITS = "1000000000000000001001000001000"  # Excess_p( Count>0( identity ) )


def test_genome_file_rejects_lines_after_ctx_that_are_not_comments(tmp_path):
    path = tmp_path / "extra.genome.txt"
    head = f"icn-genome v1\n{GOOD_BITS}\nctx n=4 d=5 p=0 lo=1\n"
    for tail, line in [
        (f"not a comment\n{'1' * 31}\nctx n=9 d=9 p=9 lo=9\n", 4),
        (f"# Count>0( count_eq_right )\n\n{GOOD_BITS}\n", 6),
    ]:
        path.write_text(head + tail)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{line}: ')}expected a blank or `#` comment"):
            load_genome(path)
    path.write_text(head + "# Count>0( count_eq_right )\n\n  # a note\n")
    assert load_genome(path).genome.value == int(GOOD_BITS, 2)


@pytest.mark.parametrize(
    "bits, ctx_line, line, message",
    [
        (GOOD_BITS, "ctx n=4 d=x p=0 lo=1", 3, "ctx d must be an integer"),
        (GOOD_BITS, "ctx n=4 d=5 p=0 lo=1 n=9", 3, "duplicate ctx key 'n'"),
        (GOOD_BITS, "ctx n=4 d=5 p=0 lo=1 scale=2", 3, "unknown ctx key 'scale'"),
        (GOOD_BITS, "ctx n=0 d=5 p=0 lo=1", 3, "n and d must be at least 1"),
        (GOOD_BITS, "ctx n=4 d=0 p=0 lo=1", 3, "n and d must be at least 1"),
        (GOOD_BITS, "ctx n=4 d=5 p=0", 3, "ctx line missing 'lo'"),
        (GOOD_BITS, "ctx n=4 d=5 p=0 lo=1 kind=banana", 3, "unknown constraint kind"),
        ("0100000000000000001001100000001", "ctx n=4 d=5 p=0 lo=1", 2, "breaks the layer rules"),
        (GOOD_BITS, "ctx n=4 d=5 p=+0 lo=1", 3, "ctx p must be an integer, got '+0'"),
        (GOOD_BITS, "ctx n=4 d=0_5 p=0 lo=1", 3, "ctx d must be an integer, got '0_5'"),
        (GOOD_BITS, "ctx n=\uff14 d=5 p=0 lo=1", 3, "ctx n must be an integer, got '\uff14'"),
    ],
    ids=["non-integer", "duplicate-key", "unknown-key", "n-below-1", "d-below-1",
         "missing-key", "unknown-kind", "layer-rules", "plus-sign", "underscore",
         "full-width-digit"],
)
def test_genome_file_rejections_name_file_and_line(tmp_path, bits, ctx_line, line, message):
    path = tmp_path / "bad.genome.txt"
    path.write_text(f"icn-genome v1\n{bits}\n{ctx_line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: .*{re.escape(message)}"):
        load_genome(path)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

# Derandomized, so that every run of the suite draws the same examples.
PROPERTY = settings(deadline=None, derandomize=True)
CEILING = 2**31 - 1
LAYER_BOUNDS = ((0, 18), (18, 20), (20, 22), (22, 31))

valid_genomes = st.builds(
    lambda t, a, g, c: genome_from_names(
        [icn.TRANSFORMATION_NAMES[i] for i in sorted(t)],
        icn.ARITHMETIC_NAMES[a],
        icn.AGGREGATION_NAMES[g],
        icn.COMPARISON_NAMES[c],
    ),
    st.sets(st.integers(0, 17), min_size=1),
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 8),
)


@settings(PROPERTY, max_examples=300)
@given(value=st.integers(0, 2**31 - 1), seed=st.integers(0, 2**32))
def test_repair_fixes_only_broken_layers(value, seed):
    fixed = repair(Genome(value), random.Random(seed))
    before, after = format(value, "031b"), format(fixed.value, "031b")
    assert validate(fixed)
    for layer, (start, stop) in enumerate(LAYER_BOUNDS):
        old, new = before[start:stop], after[start:stop]
        ones = [i for i, b in enumerate(old) if b == "1"]
        if ones and (layer == 0 or len(ones) == 1):
            assert new == old  # layer already obeyed the rules
        elif ones:
            assert new.count("1") == 1 and new.index("1") in ones
        else:
            assert new.count("1") == 1
    if validate(Genome(value)):
        assert fixed == Genome(value)


def draw_bounds(draw, n):
    """lo <= hi and p: a small domain with p near it, or bounds anywhere
    below the instance limit n * max(|lo|, |hi|, |p|) < 2^62."""
    if draw(st.booleans()):
        lo = draw(st.integers(-60, 60))
        hi = lo + draw(st.integers(0, 59))
        return lo, hi, draw(st.integers(lo - 10, hi + 11))
    bound = (2**62 - 1) // max(n, 2)
    lo = draw(st.integers(-bound, bound))
    return lo, draw(st.integers(lo, bound)), draw(st.integers(-bound, bound))


@st.composite
def contexts_and_rows(draw):
    n = draw(st.integers(1, 7))
    lo, hi, p = draw_bounds(draw, n)
    rows = draw(st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=1, max_size=4))
    return EvalContext(n=n, d=hi - lo + 1, p=p, lo=lo), rows


# Products that pass the saturation ceiling. In the first, two saturated
# positive products and one saturated negative product are summed, which
# tells clamping after every product from clamping only the sum.
SATURATING_MIXED = (
    genome_from_names(["identity", "max_with_next", "min_with_next", "gap_above_p"], "mul", "Sum", "identity"),
    (EvalContext(n=4, d=2119, p=-40, lo=-1059), [[1059, 1059, 1058, -3], [1059] * 4]),
)
SATURATING_NEGATIVE = (
    genome_from_names(["identity", "max_with_next", "min_with_next", "gap_below_p"], "mul", "Sum", "AbsDiff_p"),
    (EvalContext(n=4, d=60, p=5, lo=-1059), [[-1000, -1059, -1001, -1058], [-1059] * 4]),
)
# Four additions per position stay inside int64, but the row sum of two
# positions, 8 * (2^61 - 1), would wrap it.
WRAPPING_ADDITION = (
    genome_from_names(["identity", "max_with_next", "min_with_next", "gap_above_p"], "add", "Sum", "identity"),
    (EvalContext(n=2, d=2**61, p=0, lo=0), [[2**61 - 1, 2**61 - 1], [2**61 - 1, 0]]),
)

# Count>0 bounds y by n, but a comparison against p = 2^40 or d = 2^32
# leaves the output past the saturation ceiling, so it must still clamp.
COUNT_PAST_CEILING = [
    (genome_from_names(["count_eq_right"], "add", "Count>0", comparison),
     (EvalContext(n=3, d=d, p=p, lo=1), [[1, 2, 3], [2, 2, 2]]))
    for comparison, d, p in (
        ("AbsDiff_p", 3, 2**40), ("Shortfall_p", 3, 2**40), ("Euclid_p", 3, 2**40), ("AbsDiff_d", 2**32, 0),
    )
]


@settings(PROPERTY, max_examples=250)
@given(genome=valid_genomes, case=contexts_and_rows())
@example(*SATURATING_MIXED)
@example(*SATURATING_NEGATIVE)
@example(*WRAPPING_ADDITION)
@example(*COUNT_PAST_CEILING[0])
@example(*COUNT_PAST_CEILING[1])
@example(*COUNT_PAST_CEILING[2])
@example(*COUNT_PAST_CEILING[3])
def test_evaluate_matches_straight_line_reimplementation(genome, case):
    """Valid genomes vs the naive loop oracle, which saturates as the
    network does."""
    ctx, rows = case
    out = icn.network_outputs(genome, ctx, np.array(rows, dtype=np.int64))
    bits = genome_bits(genome.value)
    expected = [straight_line_eval(bits, ctx.n, ctx.d, ctx.p, row, ceiling=CEILING) for row in rows]
    assert out.tolist() == expected
    assert ErrorFunction(genome, ctx).evaluate_batch(np.array(rows[:1], dtype=np.int64)).tolist() == expected[:1]


def space_of(n, lo, hi, p, rows, costs):
    """A linearsum space over [lo, hi] (widened toward 0 to two values when
    lo == hi) holding the given rows and costs; labels are not consulted."""
    if lo == hi:
        lo, hi = (lo - 1, hi) if lo > 0 else (lo, hi + 1)
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, n, lo, hi, p)
    m = len(rows)
    X = np.array(rows, dtype=np.int64).reshape(m, n)
    return LabeledSpace(c, X, np.zeros(m, dtype=bool), np.array(costs, dtype=np.int64), complete=False)


@st.composite
def spaces_and_genomes(draw):
    n = draw(st.integers(2, 6))
    lo, hi, p = draw_bounds(draw, n)
    rows = draw(st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n), max_size=12))
    costs = draw(st.lists(st.integers(0, 2**31), min_size=len(rows), max_size=len(rows)))
    return space_of(n, lo, hi, p, rows, costs), draw(st.lists(valid_genomes, min_size=1, max_size=8))


def every_path(*transformations):
    return [genome_from_names(transformations, a, g, "identity")
            for a in icn.ARITHMETIC_NAMES for g in icn.AGGREGATION_NAMES]


def count_comparisons(*comparisons):
    """Count>0 genomes ending in the given comparisons, on the mask path
    (one transformation) and, where the space holds negative values, on the
    general forward pass (identity plus a count)."""
    return [genome_from_names(t, "add", "Count>0", c)
            for c in comparisons for t in (["count_eq_right"], ["identity", "count_eq_right"])]


@settings(PROPERTY, max_examples=200)
@given(case=spaces_and_genomes())
@example((  # eq_p never fires on [1, 5] with p = 0: identically zero
    space_of(3, 1, 5, 0, [[1, 2, 3], [5, 5, 1], [4, 4, 4]], [0, 1, 2]),
    every_path("identity", "eq_p") + every_path("eq_p") + every_path("count_eq_right", "lt_p"),
))
@example((  # negative transformations, where positivity says nothing about sums
    space_of(3, -2, 2, 1, [[-2, -1, 0], [2, -2, 2], [0, 0, 0], [1, 1, -1]], [3, 0, 1, 2]),
    every_path("identity", "count_eq_right") + every_path("identity", "drop_to_next", "gap_above_p"),
))
@example((  # products past the saturation ceiling
    space_of(4, -1059, 1059, -40, [[1059, 1059, 1058, -3], [1059] * 4, [-1059] * 4], [0, 5, 2**31]),
    every_path("identity", "max_with_next", "min_with_next", "gap_above_p"),
))
@example((  # add + Sum past int64, exact only in Python ints
    space_of(2, 0, 2**61 - 1, 0, [[2**61 - 1, 2**61 - 1], [2**61 - 1, 0]], [0, 7]),
    every_path("identity", "max_with_next", "min_with_next", "gap_above_p") + every_path("identity"),
))
@example((space_of(3, -2, 2, 0, [], []), every_path("identity", "lt_p") + every_path("count_eq_others")))
@example((  # Count>0 outputs past the saturation ceiling: p = 2^40, then d = 2^32
    space_of(3, -2, 5, 2**40, [[1, 2, 3], [2, 2, 2], [5, -2, 5]], [0, 1, 2**31 - 1]),
    count_comparisons("AbsDiff_p", "Shortfall_p", "Euclid_p"),
))
@example((
    space_of(3, -5, 2**32 - 6, 0, [[1, 2, 3], [2, 2, 2], [2**32 - 6, -5, 2**32 - 6]], [0, 1, 2**31 - 1]),
    count_comparisons("AbsDiff_d"),
))
def test_space_evaluator_deviation_matches_network_outputs(case):
    space, genomes = case
    evaluator = SpaceEvaluator(space)
    ctx = ctx_from_constraint(space.constraint)
    for genome in genomes:
        outputs = icn.network_outputs(genome, ctx, space.assignments)
        assert evaluator.deviation(genome) == int(np.abs(outputs - space.costs).sum())
        assert evaluator.loss(genome) == loss(genome, space)


@settings(PROPERTY, max_examples=100)
@given(
    genome=valid_genomes,
    ctx=st.builds(
        EvalContext,
        n=st.integers(1, 10**6),
        d=st.integers(1, 10**6),
        p=st.integers(-(10**6), 10**6),
        lo=st.integers(-(10**6), 10**6),
        kind=st.none() | st.sampled_from(ConstraintKind),
    ),
)
def test_genome_file_round_trip_property(tmp_path_factory, genome, ctx):
    path = tmp_path_factory.getbasetemp() / "property.genome.txt"
    f = ErrorFunction(genome, ctx)
    save_genome(f, path)
    text = path.read_bytes()
    loaded = load_genome(path)
    assert loaded == f
    save_genome(loaded, path)
    assert path.read_bytes() == text


def _rejects_only_with_value_error(loader, path, text):
    path.write_text(text)
    try:
        loader(path)
    except ValueError:
        pass


ctx_tokens = st.one_of(
    st.builds(
        "{}={}".format,
        st.sampled_from(["n", "d", "p", "lo", "kind", "x", ""]),
        st.one_of(st.integers(-(10**20), 10**20).map(str), st.sampled_from(["alldiff", "ordered", "", "1.5", "x"])),
    ),
    st.text(max_size=8),
)
genome_texts = st.one_of(
    st.text(max_size=120),
    st.builds(
        "icn-genome v1\n{}\nctx {}\n{}".format,
        st.one_of(st.text(alphabet="01", min_size=29, max_size=33), st.text(max_size=40)),
        st.lists(ctx_tokens, max_size=7).map(" ".join),
        st.text(max_size=20),
    ),
)


@settings(PROPERTY, max_examples=200)
@given(text=genome_texts)
def test_genome_loader_fuzz_raises_only_value_error(tmp_path_factory, text):
    _rejects_only_with_value_error(load_genome, tmp_path_factory.getbasetemp() / "fuzz.genome.txt", text)


numbers = st.one_of(st.integers(-3, 8), st.integers(-(10**20), 10**20)).map(str)
header_tokens = st.one_of(
    st.builds("{}={}".format, st.sampled_from(["kind", "n", "lo", "hi", "p", "complete", "x"]),
              st.one_of(numbers, st.sampled_from(["alldiff", "linearsum", "minimum", "nooverlap", "ordered", ""]))),
    st.text(max_size=8),
)
plausible_headers = st.builds(
    "{} complete={}".format,
    st.sampled_from([
        "kind=alldiff n=3 lo=1 hi=3 p=0",
        "kind=linearsum n=2 lo=-2 hi=2 p=1",
        "kind=minimum n=3 lo=0 hi=4 p=2",
        "kind=nooverlap n=2 lo=1 hi=5 p=2",
        "kind=ordered n=2 lo=-1 hi=1 p=0",
    ]),
    st.sampled_from(["0", "1"]),
)
space_rows = st.one_of(
    st.builds(
        "{} | {} | {}".format,
        st.lists(numbers, min_size=2, max_size=3).map(" ".join),
        st.sampled_from(["0", "1", "2", ""]),
        st.one_of(numbers, st.just("-")),
    ),
    st.text(max_size=20),
)
space_texts = st.one_of(
    st.text(max_size=120),
    st.builds(
        lambda header, rows: "\n".join(["# constraint " + header, *rows]) + "\n",
        plausible_headers | st.lists(header_tokens, max_size=7).map(" ".join),
        st.lists(space_rows, max_size=6),
    ),
)


@settings(PROPERTY, max_examples=300)
@given(text=space_texts)
@example(text="# constraint kind=alldiff n=3 lo=1 hi=3 p=0 complete=0\n1 2 100000000000000000000 | 0 | 1\n")
@example(text="# constraint kind=alldiff n=3 lo=1 hi=3 p=0 complete=0\n1 2 2 | 0 | 9223372036854775808\n")
def test_space_loader_fuzz_raises_only_value_error(tmp_path_factory, text):
    _rejects_only_with_value_error(load_space, tmp_path_factory.getbasetemp() / "fuzz.space.txt", text)
