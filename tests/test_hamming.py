import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efkit import concepts, hamming
from efkit.concepts import ConstraintInstance, ConstraintKind, reference_costs_batch
from efkit.hamming import (
    SolutionSet,
    UnsatisfiableConstraintError,
    exhaustive_solution_set,
    label_space_costs,
    label_space_costs_reference,
    nearest_distances,
    solution_set_from_space,
)
from efkit.spaces import LabeledSpace, enumerate_complete, sample_balanced

from oracles import brute_force_hamming

ALLDIFF3 = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 3)


def test_exact_hamming_examples():
    sols = exhaustive_solution_set(ALLDIFF3)
    assert len(sols) == 6 and sols.exhaustive
    assert nearest_distances([[1, 2, 3], [1, 1, 2], [2, 2, 2]], sols.solutions).tolist() == [0, 1, 2]


def test_approx_hamming_bounds_exact():
    full = exhaustive_solution_set(ALLDIFF3).solutions
    sample = np.array([[1, 2, 3]])
    assert nearest_distances([[1, 2, 3], [3, 2, 1]], sample).tolist() == [0, 2]
    assert nearest_distances([[3, 2, 1]], full).tolist() == [0]
    xs = [[1, 1, 1], [2, 1, 3], [3, 3, 1]]
    assert (nearest_distances(xs, sample) >= nearest_distances(xs, full)).all()


def test_adding_solutions_never_increases_approx():
    full = exhaustive_solution_set(ALLDIFF3).solutions
    rng = np.random.default_rng(4)
    order = rng.permutation(len(full))
    queries = [[1, 1, 2], [2, 2, 2], [3, 1, 1], [1, 3, 2]]
    previous = None
    for k in range(1, len(full) + 1):
        dist = nearest_distances(queries, full[order[:k]])
        if previous is not None:
            assert (dist <= previous).all()
        previous = dist


def test_exact_matches_reference_closed_forms_exhaustively():
    instances = [
        ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5),
        ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 1, 5, p=12),
        ConstraintInstance(ConstraintKind.MINIMUM, 4, 1, 5, p=3),
        ConstraintInstance(ConstraintKind.ORDERED, 4, 1, 5),
        ConstraintInstance(ConstraintKind.NO_OVERLAP_1D, 3, 1, 5, p=2),
    ]
    for c in instances:
        space = enumerate_complete(c)
        exact = nearest_distances(space.assignments, exhaustive_solution_set(c).solutions)
        assert exact.tolist() == reference_costs_batch(c, space.assignments).tolist()
        assert ((exact == 0) == space.labels).all()


def test_label_space_costs_complete():
    space = enumerate_complete(ALLDIFF3)
    labeled = label_space_costs(space, exhaustive_solution_set(ALLDIFF3))
    assert labeled.has_costs
    assert set(int(v) for v in labeled.costs) == {0, 1, 2}
    for label, cost in zip(labeled.labels, labeled.costs):
        assert (cost == 0) == label


def test_label_space_costs_incomplete_uses_sampled_solutions():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 5, 1, 6)
    space = sample_balanced(c, 30, rng_seed=17)
    sols = solution_set_from_space(space)
    assert not sols.exhaustive
    labeled = label_space_costs(space, sols)
    for x, label, cost in zip(labeled.assignments.tolist(), labeled.labels, labeled.costs):
        if label:
            assert cost == 0
        else:
            assert cost >= 1
            assert cost == min(sum(a != b for a, b in zip(x, s)) for s in sols.solutions.tolist())


def test_label_space_costs_flag_mismatch():
    space = enumerate_complete(ALLDIFF3)
    sampled = SolutionSet(ALLDIFF3, np.array([[1, 2, 3]]), exhaustive=False)
    with pytest.raises(ValueError):
        label_space_costs(space, sampled)


def test_label_space_costs_empty_space():
    empty = LabeledSpace(
        ALLDIFF3,
        np.zeros((0, 3), dtype=np.int64),
        np.zeros(0, dtype=bool),
        None,
        complete=False,
    )
    labeled = label_space_costs(
        empty, SolutionSet(ALLDIFF3, np.array([[1, 2, 3]]), exhaustive=False)
    )
    assert len(labeled) == 0 and labeled.has_costs


def test_label_space_costs_unsatisfiable():
    unsat = ConstraintInstance(ConstraintKind.MINIMUM, 3, 1, 4, p=9)
    space = enumerate_complete(unsat)
    with pytest.raises(UnsatisfiableConstraintError):
        label_space_costs(space, exhaustive_solution_set(unsat))


def test_reference_costs_agree_with_exact_on_complete_spaces():
    for c in (
        ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5),
        ConstraintInstance(ConstraintKind.LINEAR_SUM, 3, 1, 6, p=9),
        ConstraintInstance(ConstraintKind.MINIMUM, 3, 1, 6, p=4),
        ConstraintInstance(ConstraintKind.ORDERED, 4, 1, 4),
        ConstraintInstance(ConstraintKind.NO_OVERLAP_1D, 3, 1, 6, p=2),
    ):
        space = enumerate_complete(c)
        by_scan = label_space_costs(space, exhaustive_solution_set(c))
        by_form = label_space_costs_reference(space)
        assert (by_scan.costs == by_form.costs).all()


_NO_OVERLAP = ConstraintKind.NO_OVERLAP_1D


@st.composite
def no_overlap_cases(draw):
    """NoOverlap1D instances that fit, d from (n - 1) * p + 1 up to 8, with
    rows over their domain."""
    n = draw(st.integers(2, 5))
    p = draw(st.integers(1, min(4, 7 // (n - 1))))
    lo = draw(st.integers(-3, 3))
    hi = lo + draw(st.integers((n - 1) * p + 1, 8)) - 1
    row = st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    return ConstraintInstance(_NO_OVERLAP, n, lo, hi, p), rows


@settings(deadline=None, derandomize=True, max_examples=100)
@given(case=no_overlap_cases())
# The first three fit exactly, d = (n - 1) * p + 1: one set of starts, evenly spaced.
@example((ConstraintInstance(_NO_OVERLAP, 3, -2, 4, p=3),
          [[-2, 1, 4], [4, 1, -2], [-1, 0, 3], [0, 0, 0]]))
@example((ConstraintInstance(_NO_OVERLAP, 2, 3, 7, p=4), [[3, 7], [4, 6], [7, 7], [5, 3]]))
@example((ConstraintInstance(_NO_OVERLAP, 5, 0, 4, p=1), [[0, 1, 2, 3, 4], [4, 4, 0, 0, 2]]))
@example((ConstraintInstance(_NO_OVERLAP, 4, -3, 4, p=1),
          [[-3, -3, 4, 4], [1, 2, 1, 0], [0, 2, -1, 3]]))
def test_no_overlap_closed_form_matches_brute_force(case):
    """At p = 1 the starts only need to differ, so the costs are
    AllDifferent's; a cell budget of 1 runs the DP one row at a time."""
    c, rows = case
    costs = reference_costs_batch(c, rows).tolist()
    assert costs == [brute_force_hamming("nooverlap", c.p, c.lo, c.hi, x) for x in rows]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concepts, "_NO_OVERLAP_CHUNK_CELLS", 1)
        assert reference_costs_batch(c, rows).tolist() == costs
    if c.p == 1:
        alldiff = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, c.n, c.lo, c.hi)
        assert reference_costs_batch(alldiff, rows).tolist() == costs


def test_no_overlap_closed_form_rejects_a_value_outside_the_domain():
    c = ConstraintInstance(_NO_OVERLAP, 3, 1, 6, p=2)
    for bad in (0, 7, -5):
        with pytest.raises(ValueError, match=f"value {bad} outside domain \\[1, 6\\]"):
            reference_costs_batch(c, [[1, 3, 5], [2, bad, 4]])


@st.composite
def queries_and_solutions(draw):
    """Solution values from a small or a very wide range; query values may
    lie outside it, and there may be no queries."""
    n = draw(st.integers(1, 6))
    lo = draw(st.integers(-(2**60), 2**60) | st.integers(-5, 5))
    width = draw(st.integers(0, 12) | st.integers(0, 2**61))
    solution_values = st.integers(lo, lo + width)
    query_values = solution_values | st.integers(lo - 3, lo + width + 3)
    solutions = draw(st.lists(st.lists(solution_values, min_size=n, max_size=n), min_size=1, max_size=15))
    queries = draw(st.lists(st.lists(query_values, min_size=n, max_size=n), max_size=15))
    return n, queries, solutions


@settings(deadline=None, derandomize=True, max_examples=300)
@given(case=queries_and_solutions())
@example((3, [], [[1, 2, 3]]))
@example((2, [[-1, -2], [-3, 0], [7, -2]], [[-1, -2], [-2, -1], [0, 0]]))
@example((2, [[0, 2**40], [5, 7], [0, 0]], [[0, 2**40], [5, -(2**40)]]))
def test_nearest_distances_match_brute_force(case):
    n, queries, solutions = case
    got = nearest_distances(np.array(queries, dtype=np.int64).reshape(len(queries), n),
                            np.array(solutions, dtype=np.int64))
    expected = [min(sum(a != b for a, b in zip(q, s)) for s in solutions) for q in queries]
    assert got.dtype == np.int64
    assert got.tolist() == expected


@pytest.mark.parametrize("cells", [1, 40, 150])
def test_nearest_distances_in_blocks_of_solutions_and_queries(monkeypatch, cells):
    """Blocks smaller than the solution set keep the per-query maximum over
    every block; one cell makes every block a single row."""
    monkeypatch.setattr("efkit.hamming._PRODUCT_CHUNK_CELLS", cells)
    rng = np.random.default_rng(3)
    solutions = rng.integers(-2, 3, size=(37, 4))
    queries = rng.integers(-4, 5, size=(23, 4))
    expected = [min(int((q != s).sum()) for s in solutions) for q in queries]
    assert nearest_distances(queries, solutions).tolist() == expected


def test_nearest_distances_at_the_one_hot_row_limit():
    """Solutions whose one-hot row is just inside or just past the limit
    give the brute-force distances on either side."""
    limit = hamming._ONEHOT_MAX_ROW_CELLS
    for span in (limit // 2 - 2, limit // 2 - 1):
        solutions = np.array([[0, span], [span, 0], [5, 5]])
        queries = np.array([[0, 0], [span, span], [5, span], [7, 8]])
        expected = [min(int((q != s).sum()) for s in solutions) for q in queries]
        assert nearest_distances(queries, solutions).tolist() == expected
