import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efkit import icn
from efkit.icn import EvalContext, ErrorFunction, genome_from_names
from efkit.solver import (
    Constraint,
    Model,
    _all_distinct,
    benchmark_sudoku,
    build_sudoku,
    derive_seeds,
    solve,
)

from oracles import duplicate_positions, equal_pairs


def row_by_row(error):
    """An error_batch that calls a one-row error on each row."""
    return lambda X: np.array([error(row) for row in X.tolist()], dtype=np.int64)


def test_alldiff_primal_violation():
    # The handcrafted error counts the index pairs that share a value.
    error = build_sudoku(3, "handcrafted").constraints[0].error
    assert error([1, 2, 3]) == 0
    assert error([1, 1, 1]) == 3
    assert error([1, 1, 2, 2]) == 2
    assert error([5, 5, 5, 5]) == 6


def _has_duplicate(x):
    """The 0/1 violation indicator, from the duplicate-position oracle."""
    return int(duplicate_positions(x) > 0)


@pytest.mark.parametrize("k", [3, 4])
def test_batch_errors_match_scalar_references(k):
    batch = build_sudoku(k, "predicate").constraints[0].error_batch
    width = k * k
    rng = np.random.default_rng(width)
    X = np.concatenate(
        [
            rng.integers(1, width + 1, size=(300, width)),
            np.full((2, width), 4),  # all equal
            np.array([rng.permutation(width) + 1 for _ in range(2)]),  # all distinct
        ]
    )
    got = batch(X)
    assert got.dtype == np.int64
    assert got.tolist() == [_has_duplicate(row) for row in X.tolist()]
    assert got[-4] > 0 and got[-2] == got[-1] == 0


def test_build_sudoku_shapes():
    m = build_sudoku(3, "predicate")
    assert m.variable_count == 81
    assert len(m.constraints) == 27
    assert all(len(con.scope) == 9 for con in m.constraints)
    assert m.domains == [(1, 9)] * 81

    m = build_sudoku(4, "handcrafted")
    assert m.variable_count == 256
    assert len(m.constraints) == 48
    assert all(len(con.scope) == 16 for con in m.constraints)

    with pytest.raises(ValueError):
        build_sudoku(2, "predicate")
    with pytest.raises(ValueError):
        build_sudoku(3, "min_conflicts")


def test_sudoku_scopes_cover_rows_columns_boxes():
    m = build_sudoku(3, "handcrafted")
    scopes = [set(con.scope) for con in m.constraints]
    assert set(range(0, 9)) in scopes  # first row
    assert set(range(0, 81, 9)) in scopes  # first column
    box = {0, 1, 2, 9, 10, 11, 18, 19, 20}
    assert box in scopes


def test_hardcoded_requires_reference_genome():
    other = genome_from_names(["count_eq_left"], "add", "Count>0", "identity")
    with pytest.raises(ValueError):
        build_sudoku(3, "icn_hardcoded", genome=other)
    build_sudoku(3, "icn_feedforward", genome=other)  # feed-forward takes any


def test_feedforward_and_hardcoded_agree():
    ff = build_sudoku(3, "icn_feedforward")
    hc = build_sudoku(3, "icn_hardcoded")
    rng = np.random.default_rng(0)
    X = rng.integers(1, 10, size=(500, 9))
    batch = ff.constraints[0].error_batch(X)
    for row, expected in zip(X, batch):
        assert hc.constraints[0].error(list(row)) == int(expected)


def test_predicate_sudoku_scores_0_1_through_one_evaluator():
    # One shared evaluator puts a cell's three constraints in one group, so
    # a predicate move is one error_batch call, as in the other variants.
    m = build_sudoku(3, "predicate")
    assert len({con.error_batch for con in m.constraints}) == 1
    con = m.constraints[0]
    X = np.array([list(range(1, 10)), [1] * 9, [1, 2, 3, 4, 5, 6, 7, 8, 8]])
    assert con.error_batch(X).tolist() == [0, 1, 1]
    assert [con.error(row) for row in X.tolist()] == [0, 1, 1]


def test_constraint_requires_an_error_function():
    with pytest.raises(ValueError, match="no error function"):
        Constraint(scope=(0, 1), predicate=lambda v: v[0] != v[1])


def test_constraint_takes_one_error_form():
    # Each form is the whole definition; a second one could disagree, and
    # the solver would read only one of them. error is derived from the one
    # given, so it is no input.
    named = r"scope \(0, 1\) gives error_batch and count_terms; give exactly one error form"
    with pytest.raises(ValueError, match=named):
        Constraint(scope=(0, 1), predicate=lambda v: True, error_batch=row_by_row(equal_pairs),
                   count_terms=(0, 0, 1))
    with pytest.raises(TypeError, match="unexpected keyword argument 'error'"):
        Constraint(scope=(0, 1), predicate=lambda v: True, error=equal_pairs)


def test_solve_trivial_model_is_immediate():
    cons = [Constraint(scope=(0, 1), error_batch=row_by_row(lambda v: 0), predicate=lambda v: True)]
    m = Model([(1, 3), (1, 3)], cons)
    out = solve(m, timeout_ms=1000, rng_seed=0)
    assert out.status == "solved"
    assert out.iterations == 0
    assert out.restarts == 0


def test_solve_timeout_is_a_normal_outcome():
    cons = [Constraint(scope=(0, 1), error_batch=row_by_row(lambda v: 1), predicate=lambda v: False)]
    m = Model([(1, 3), (1, 3)], cons)
    out = solve(m, timeout_ms=100, rng_seed=0)
    assert out.status == "timeout"
    assert out.assignment is None
    with pytest.raises(ValueError):
        solve(m, timeout_ms=0, rng_seed=0)


def test_solve_with_no_movable_variable_times_out_at_once():
    # Both domains hold one value and the constraint is violated: no move
    # exists, so the search gives up without waiting for the deadline.
    cons = [Constraint(scope=(0, 1), error_batch=row_by_row(lambda v: int(v[0] == v[1])),
                       predicate=lambda v: v[0] != v[1])]
    out = solve(Model([(1, 1), (1, 1)], cons), timeout_ms=10000, rng_seed=0)
    assert out.status == "timeout" and out.assignment is None
    assert out.elapsed_ms < 1000


def test_solve_never_moves_a_fixed_variable():
    alldiff = Constraint(
        scope=(0, 1, 2),
        error_batch=row_by_row(lambda v: len(v) - len(set(v))),
        predicate=lambda v: len(set(v)) == len(v),
    )
    for seed in range(5):
        out = solve(Model([(2, 2), (1, 3), (1, 3)], [alldiff]), timeout_ms=10000, rng_seed=seed)
        assert out.status == "solved"
        assert out.assignment[0] == 2 and sorted(out.assignment[1:]) == [1, 3]


def test_solve_sudoku_and_verify_independently():
    m = build_sudoku(3, "handcrafted")
    out = solve(m, timeout_ms=10000, rng_seed=11)
    assert out.status == "solved"
    grid = np.array(out.assignment).reshape(9, 9)
    for r in range(9):
        assert sorted(grid[r]) == list(range(1, 10))
    for c in range(9):
        assert sorted(grid[:, c]) == list(range(1, 10))
    for br in range(3):
        for bc in range(3):
            block = grid[br * 3 : br * 3 + 3, bc * 3 : bc * 3 + 3].ravel()
            assert sorted(block) == list(range(1, 10))


def test_solve_deterministic_given_seed():
    m1 = build_sudoku(3, "icn_hardcoded")
    m2 = build_sudoku(3, "icn_hardcoded")
    a = solve(m1, timeout_ms=10000, rng_seed=21)
    b = solve(m2, timeout_ms=10000, rng_seed=21)
    assert a.status == b.status == "solved"
    assert a.assignment == b.assignment
    assert a.iterations == b.iterations
    assert a.restarts == b.restarts


def test_feedforward_matches_hardcoded_trajectory():
    # Same guidance values and same seed mean identical move sequences.
    a = solve(build_sudoku(3, "icn_hardcoded"), timeout_ms=20000, rng_seed=33)
    b = solve(build_sudoku(3, "icn_feedforward"), timeout_ms=20000, rng_seed=33)
    assert a.status == b.status == "solved"
    assert a.assignment == b.assignment
    assert a.iterations == b.iterations


def test_error_functions_zero_iff_satisfied():
    hand = build_sudoku(3, "handcrafted").constraints[0]
    net = build_sudoku(3, "icn_feedforward").constraints[0]
    rng = np.random.default_rng(7)
    for _ in range(300):
        vals = list(rng.integers(1, 10, size=9))
        satisfied = len(set(vals)) == 9
        assert (hand.error(vals) == 0) == satisfied
        assert (net.error(vals) == 0) == satisfied


def test_benchmark_stats_and_derived_seeds():
    assert derive_seeds(5, 4) == derive_seeds(5, 4)
    assert len(set(derive_seeds(5, 4))) == 4
    stats = benchmark_sudoku(3, "handcrafted", runs=2, timeout_ms=10000, seed=1)
    assert stats.runs == 2 and stats.timeouts == 0
    assert len(stats.rows) == 2
    assert stats.mean_ms is not None and stats.median_ms is not None

    one = benchmark_sudoku(3, "handcrafted", runs=1, timeout_ms=10000, seed=2)
    assert one.stdev_ms is None
    assert one.mean_ms == one.median_ms


def test_benchmark_all_timeouts_reports_absent_stats():
    stats = benchmark_sudoku(3, "predicate", runs=2, timeout_ms=60, seed=3)
    assert stats.timeouts == 2
    assert stats.mean_ms is None and stats.median_ms is None and stats.stdev_ms is None


# (status, iterations, restarts) for solve(build_sudoku(3, v), 60000, seed)
# with seed in derive_seeds(42, 2); any change to the search trajectory
# shows up here.
GOLDEN_TRAJECTORIES = {
    "handcrafted": [("solved", 3105, 1), ("solved", 26990, 18)],
    "icn_hardcoded": [("solved", 17596, 11), ("solved", 11213, 6)],
    "icn_feedforward": [("solved", 17596, 11), ("solved", 11213, 6)],
}


# For the same solves: a digest of the final grid, and the next 64 bits the
# solver's random.Random would have drawn, so that the grid and every rng
# call along the way are pinned too.
GOLDEN_FINAL_STATES = {
    "handcrafted": [("e4502f3d4e1ca06a", "6c4fb9e5137e748a"), ("260b8fdd312704c7", "0767cb49ac7c58ef")],
    "icn_hardcoded": [("3c26b732576592fc", "e8b2daab9fc37d1c"), ("2c44648bac9281db", "5e93d8c02fa9f7a8")],
    "icn_feedforward": [("3c26b732576592fc", "e8b2daab9fc37d1c"), ("2c44648bac9281db", "5e93d8c02fa9f7a8")],
}


def grid_digest(assignment) -> str:
    return hashlib.sha256(",".join(map(str, assignment)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("variant", sorted(GOLDEN_TRAJECTORIES))
def test_golden_trajectories(variant, monkeypatch):
    rngs = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    got, final = [], []
    for seed in derive_seeds(42, 2):
        out = solve(build_sudoku(3, variant), timeout_ms=60000, rng_seed=seed)
        got.append((out.status, out.iterations, out.restarts))
        assert out.unfaithful_restarts == 0  # every restart follows a plateau
        final.append((grid_digest(out.assignment), format(rngs[-1].getrandbits(64), "016x")))
    assert got == GOLDEN_TRAJECTORIES[variant]
    assert final == GOLDEN_FINAL_STATES[variant]


def test_feedforward_makes_one_network_call_per_move(monkeypatch):
    # All three constraints on a cell share one evaluator, so each move is
    # one stacked call; each (re)start scores every constraint once.
    calls = []
    original = ErrorFunction.evaluate_batch

    def counting(self, X):
        calls.append(len(X))
        return original(self, X)

    monkeypatch.setattr(ErrorFunction, "evaluate_batch", counting)
    out = solve(build_sudoku(3, "icn_feedforward"), timeout_ms=20000, rng_seed=29)
    assert out.status == "solved" and out.restarts >= 1
    assert len(calls) == out.iterations + 27 * (out.restarts + 1)
    assert calls.count(3 * 8) == out.iterations


def test_constraint_rejects_a_repeated_variable():
    # Counted twice, such a constraint would weigh double in the penalty
    # scan and in its variable's scoring plan.
    with pytest.raises(ValueError, match="names a variable more than once"):
        Constraint(scope=(0, 1, 0), error_batch=row_by_row(equal_pairs), predicate=lambda vals: True)


def test_unfaithful_guidance_restarts_are_counted_by_cause():
    # Total error 0 with a false predicate: every start is an unfaithful
    # restart, and no move is ever made.
    cons = [Constraint(scope=(0, 1), error_batch=row_by_row(lambda v: 0), predicate=lambda v: False)]
    out = solve(Model([(1, 3), (1, 3)], cons), timeout_ms=50, rng_seed=0)
    assert out.status == "timeout" and out.iterations == 0
    assert out.unfaithful_restarts == out.restarts >= 1


@pytest.mark.parametrize("variant, oracle", [("handcrafted", equal_pairs),
                                             ("icn_hardcoded", duplicate_positions)],
                         ids=["handcrafted", "icn_hardcoded"])
def test_sudoku_count_terms_sum_to_the_error(variant, oracle):
    rng = np.random.default_rng(5)
    X = np.concatenate([rng.integers(1, 10, size=(300, 9)), np.full((1, 9), 3), [np.arange(1, 10)]])
    expected = [oracle(row) for row in X.tolist()]
    for con in build_sudoku(3, variant).constraints:
        assert con.error_batch is None
        assert [con.error(row) for row in X.tolist()] == expected


def test_count_terms_must_fit_the_scope():
    for terms in [(0, 0, 1), (1, 0, 1, 3), (0, 0, 1, 3, 6)]:
        with pytest.raises(ValueError, match="count_terms needs 4 entries, the first 0"):
            Constraint(scope=(0, 1, 2), predicate=lambda v: True, count_terms=terms)


@st.composite
def alldiff_models(draw):
    """AllDifferent constraints on rows and columns of a planted Latin square
    over [base, base + m), some cut to a prefix so that widths mix, with
    domains around that range and some variables fixed to the planted value.
    Each constraint either counts equal pairs or duplicate positions, and
    is given by its count terms in the mixed run or not."""
    m = draw(st.integers(3, 5))
    base = draw(st.integers(-5, 5))
    row_shift = draw(st.permutations(range(m)))
    col_shift = draw(st.permutations(range(m)))
    planted = [base + (row_shift[r] + col_shift[c]) % m for r in range(m) for c in range(m)]
    domains = [
        (x, x) if draw(st.integers(0, 5)) == 0
        else (base - draw(st.integers(0, 1)), base + m - 1 + draw(st.integers(0, 1)))
        for x in planted
    ]
    lines = [tuple(r * m + c for c in range(m)) for r in range(m)]
    lines += [tuple(r * m + c for r in range(m)) for c in range(m)]
    chosen = draw(st.lists(st.sampled_from(lines), min_size=1, max_size=2 * m, unique=True))
    specs = [(line[:draw(st.integers(2, m))], draw(st.booleans()), draw(st.booleans()))
             for line in chosen]
    return domains, specs


# (oracle error, term per value count) of the two count-based errors.
COUNT_ERRORS = [
    (equal_pairs, lambda c: c * (c - 1) // 2),
    (duplicate_positions, lambda c: max(c - 1, 0)),
]


def alldiff_model(domains, specs, counted):
    """The drawn model; constraint i is given by its count_terms when
    counted(i), else by the oracle error applied row by row as its
    error_batch."""
    cons = []
    for i, (scope, pairs, _) in enumerate(specs):
        error, term = COUNT_ERRORS[0 if pairs else 1]
        if counted(i):
            terms = tuple(term(c) for c in range(len(scope) + 1))
            cons.append(Constraint(scope=scope, predicate=_all_distinct, count_terms=terms))
        else:
            cons.append(Constraint(scope=scope, predicate=_all_distinct, error_batch=row_by_row(error)))
    return Model(domains, cons)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(alldiff_models(), st.integers(0, 2**32 - 1))
def test_value_count_scoring_matches_batch_scoring(model, seed):
    # Every constraint scored from value counts, none, and a mix of both.
    domains, specs = model
    outcomes = []
    for counted in (lambda i: True, lambda i: False, lambda i: specs[i][2]):
        out = solve(alldiff_model(domains, specs, counted), timeout_ms=20000, rng_seed=seed)
        assert out.status == "solved"
        outcomes.append((out.status, out.iterations, out.restarts, out.assignment))
    assert outcomes[0] == outcomes[1] == outcomes[2]
