"""Facts about each constraint kind, checked where the library states them:
the accepted spellings, that every kind has a closed-form Hamming cost, and
that every kind has a direct solution sampler, uniform over the solutions,
which sample_balanced_direct draws from."""

import collections

import numpy as np
import pytest

from efkit.concepts import (
    ConstraintInstance,
    ConstraintKind,
    format_constraint_line,
    parse_kind,
    reference_costs_batch,
)
from efkit.spaces import sample_balanced, sample_balanced_direct, sample_solutions

from oracles import all_assignments, concept_naive

K = ConstraintKind
# One satisfiable instance per kind with both classes common, plus
# AllDifferent with fewer values than variables (no solution at all).
INSTANCES = {
    K.ALL_DIFFERENT: [ConstraintInstance(K.ALL_DIFFERENT, 3, 1, 4),
                      ConstraintInstance(K.ALL_DIFFERENT, 3, 1, 2)],
    K.LINEAR_SUM: [ConstraintInstance(K.LINEAR_SUM, 3, 1, 4, p=7)],
    K.MINIMUM: [ConstraintInstance(K.MINIMUM, 3, 1, 4, p=2)],
    K.NO_OVERLAP_1D: [ConstraintInstance(K.NO_OVERLAP_1D, 3, 1, 6, p=2)],
    K.ORDERED: [ConstraintInstance(K.ORDERED, 3, 1, 4)],
}
EXTRA_SPELLINGS = {"alldifferent": K.ALL_DIFFERENT, "nooverlap1d": K.NO_OVERLAP_1D}


def test_every_kind_has_instances():
    assert set(INSTANCES) == set(ConstraintKind)


@pytest.mark.parametrize("kind", list(ConstraintKind), ids=lambda k: k.value)
def test_every_spelling_parses(kind):
    assert parse_kind(kind.value) is kind
    assert parse_kind(f" {kind.value.upper()} ") is kind
    for name, aliased in EXTRA_SPELLINGS.items():
        if aliased is kind:
            assert parse_kind(name) is kind


@pytest.mark.parametrize("kind", list(ConstraintKind), ids=lambda k: k.value)
def test_every_kind_has_a_closed_form(kind):
    """reference_costs_batch returns one cost per row, or says that the
    instance has no solution, which is a closed-form answer too."""
    for c in INSTANCES[kind]:
        xs = np.array(list(all_assignments(c.n, c.lo, c.hi)), dtype=np.int64)
        try:
            costs = reference_costs_batch(c, xs)
        except ValueError as exc:
            assert "has no solution" in str(exc), format_constraint_line(c)
        else:
            assert costs.shape == (len(xs),), format_constraint_line(c)


@pytest.mark.parametrize("kind", list(ConstraintKind), ids=lambda k: k.value)
def test_direct_space_draws_solutions_directly_iff_a_sampler_exists(kind):
    c, k, seed = INSTANCES[kind][0], 8, 3
    space = sample_balanced_direct(c, k, rng_seed=seed)
    # Non-solutions come from the LHS stream seeded one past the given seed.
    lhs = sample_balanced(c, k, rng_seed=seed + 1)
    assert (space.assignments[:k] == sample_solutions(c, k, rng_seed=seed)).all()
    assert (space.assignments[k:] == lhs.assignments[~lhs.labels]).all()
    assert space.labels.tolist() == [True] * k + [False] * k


@pytest.mark.parametrize("kind", list(ConstraintKind), ids=lambda k: k.value)
def test_every_direct_sampler_is_uniform_over_the_solutions(kind):
    """400 draws per solution hit every solution, each within 4 standard
    deviations of 400 (a binomial count's sd is under 20 here)."""
    _assert_uniform(INSTANCES[kind][0])


def test_linear_sum_above_the_middle_sum_is_drawn_uniformly_at_its_mirror():
    # y sums to 5 of at most 9: drawn as the mirrored sum 4, then reflected.
    _assert_uniform(ConstraintInstance(K.LINEAR_SUM, 3, 1, 4, p=8))


def _assert_uniform(c):
    solutions = [x for x in all_assignments(c.n, c.lo, c.hi) if concept_naive(c.kind.value, c.p, x)]
    per_solution = 400
    draws = sample_solutions(c, per_solution * len(solutions), rng_seed=11)
    counts = collections.Counter(map(tuple, draws.tolist()))
    assert set(counts) == set(solutions)
    assert all(abs(count - per_solution) <= 4 * 20 for count in counts.values()), counts


@pytest.mark.parametrize(
    "p, expected",
    [(3, [1, 1, 1]), (12, [4, 4, 4])],
    ids=["sum-at-least", "sum-at-most"],
)
def test_linear_sum_at_an_extreme_sum_draws_its_one_solution(p, expected):
    c = ConstraintInstance(K.LINEAR_SUM, 3, 1, 4, p=p)
    assert sample_solutions(c, 5, rng_seed=0).tolist() == [expected] * 5


@pytest.mark.parametrize("p", [2, 13], ids=["below", "above"])
def test_linear_sum_without_a_solution_is_rejected_before_any_draw(p):
    c = ConstraintInstance(K.LINEAR_SUM, 3, 1, 4, p=p)
    with pytest.raises(ValueError, match=f"linearsum with p={p} has no solution"):
        sample_solutions(c, 5, rng_seed=0)
