"""Facts about each constraint kind, checked where the library states them:
the accepted spellings, that every kind has a closed-form Hamming cost, and
which kinds sample_balanced_direct draws solutions for directly."""

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

from oracles import all_assignments

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
    try:
        direct = sample_solutions(c, k, rng_seed=seed)
    except ValueError as exc:
        assert "no direct solution sampler" in str(exc)
        direct = None
    # Non-solutions (and, without a direct sampler, solutions) come from the
    # LHS stream seeded one past the given seed.
    lhs = sample_balanced(c, k, rng_seed=seed + 1)
    expected = lhs.assignments[lhs.labels] if direct is None else direct
    assert (space.assignments[:k] == expected).all()
    assert (space.assignments[k:] == lhs.assignments[~lhs.labels]).all()
    assert space.labels.tolist() == [True] * k + [False] * k
