import hashlib
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efkit import spaces
from efkit.concepts import ConstraintInstance, ConstraintKind, concept_holds_batch
from efkit.spaces import (
    EnumerationCapError,
    SamplingExhaustedError,
    enumerate_complete,
    load_space,
    sample_balanced,
    sample_balanced_direct,
    save_space,
)

from oracles import concept_naive


def test_enumerate_complete_counts():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 3)
    space = enumerate_complete(c)
    assert len(space) == 27
    assert space.solution_count == 6
    assert space.complete and not space.has_costs

    c = ConstraintInstance(ConstraintKind.ORDERED, 2, 1, 2)
    space = enumerate_complete(c)
    assert len(space) == 4
    assert space.solution_count == 3

    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5)
    space = enumerate_complete(c)
    assert len(space) == 625
    assert space.solution_count == 120


def test_enumerate_lexicographic_and_labeled():
    c = ConstraintInstance(ConstraintKind.ORDERED, 2, 1, 2)
    space = enumerate_complete(c)
    assert space.assignments.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]
    for x, label in zip(space.assignments.tolist(), space.labels):
        assert label == concept_naive(c.kind.value, c.p, x)
    assert space.costs is None


def test_enumerate_covers_every_assignment_once():
    c = ConstraintInstance(ConstraintKind.MINIMUM, 3, 1, 4, p=2)
    space = enumerate_complete(c)
    assert len(space) == 64
    assert len(np.unique(space.assignments, axis=0)) == 64


def test_enumeration_cap():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 10, 1, 10)
    with pytest.raises(EnumerationCapError, match="10000000000"):
        enumerate_complete(c)
    # LinearSum's count table: 10 positions x (5e7 + 1) sums, refused unbuilt.
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 10, 0, 10**7, p=5 * 10**7)
    with pytest.raises(EnumerationCapError, match="500000010 cells"):
        spaces.sample_solutions(c, 1, rng_seed=0)


def test_linear_sum_table_is_bounded_by_the_bits_of_its_counts():
    # 1000 positions x 9501 sums is under the cell cap, but counts near
    # 20**1000 take thousands of bits a cell: refused unbuilt.
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 1000, 1, 20, p=10500)
    assert c.n * (c.p - c.n * c.lo + 1) <= spaces.ENUMERATION_CAP
    with pytest.raises(EnumerationCapError, match="9501000 cells of up to 5001 bits"):
        spaces.sample_solutions(c, 1, rng_seed=0)
    # At n = 100 over [1, 100] every solvable sum passes: one above the
    # middle is drawn from its mirror's table, at most 4951 sums wide.
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 100, 1, 100, p=10000)
    assert spaces.sample_solutions(c, 2, rng_seed=0).tolist() == [[100] * 100] * 2
    # The widest table near the middle sum at d = 100 still passes.
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 122, 1, 100, p=122 * 101 // 2)
    assert spaces.sample_solutions(c, 1, rng_seed=0).sum() == c.p
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 123, 1, 100, p=123 * 101 // 2)
    with pytest.raises(EnumerationCapError, match="bits"):
        spaces.sample_solutions(c, 1, rng_seed=0)


def test_lhs_single_batch_is_a_latin_square_column():
    c = ConstraintInstance(ConstraintKind.ORDERED, 2, 1, 4)
    xs = spaces._order_block(c, np.random.default_rng(5).random((1, c.d, c.n)))
    assert xs.shape == (4, 2)
    for j in range(2):
        assert sorted(xs[:, j]) == [1, 2, 3, 4]


def test_lhs_two_batches_hit_each_value_twice():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 100, 1, 100)
    xs = spaces._order_block(c, np.random.default_rng(9).random((2, c.d, c.n)))
    assert xs.shape == (200, 100)
    for j in range(0, 100, 17):
        counts = np.bincount(xs[:, j], minlength=101)[1:]
        assert (counts == 2).all()


def test_lhs_reproducible():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 5, 1, 7)
    a = sample_balanced(c, 23, rng_seed=1234).assignments
    b = sample_balanced(c, 23, rng_seed=1234).assignments
    assert (a == b).all()
    assert not (a == sample_balanced(c, 23, rng_seed=1235).assignments).all()


def test_sample_balanced_quotas_and_labels():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 5, 1, 6)
    space = sample_balanced(c, 50, rng_seed=3)
    assert len(space) == 100
    assert space.solution_count == 50
    assert not space.complete
    for x, label in zip(space.assignments.tolist(), space.labels):
        assert label == concept_naive(c.kind.value, c.p, x)
    assert space.costs is None


def test_sample_balanced_deterministic():
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 1, 5, p=12)
    a = sample_balanced(c, 20, rng_seed=99)
    b = sample_balanced(c, 20, rng_seed=99)
    assert (a.assignments == b.assignments).all()
    assert (a.labels == b.labels).all()


def test_sample_balanced_exhaustion_when_one_class_missing(monkeypatch):
    # p below the domain: every assignment satisfies, so non-solutions
    # can never be found and the budget must surface clearly.
    c = ConstraintInstance(ConstraintKind.MINIMUM, 3, 2, 4, p=1)
    monkeypatch.setattr(spaces, "DRAW_BUDGET", 2000)
    with pytest.raises(SamplingExhaustedError, match="non-solutions"):
        sample_balanced(c, 5, rng_seed=0)


def test_sample_solutions_direct_are_valid_and_seeded():
    from efkit.spaces import sample_solutions

    for c in (
        ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 8, 1, 12),
        ConstraintInstance(ConstraintKind.LINEAR_SUM, 7, -3, 9, p=5),
        ConstraintInstance(ConstraintKind.MINIMUM, 6, 1, 9, p=4),
        ConstraintInstance(ConstraintKind.ORDERED, 7, 2, 6),
        ConstraintInstance(ConstraintKind.NO_OVERLAP_1D, 4, 0, 20, p=3),
    ):
        xs = sample_solutions(c, 64, rng_seed=13)
        assert xs.shape == (64, c.n)
        assert all(concept_naive(c.kind.value, c.p, row) for row in xs.tolist())
        assert (xs == sample_solutions(c, 64, rng_seed=13)).all()


def test_sample_balanced_direct_balances_both_classes():
    from efkit.spaces import sample_balanced_direct

    for c, k in (
        (ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 20, 1, 20), 40),
        (ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 1, 5, p=12), 15),
    ):
        space = sample_balanced_direct(c, k, rng_seed=5)
        assert len(space) == 2 * k and space.solution_count == k
        for x, label in zip(space.assignments.tolist(), space.labels):
            assert label == concept_naive(c.kind.value, c.p, x)


def test_space_file_round_trip(tmp_path):
    c = ConstraintInstance(ConstraintKind.NO_OVERLAP_1D, 3, 0, 8, p=2)
    space = sample_balanced(c, 10, rng_seed=8)
    path = tmp_path / "space.txt"
    save_space(space, path)
    loaded = load_space(path)
    assert loaded.constraint == c
    assert loaded.complete == space.complete
    assert (loaded.assignments == space.assignments).all()
    assert (loaded.labels == space.labels).all()
    assert loaded.costs is None

    # Byte-exact: saving the reload reproduces the file.
    path2 = tmp_path / "space2.txt"
    save_space(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_space_file_round_trip_with_costs(tmp_path):
    c = ConstraintInstance(ConstraintKind.ORDERED, 2, 1, 3)
    space = enumerate_complete(c)
    # Solutions must carry cost 0; the non-solutions get varied costs.
    space = space.with_costs(np.where(space.labels, 0, 1 + np.arange(len(space)) % 3))
    path = tmp_path / "space.txt"
    save_space(space, path)
    loaded = load_space(path)
    assert (loaded.costs == space.costs).all()
    assert "| -" not in path.read_text()


def test_space_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a space\n")
    with pytest.raises(ValueError):
        load_space(path)
    path.write_text("# constraint kind=alldiff n=2 lo=1 hi=3 p=0 complete=1\n1 2 | 1\n")
    with pytest.raises(ValueError):
        load_space(path)


def test_block_size_does_not_change_samples(monkeypatch):
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5)
    linear = ConstraintInstance(ConstraintKind.LINEAR_SUM, 3, 1, 4, p=6)

    def draws():
        built = [
            sample_balanced(c, 40, rng_seed=2),
            sample_balanced_direct(c, 40, rng_seed=2),
            sample_balanced_direct(linear, 30, rng_seed=4),  # LHS for non-solutions only
        ]
        return [part for sp in built for part in (sp.assignments, sp.labels)]

    default = draws()
    monkeypatch.setattr(spaces, "_BLOCK_CELLS", 1)  # one batch per block
    for a, b in zip(default, draws(), strict=True):
        assert np.array_equal(a, b)


# Every assignment of this instance is a solution: sampling it exhausts any
# budget, after labeling every row the budget allows.
ALL_SOLUTIONS = ConstraintInstance(ConstraintKind.MINIMUM, 3, 2, 4, p=1)


def test_sampling_leaves_no_thread_running(monkeypatch):
    before = threading.enumerate()
    sample_balanced(ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 5, 1, 6), 50, rng_seed=3)
    assert threading.enumerate() == before
    monkeypatch.setattr(spaces, "DRAW_BUDGET", 2000)
    with pytest.raises(SamplingExhaustedError):
        sample_balanced(ALL_SOLUTIONS, 5, rng_seed=0)
    assert threading.enumerate() == before


def test_an_ordering_error_propagates(monkeypatch):
    calls = []

    def fail_on_the_third_block(c, u):
        calls.append(len(u))
        if len(calls) == 3:
            raise RuntimeError("ordering failed")
        return order_block(c, u)

    order_block = spaces._order_block
    monkeypatch.setattr(spaces, "_order_block", fail_on_the_third_block)
    monkeypatch.setattr(spaces, "_BLOCK_CELLS", 1)  # one batch per block
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match="ordering failed"):
        sample_balanced(ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5), 40, rng_seed=2)
    assert threading.enumerate() == before


def _count_labeled_rows(monkeypatch, block_cells):
    labeled = []

    def counting(c, xs):
        labeled.append(len(xs))
        return concept_holds_batch(c, xs)

    monkeypatch.setattr(spaces, "concept_holds_batch", counting)
    monkeypatch.setattr(spaces, "_BLOCK_CELLS", block_cells)
    return labeled


@pytest.mark.parametrize("block_cells", [1, spaces._BLOCK_CELLS])
@pytest.mark.parametrize("budget", [1, 4, 2000, 2001])
def test_rows_labeled_never_exceed_the_draw_budget(monkeypatch, block_cells, budget):
    labeled = _count_labeled_rows(monkeypatch, block_cells)
    monkeypatch.setattr(spaces, "DRAW_BUDGET", budget)
    with pytest.raises(SamplingExhaustedError):
        sample_balanced(ALL_SOLUTIONS, 5, rng_seed=0)
    assert sum(labeled) == budget


@pytest.mark.parametrize("block_cells", [1, spaces._BLOCK_CELLS])
def test_a_budget_of_the_rows_an_unbounded_run_labels_suffices(monkeypatch, block_cells):
    labeled = _count_labeled_rows(monkeypatch, block_cells)
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5)
    unbounded = sample_balanced(c, 40, rng_seed=2)
    needed = sum(labeled)
    labeled.clear()
    monkeypatch.setattr(spaces, "DRAW_BUDGET", needed)
    exact = sample_balanced(c, 40, rng_seed=2)
    assert sum(labeled) == needed
    assert np.array_equal(exact.assignments, unbounded.assignments)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    d=st.sampled_from([2, 10, 2047, 2048, 2049]) | st.integers(2, 300),
    n=st.integers(2, 4),
    lo=st.integers(-3000, 3000),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2048, n=2, lo=-1, count=2, seed=0)
@example(d=2049, n=3, lo=-2049, count=1, seed=1)
def test_full_batch_block_is_the_stable_argsort_of_its_draws(d, n, lo, count, seed):
    c = ConstraintInstance(ConstraintKind.ORDERED, n, lo, lo + d - 1)
    draws = np.random.default_rng(seed).random((count, d, n))
    expected = (lo + draws.argsort(axis=1, kind="stable")).reshape(count * d, n)
    got = spaces._order_block(c, draws)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("d", [4, 2048, 2049], ids=lambda d: f"d{d}")
def test_full_batch_block_breaks_tied_draws_by_row(d):
    # Column 0 draws one value d times; column 1 draws 0.5, 0.25, 0.5, 0.25, ...
    u = np.full((1, d, 2), 0.5)
    u[0, 1::2, 1] = 0.25
    c = ConstraintInstance(ConstraintKind.ORDERED, 2, -1, d - 2)
    got = spaces._order_block(c, u)
    rows = np.arange(d)
    assert np.array_equal(got[:, 0], rows - 1)
    assert np.array_equal(got[:, 1], np.concatenate([rows[1::2], rows[0::2]]) - 1)


HEADER = "# constraint kind=alldiff n=3 lo=1 hi=4 p=0 complete=0\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("1 2 3 | 7 | 0", "label must be 0 or 1"),
        ("1 1 2 | 1 | 0", "label 1 contradicts"),
        ("1 2 3 | 0 | 1", "label 0 contradicts"),
        ("1 2 9 | 0 | 1", "value outside [1, 4]"),
        ("1 2 | 0 | 1", "expected 3 values, got 2"),
        ("1 2 x | 0 | 1", "'x' is not an integer"),
        ("1 1 2 | 0 | z", "'z' is not an integer"),
        ("1 1 2 | 0 | -2", "cost must be non-negative or -, got -2"),
        ("1 2 3 | 1 | 2", "a solution has cost 0, got 2"),
        ("1 2 +3 | 0 | 1", "'+3' is not an integer"),
        ("1 2 0_3 | 0 | 1", "'0_3' is not an integer"),
        ("1 2 \uff13 | 0 | 1", "'\uff13' is not an integer"),
        ("1 1 2 | 0 | +1", "'+1' is not an integer"),
        ("1 1 2 | 0 | -", "mixed set and unset costs"),
    ],
    ids=["label-token", "false-solution", "false-non-solution", "domain", "width",
         "non-integer", "non-integer-cost", "negative-cost", "solution-cost",
         "plus-sign", "underscore", "full-width-digit", "plus-sign-cost", "mixed-costs"],
)
def test_load_space_rejects_with_file_and_line(tmp_path, row, message):
    path = tmp_path / "bad.txt"
    path.write_text(HEADER + "2 3 4 | 1 | 0\n" + row + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: ")) as info:
        load_space(path)
    assert message in str(info.value)


def test_load_space_names_a_value_outside_the_domain_before_a_wrong_label(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(HEADER + "2 3 4 | 1 | 0\n1 1 2 | 1 | 0\n1 2 9 | 0 | 1\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:4: value outside [1, 4]") + "$"):
        load_space(path)


@pytest.mark.parametrize("rows", ["", "\n\n"], ids=["header-only", "blank-lines"])
def test_load_space_rejects_a_file_without_rows(tmp_path, rows):
    path = tmp_path / "empty.txt"
    path.write_text(HEADER + rows)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: no rows after the header") + "$"):
        load_space(path)



# sha256 prefixes of `save_space` text at seeds 0 and 1, computed before the
# samplers and the Hamming labeling were rewritten over shared helpers; any
# change to the LHS streams, the kept rows or the costs shows here. The
# direct-linearsum pair dates from LinearSum's exact-count sampler.
GOLDEN_SPACES = {
    "balanced-alldiff": ("fb19a791ba5f7f6a", "73d7f2243addf6f5"),
    "balanced-linearsum": ("396049379170de98", "93313441c7d1a560"),
    "direct-alldiff": ("23ef548aa1be9555", "cf24e57f1ccdb022"),
    "direct-linearsum": ("01023443483f5bd3", "fb3d75e702b2e53b"),
    "nearest-alldiff": ("ca30f8ffd2ce07a4", "ab78c4f8a4824b9f"),
    "nearest-linearsum": ("190521d030639add", "0254e37037963cc8"),
}


def test_sampled_space_golden_files(tmp_path):
    from efkit.hamming import label_space_costs, solution_set_from_space

    alldiff5 = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 5, 1, 6)
    linear4 = ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 1, 5, p=12)
    alldiff20 = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 20, 1, 20)

    def digest(space):
        path = tmp_path / "space.txt"
        save_space(space, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]

    got = {name: [] for name in GOLDEN_SPACES}
    for seed in (0, 1):
        for name, c, k in (("alldiff", alldiff5, 30), ("linearsum", linear4, 20)):
            space = sample_balanced(c, k, rng_seed=seed)
            got[f"balanced-{name}"].append(digest(space))
            labeled = label_space_costs(space, solution_set_from_space(space))
            got[f"nearest-{name}"].append(digest(labeled))
        for name, c, k in (("alldiff", alldiff20, 40), ("linearsum", linear4, 20)):
            got[f"direct-{name}"].append(digest(sample_balanced_direct(c, k, rng_seed=seed)))
    assert {name: tuple(d) for name, d in got.items()} == GOLDEN_SPACES


# sha256 prefixes at seeds 0 and 1 of two full LHS batches on either side of
# the block's 64-bit key cut-off (d = 2048 packs draw and row into one key,
# d = 2049 does not) and of a balanced AllDifferent space whose value span
# (100) is too wide for the one-mask label. The span-100 digests date from
# before the blocks were drawn with packed keys; the block digests were
# checked to be the head of the streams pinned then.
GOLDEN_CUTOFFS = {
    "blocks-d2048": ("7c6c9b14f7e6a2e0", "d399d5fe9a949245"),
    "blocks-d2049": ("06b81f644a7e8012", "6d1aa69e0bbae28b"),
    "balanced-alldiff-span100": ("d583d8a69b53c52e", "cb2faf6a964b97d8"),
}


def test_sampled_streams_golden_past_the_cutoffs(tmp_path):
    def digest(data: bytes):
        return hashlib.sha256(data).hexdigest()[:16]

    got = {name: [] for name in GOLDEN_CUTOFFS}
    wide = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 6, -30, 69)
    for seed in (0, 1):
        for hi in (2040, 2041):
            c = ConstraintInstance(ConstraintKind.ORDERED, 3, -7, hi)
            blocks = spaces._order_block(c, np.random.default_rng(seed).random((2, c.d, c.n)))
            got[f"blocks-d{c.d}"].append(digest(np.ascontiguousarray(blocks, dtype="<i8").tobytes()))
        path = tmp_path / "space.txt"
        save_space(sample_balanced(wide, 30, rng_seed=seed), path)
        got["balanced-alldiff-span100"].append(digest(path.read_bytes()))
    assert {name: tuple(d) for name, d in got.items()} == GOLDEN_CUTOFFS


@pytest.mark.parametrize(
    "header, message",
    [
        ("kind=alldiff n=3 lo=1 hi=4 p=0 complete=0 complete=1", "duplicate header key 'complete'"),
        ("kind=alldiff n=3 lo=1 hi=4 p=0 complete=0 scale=9", "unknown header key 'scale'"),
        ("kind=alldiff n=3 lo=1 hi=4 p=0 complete=0 junk", "header token 'junk' is not key=value"),
        ("kind=alldiff n=3 lo=1 hi=4 p=0", "header line missing 'complete'"),
        ("kind=alldiff n=3 lo=1 hi=4 p=0 complete=2", "complete must be 0 or 1, got '2'"),
        ("kind=alldiff n=1 lo=1 hi=4 p=0 complete=0", "scope size must be >= 2"),
        ("kind=alldiff n=3 lo=1 hi=x p=0 complete=0", "bad integer"),
        ("kind=linearsum n=2 lo=0 hi=9223372036854775807 p=-9223372036854775808 complete=0",
         "below 2^62"),
        ("kind=alldiff n=3 lo=1 hi=4 p=+0 complete=0", "bad integer"),
        ("kind=alldiff n=3 lo=1 hi=0_4 p=0 complete=0", "bad integer"),
        ("kind=alldiff n=\uff13 lo=1 hi=4 p=0 complete=0", "bad integer"),
    ],
    ids=["duplicate-key", "unknown-key", "no-equals", "missing-complete", "complete-value",
         "invalid-instance", "non-integer", "int64-sums", "plus-sign", "underscore",
         "full-width-digit"],
)
def test_load_space_header_rejections_name_file_and_line(tmp_path, header, message):
    path = tmp_path / "bad.txt"
    # The row wraps to a linearsum solution in int64 arithmetic: 2^62 + 2^62 = -2^63.
    path.write_text(f"# constraint {header}\n4611686018427387904 4611686018427387904 | 1 | 0\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:1: ")) as info:
        load_space(path)
    assert message in str(info.value)


def test_direct_sampler_honours_the_draw_budget(monkeypatch):
    # The first block holds 3 rows; within the 1-row budget the only row is
    # a solution, so the non-solution quota cannot be met.
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 2, 1, 3)
    monkeypatch.setattr(spaces, "DRAW_BUDGET", 1)
    with pytest.raises(SamplingExhaustedError, match="0/1 non-solutions"):
        sample_balanced_direct(c, 1, rng_seed=0)
