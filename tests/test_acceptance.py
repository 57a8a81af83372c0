"""Acceptance suite: every criterion as a test, one PASS/FAIL line each.

All randomness hangs off MASTER_SEED, so reruns are bit-identical. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import collections
import statistics
import time

import numpy as np
import pytest

from efkit import concepts, ga, hamming, icn, solver, spaces
from efkit.concepts import ConstraintInstance, ConstraintKind

from oracles import genome_bits, straight_line_eval

MASTER_SEED = 42
JOBS = 2

SMALL_INSTANCES = [
    ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5),
    ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 1, 5, p=12),
    ConstraintInstance(ConstraintKind.MINIMUM, 4, 1, 5, p=3),
    ConstraintInstance(ConstraintKind.ORDERED, 4, 1, 5),
    ConstraintInstance(ConstraintKind.NO_OVERLAP_1D, 3, 1, 5, p=2),
]

# Training instances: complete spaces in the 500-1300 entry range with
# 10-20% solutions; exact instance parameters are a config-level choice.
TRAIN_ALLDIFF = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5)
TRAIN_MINIMUM = ConstraintInstance(ConstraintKind.MINIMUM, 4, 1, 6, p=3)
TRAIN_LINEARSUM = ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 1, 6, p=14)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def complete_space_with_costs(c):
    space = spaces.enumerate_complete(c)
    return hamming.label_space_costs(space, hamming.exhaustive_solution_set(c))


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for c in SMALL_INSTANCES:
        space = spaces.enumerate_complete(c)
        sols = hamming.exhaustive_solution_set(c)
        exact = hamming.nearest_distances(space.assignments, sols.solutions)
        zero_iff_concept = ((exact == 0) == space.labels).all()
        assert zero_iff_concept, c
        forms = concepts.reference_costs_batch(c, space.assignments)
        assert (exact == forms).all(), c
        checked += len(space)
    elapsed = time.perf_counter() - started
    report(
        1,
        elapsed < 10.0,
        f"exact Hamming == closed forms and zero-iff-satisfied on {checked} "
        f"assignments across 5 kinds in {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_canonical_function_fidelity():
    started = time.perf_counter()
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 100, 1, 100)
    rng = np.random.default_rng(MASTER_SEED)
    X = rng.integers(1, 101, size=(10000, 100), dtype=np.int64)
    f = icn.ErrorFunction(icn.alldifferent_reference_genome(), icn.ctx_from_constraint(c))
    got = f.evaluate_batch(X)
    expected = concepts.reference_costs_batch(c, X)
    exact_match = (got == expected).all()

    space = spaces.LabeledSpace(c, X, expected == 0, expected, complete=False)
    nme = icn.normalized_mean_error(f, space)
    elapsed = time.perf_counter() - started
    report(
        2,
        bool(exact_match) and nme == 0.0 and elapsed < 30.0,
        f"Count>0( count_eq_right ) == n - #distinct on 10000 assignments at "
        f"n=100, normalized mean error {nme} (0 required), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_03_learning_alldifferent():
    started = time.perf_counter()
    space = complete_space_with_costs(TRAIN_ALLDIFF)
    seeds = solver.derive_seeds(MASTER_SEED, 20)
    results = ga.learn_many(space, seeds, ga.GaConfig(), jobs=JOBS)
    zero = sum(1 for r in results if r.best_deviation < 1e-9)
    freq = collections.Counter(icn.describe_genome(r.best_genome) for r in results)
    modal, modal_count = freq.most_common(1)[0]
    elapsed = time.perf_counter() - started
    report(
        3,
        zero >= 10 and modal == "Count>0( count_eq_right )" and elapsed < 600,
        f"{zero}/20 runs at zero training deviation (>= 10 required); modal "
        f"function {modal!r} x{modal_count}; {elapsed:.0f}s (< 600s)",
    )


def test_criterion_04_learning_minimum():
    started = time.perf_counter()
    space = complete_space_with_costs(TRAIN_MINIMUM)
    seeds = solver.derive_seeds(MASTER_SEED, 20)
    results = ga.learn_many(space, seeds, ga.GaConfig(), jobs=JOBS)
    median_dev = statistics.median(r.best_deviation for r in results)
    elapsed = time.perf_counter() - started
    report(
        4,
        median_dev == 0 and elapsed < 600,
        f"median training deviation {median_dev} over 20 runs (0 required); "
        f"{elapsed:.0f}s (< 600s)",
    )


def linearsum_test_space():
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 100, 1, 100, p=5050)
    test = spaces.sample_balanced(c, 2000, rng_seed=MASTER_SEED + 1)
    return hamming.label_space_costs_reference(test)


def test_criterion_05_linearsum_generalization():
    space = complete_space_with_costs(TRAIN_LINEARSUM)
    seeds = solver.derive_seeds(MASTER_SEED, 20)
    results = ga.learn_many(space, seeds, ga.GaConfig(), jobs=JOBS)
    freq = collections.Counter(icn.describe_genome(r.best_genome) for r in results)
    modal, modal_count = freq.most_common(1)[0]
    modal_genome = next(
        r.best_genome for r in results if icn.describe_genome(r.best_genome) == modal
    )
    test = linearsum_test_space()
    f = icn.ErrorFunction(modal_genome, icn.ctx_from_constraint(space.constraint))
    err = icn.normalized_mean_error(f, test)
    report(
        5,
        err <= 0.01,
        f"modal function {modal!r} x{modal_count}; normalized test error "
        f"{err:.6f} on 2000+2000 at n=100 (<= 0.01 required)",
    )


def test_criterion_06_incomplete_space_learning():
    started = time.perf_counter()
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 10, 1, 10)
    train = spaces.sample_balanced(c, 10000, rng_seed=MASTER_SEED + 2)
    train = hamming.label_space_costs(train, hamming.solution_set_from_space(train))
    assert not train.complete and len(train) == 20000

    seeds = solver.derive_seeds(MASTER_SEED, 10)
    results = ga.learn_many(train, seeds, ga.GaConfig(), jobs=JOBS)
    freq = collections.Counter(icn.describe_genome(r.best_genome) for r in results)
    modal, modal_count = freq.most_common(1)[0]
    modal_genome = next(
        r.best_genome for r in results if icn.describe_genome(r.best_genome) == modal
    )

    big = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 100, 1, 100)
    test = spaces.sample_balanced_direct(big, 2000, rng_seed=MASTER_SEED + 3)
    test = hamming.label_space_costs_reference(test)
    f = icn.ErrorFunction(modal_genome, icn.ctx_from_constraint(c))
    err = icn.normalized_mean_error(f, test)
    elapsed = time.perf_counter() - started
    report(
        6,
        err <= 0.06,
        f"10k+10k nearest-solution space; modal {modal!r} x{modal_count}/10; "
        f"normalized test error {err:.6f} (<= 0.06 required); {elapsed:.0f}s",
    )


def test_criterion_07_ga_invariant_suite():
    cases = [
        ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 4),
        ConstraintInstance(ConstraintKind.MINIMUM, 3, 1, 4, p=2),
        ConstraintInstance(ConstraintKind.ORDERED, 3, 1, 4),
    ]
    cfg = ga.GaConfig(
        rng_seed=MASTER_SEED, population_size=60, max_generations=60, steady_stop=15
    )
    for c in cases:
        space = complete_space_with_costs(c)
        generations = []

        def check(gen, population, losses):
            assert all(icn.validate(g) for g in population)
            generations.append(gen)

        first = ga.learn(space, cfg, on_generation=check)
        assert len(generations) >= 2
        trace = first.loss_trace
        assert all(b <= a for a, b in zip(trace, trace[1:])), c
        again = ga.learn(space, cfg)
        assert again.best_genome == first.best_genome
        assert again.loss_trace == first.loss_trace
        assert again.generations_run == first.generations_run
    report(
        7,
        True,
        "population-wide validity, non-increasing best loss and bit-identical "
        "reruns on 3 constraint kinds",
    )


def test_criterion_08_loss_arithmetic():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 4)
    rows = np.array(
        [
            [1, 2, 3], [1, 1, 2], [2, 2, 2], [4, 4, 1], [3, 1, 2],
            [1, 3, 3], [4, 3, 2], [2, 4, 2], [1, 4, 1], [3, 3, 3],
        ],
        dtype=np.int64,
    )
    labels = concepts.concept_holds_batch(c, rows)
    costs = np.where(labels, 0, np.array([7, 1, 2, 1, 9, 1, 3, 2, 1, 2]))
    fixture = spaces.LabeledSpace(c, rows, labels, costs, complete=False)

    genomes = [
        icn.genome_from_names(["count_eq_right"], "add", "Count>0", "identity"),
        icn.genome_from_names(["identity"], "add", "Sum", "Euclid_p"),
        icn.genome_from_names(["identity", "count_eq_others"], "mul", "Sum", "AbsDiff_n"),
        icn.genome_from_names(["gap_below_p", "lt_p", "eq_p"], "add", "Count>0", "NonZero"),
        icn.genome_from_names(["max_with_next", "drop_to_next"], "mul", "Count>0", "Shortfall_p"),
    ]
    worst = 0.0
    for genome in genomes:
        expected_dev = sum(
            abs(straight_line_eval(genome_bits(genome.value), c.n, c.d, c.p, list(row)) - int(cost))
            for row, cost in zip(rows, costs)
        )
        expected = expected_dev + 0.9 * genome.count() / 31
        got = icn.loss(genome, fixture)
        worst = max(worst, abs(got - expected))
        assert got == pytest.approx(expected, abs=1e-12), icn.describe_genome(genome)
    report(
        8,
        True,
        f"loss == straight-line deviations + 0.9*bits/31 for 5 genomes on a "
        f"10-entry fixture (max |delta| {worst:.2e})",
    )


@pytest.fixture(scope="module")
def sudoku_benchmarks():
    # Error-function variants run sequentially so wall-clock timings are not
    # inflated by core contention; the predicate variant spends its time in
    # timeouts either way, so it may use both cores.
    stats = {}
    for variant in ("handcrafted", "icn_hardcoded", "icn_feedforward"):
        stats[variant] = solver.benchmark_sudoku(
            3, variant, runs=100, timeout_ms=10000, seed=MASTER_SEED, jobs=1
        )
    stats["predicate"] = solver.benchmark_sudoku(
        3, "predicate", runs=100, timeout_ms=10000, seed=MASTER_SEED, jobs=JOBS
    )
    return stats


def test_criterion_09_sudoku_ordering(sudoku_benchmarks):
    hand = sudoku_benchmarks["handcrafted"]
    hard = sudoku_benchmarks["icn_hardcoded"]
    feed = sudoku_benchmarks["icn_feedforward"]
    pred = sudoku_benchmarks["predicate"]
    for stats in sudoku_benchmarks.values():
        print(
            f"  {stats.variant:16s} median={stats.median_ms if stats.median_ms is None else round(stats.median_ms, 1)} "
            f"mean={stats.mean_ms if stats.mean_ms is None else round(stats.mean_ms, 1)} "
            f"timeouts={stats.timeouts}/100"
        )
    ok_a = hand.timeouts == 0 and hard.timeouts == 0
    ok_b = hard.median_ms <= 2 * hand.median_ms
    # An all-timeout predicate median counts as unboundedly slow.
    pred_median = pred.median_ms if pred.median_ms is not None else float("inf")
    ok_c = pred_median > max(hand.median_ms, hard.median_ms, feed.median_ms)
    ok_d = feed.timeouts == 0 and feed.median_ms > hard.median_ms
    report(
        9,
        ok_a and ok_b and ok_c and ok_d,
        f"(a) EF timeouts 0: {ok_a}; (b) hard-coded within 2x of hand-crafted "
        f"({hard.median_ms:.1f} vs {hand.median_ms:.1f} ms): {ok_b}; "
        f"(c) predicate slowest ({pred_median} ms, {pred.timeouts} timeouts): {ok_c}; "
        f"(d) feed-forward slower than hard-coded but solving all "
        f"({feed.median_ms:.1f} vs {hard.median_ms:.1f} ms): {ok_d}",
    )


def test_criterion_10_feedforward_hardcoded_equivalence():
    ff = solver.build_sudoku(3, "icn_feedforward")
    hc = solver.build_sudoku(3, "icn_hardcoded")
    rng = np.random.default_rng(MASTER_SEED)
    X = rng.integers(1, 10, size=(10000, 9), dtype=np.int64)
    batch = ff.constraints[0].error_batch(X)
    mismatches = sum(
        1 for row, val in zip(X, batch) if hc.constraints[0].error(list(row)) != int(val)
    )
    report(
        10,
        mismatches == 0,
        f"feed-forward and hard-coded errors identical on 10000 scope-9 "
        f"assignments ({mismatches} mismatches)",
    )
