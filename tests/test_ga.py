import hashlib
import json
import random

import numpy as np
import pytest

from efkit import ga, icn
from efkit.concepts import ConstraintInstance, ConstraintKind
from efkit.ga import (
    GaConfig,
    LearnResult,
    crossover,
    init_population,
    learn,
    learn_many,
    mutate,
    replace,
    select,
)
from efkit.hamming import label_space_costs, solution_set_from_space
from efkit.icn import Genome, alldifferent_reference_genome, validate
from efkit.solver import derive_seeds
from efkit.spaces import enumerate_complete


def small_space(kind=ConstraintKind.ALL_DIFFERENT, n=3, lo=1, hi=3, p=0):
    c = ConstraintInstance(kind, n, lo, hi, p)
    space = enumerate_complete(c)
    return label_space_costs(space, solution_set_from_space(space))


FAST = dict(population_size=40, max_generations=60, steady_stop=12)


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=0)
    with pytest.raises(TypeError):  # selection is always a 2-way tournament
        GaConfig(selection_tournament_size=2)
    assert GaConfig().elite_count == 28


def test_init_population():
    cfg = GaConfig(rng_seed=5)
    pop_a = init_population(cfg, random.Random(5))
    pop_b = init_population(cfg, random.Random(5))
    assert len(pop_a) == 160
    assert all(validate(g) for g in pop_a)
    assert pop_a == pop_b


def test_select_prefers_lower_loss():
    rng = random.Random(0)
    a, b = alldifferent_reference_genome(), mutate(alldifferent_reference_genome(), rng)
    for _ in range(50):
        assert select([a, b], [3.0, 5.0], rng) == a
    assert select([a], [1.0], rng) == a


def test_select_breaks_ties_fairly():
    rng = random.Random(0)
    a, b = alldifferent_reference_genome(), mutate(alldifferent_reference_genome(), rng)
    wins = sum(select([a, b], [2.0, 2.0], rng) == a for _ in range(10000))
    assert abs(wins / 10000 - 0.5) < 0.02


def test_crossover_identical_parents_and_validity():
    rng = random.Random(1)
    parent = alldifferent_reference_genome()
    c1, c2 = crossover(parent, parent, rng)
    assert c1 == parent and c2 == parent
    for _ in range(200):
        a = init_population(GaConfig(population_size=1), rng)[0]
        b = init_population(GaConfig(population_size=1), rng)[0]
        c1, c2 = crossover(a, b, rng)
        assert validate(c1) and validate(c2)


def test_mutate_always_valid_and_uniform():
    class RecordingRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.first_draws = []

        def randrange(self, *args, **kwargs):
            value = super().randrange(*args, **kwargs)
            self.first_draws.append(value)
            return value

    rng = RecordingRandom(2)
    g = alldifferent_reference_genome()
    for _ in range(10000):
        rng.first_draws.clear()
        mutant = mutate(g, rng)
        assert validate(mutant)
        # the first randrange call inside mutate picks the flipped bit
        assert 0 <= rng.first_draws[0] < 31

    rng = RecordingRandom(3)
    counts = np.zeros(31)
    for _ in range(10000):
        rng.first_draws.clear()
        mutate(g, rng)
        counts[rng.first_draws[0]] += 1
    freqs = counts / 10000
    assert np.abs(freqs - 1 / 31).max() < 0.01


def test_replace_keeps_best_and_size():
    rng = random.Random(4)
    cfg = GaConfig()
    old = init_population(cfg, rng)
    old_losses = [float(i) for i in range(len(old))]
    kids = init_population(cfg, rng)
    kid_losses = [float(i) + 0.5 for i in range(len(kids))]
    new_pop, new_losses = replace(old, old_losses, kids, kid_losses, cfg)
    assert len(new_pop) == 160
    assert min(new_losses) == 0.0
    assert old[0] in new_pop

    small_pop, small_losses = replace(old[:3], old_losses[:3], kids[:2], kid_losses[:2], cfg)
    assert len(small_pop) == 5


def test_learn_trace_monotone_and_deterministic():
    space = small_space()
    cfg = GaConfig(rng_seed=9, **FAST)
    res_a = learn(space, cfg)
    res_b = learn(space, cfg)
    assert res_a.best_genome == res_b.best_genome
    assert res_a.best_loss == res_b.best_loss
    assert res_a.loss_trace == res_b.loss_trace
    assert res_a.generations_run == res_b.generations_run
    trace = res_a.loss_trace
    assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
    assert res_a.seed == 9


def test_learn_every_individual_valid():
    space = small_space(ConstraintKind.MINIMUM, n=3, lo=1, hi=4, p=2)
    seen = []

    def check(gen, population, losses):
        assert len(population) == 40
        assert all(validate(g) for g in population)
        seen.append(gen)

    learn(space, GaConfig(rng_seed=3, **FAST), on_generation=check)
    assert seen[0] == 0 and len(seen) >= 2


def test_learn_steady_stop():
    space = small_space()
    cfg = GaConfig(rng_seed=1, population_size=40, max_generations=500, steady_stop=10)
    res = learn(space, cfg)
    assert res.generations_run < 500
    tail = res.loss_trace[-10:]
    assert all(v == tail[0] for v in tail)


def test_pure_elitist_replacement_never_worsens(monkeypatch):
    space = small_space(ConstraintKind.ORDERED, n=3, lo=1, hi=4)
    monkeypatch.setattr(ga, "CROSSOVER_RATE", 0.0)
    monkeypatch.setattr(ga, "MUTATION_RATE", 0.0)
    cfg = GaConfig(rng_seed=8, population_size=40, max_generations=25, steady_stop=25)
    histories = []

    def record(gen, population, losses):
        histories.append(sorted(losses))

    learn(space, cfg, on_generation=record)
    for before, after in zip(histories, histories[1:]):
        assert all(b2 <= b1 for b1, b2 in zip(before, after))


def test_learn_finds_alldiff_reference():
    space = small_space(n=4, lo=1, hi=5)
    res = learn(space, GaConfig(rng_seed=0))
    assert res.best_deviation == pytest.approx(0.0)
    assert icn.describe_genome(res.best_genome) == "Count>0( count_eq_right )"


def test_best_deviation_is_the_exact_integer():
    # loss - penalty in floats can land an ulp below the deviation: 8 with 4
    # selected bits gives 7.999999999999999, 8192 with 5 gives 8191.999999999999.
    for bits in range(icn.GENOME_LENGTH + 1):
        genome = Genome((1 << bits) - 1)
        for deviation in [*range(2000), 8192, 99_999]:
            loss = deviation + icn.regularization(genome)
            result = LearnResult(genome, loss, generations_run=1, loss_trace=[loss], seed=0)
            assert result.best_deviation == deviation, (deviation, bits)
            assert isinstance(result.best_deviation, float)


@pytest.mark.parametrize(
    "kind, hi, p, optima",
    [(ConstraintKind.ALL_DIFFERENT, 5, 0, 12), (ConstraintKind.MINIMUM, 6, 3, 6)],
    ids=["alldiff", "minimum"],
)
def test_one_transformation_genomes_reach_zero_deviation(kind, hi, p, optima):
    # The training spaces of acceptance criteria 3 and 4, scored for every
    # genome that selects one transformation (18 * 2 * 2 * 9 = 648).
    evaluator = icn.SpaceEvaluator(small_space(kind, n=4, lo=1, hi=hi, p=p))
    genomes = [
        icn.genome_from_names([t], a, g, c)
        for t in icn.TRANSFORMATION_NAMES
        for a in icn.ARITHMETIC_NAMES
        for g in icn.AGGREGATION_NAMES
        for c in icn.COMPARISON_NAMES
    ]
    deviations = {genome: evaluator.deviation(genome) for genome in genomes}
    assert len(deviations) == 648
    assert min(deviations.values()) == 0
    zero = [genome for genome, dev in deviations.items() if dev == 0]
    assert len(zero) == optima
    if kind is ConstraintKind.ALL_DIFFERENT:
        # Each sets four bits, so their losses tie; among equal losses the
        # GA keeps the greatest genome int.
        assert max(zero, key=lambda genome: genome.value) == alldifferent_reference_genome()


def test_learn_many_matches_single_runs():
    space = small_space()
    cfg = GaConfig(**FAST)
    seeds = [4, 5]
    batch = learn_many(space, seeds, cfg, jobs=1)
    for seed, result in zip(seeds, batch):
        solo = learn(space, GaConfig(rng_seed=seed, **FAST))
        assert result.seed == seed
        assert result.best_genome == solo.best_genome
        assert result.loss_trace == solo.loss_trace


# Seeded GA contract on the acceptance training spaces, at the default
# configuration with seeds derive_seeds(42, 2): best genome (as its genome
# file bit line), generations_run, best_loss and a digest of the full loss
# trace. Any change to the search trajectory or the tie rule shows here.
GOLDEN_LEARN = {
    "alldiff": [
        ("0100000000000000001001100000000", 62, 0.11612903225806452, "07726705a2fc3ad1"),
        ("0100000000000000001001100000000", 62, 0.11612903225806452, "ccfdbfc13936be44"),
    ],
    "minimum": [
        ("0000000000001000001001100000000", 96, 0.11612903225806452, "0d19c35647633038"),
        ("0100110000000000011010000010000", 90, 0.2032258064516129, "97d524992270471c"),
    ],
    "linearsum": [
        ("0000000001100000001010001000000", 68, 78.14516129032258, "a96c66df7fb782d5"),
        ("1000000000000000001010001000000", 69, 78.11612903225806, "f012014b1c4a310f"),
    ],
}


def test_learn_golden_trajectories(tmp_path):
    from test_acceptance import TRAIN_ALLDIFF, TRAIN_LINEARSUM, TRAIN_MINIMUM

    instances = {"alldiff": TRAIN_ALLDIFF, "minimum": TRAIN_MINIMUM, "linearsum": TRAIN_LINEARSUM}
    for name, c in instances.items():
        space = enumerate_complete(c)
        space = label_space_costs(space, solution_set_from_space(space))
        got = []
        for seed in derive_seeds(42, 2):
            res = learn(space, GaConfig(rng_seed=seed))
            path = tmp_path / f"{name}-{seed}.genome.txt"
            icn.save_genome(icn.ErrorFunction(res.best_genome, icn.ctx_from_constraint(c)), path)
            bits = path.read_text().splitlines()[1]
            digest = hashlib.sha256(json.dumps(res.loss_trace).encode()).hexdigest()[:16]
            assert len(res.loss_trace) == res.generations_run + 1
            got.append((bits, res.generations_run, res.best_loss, digest))
        assert got == GOLDEN_LEARN[name], name


# The same contract on spaces with negative domains. Their transformations
# take negative values, so the loss runs through the general forward pass
# instead of the per-space table shortcuts, which the spaces above never
# leave.
GOLDEN_LEARN_NEGATIVE = {
    "linearsum p=0": (
        ConstraintInstance(ConstraintKind.LINEAR_SUM, 3, -2, 2, p=0),
        [
            ("1000000000000000001010001000000", 90, 6.116129032258065, "dadf74c4c3626e5c"),
            ("1000000000000000001010001000000", 108, 6.116129032258065, "a171400835cf4dd8"),
        ],
    ),
    "linearsum p=1": (
        ConstraintInstance(ConstraintKind.LINEAR_SUM, 3, -2, 2, p=1),
        [
            ("1010001000000000010110010000000", 66, 28.203225806451613, "e026c977bd3f2945"),
            ("1001000001001000000101010000000", 75, 28.203225806451613, "2058f4e7710e3a33"),
        ],
    ),
    "minimum p=-1": (
        ConstraintInstance(ConstraintKind.MINIMUM, 3, -2, 2, p=-1),
        [
            ("1001111100000000001001000100000", 86, 0.26129032258064516, "584881212ea315b3"),
            ("1001111100000000001001000100000", 70, 0.26129032258064516, "da91ed8a9410e1a7"),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LEARN_NEGATIVE))
def test_learn_golden_trajectories_negative_domain(name):
    c, expected = GOLDEN_LEARN_NEGATIVE[name]
    space = enumerate_complete(c)
    space = label_space_costs(space, solution_set_from_space(space))
    got = []
    for seed in derive_seeds(42, 2):
        res = learn(space, GaConfig(rng_seed=seed))
        digest = hashlib.sha256(json.dumps(res.loss_trace).encode()).hexdigest()[:16]
        got.append((format(res.best_genome.value, "031b"), res.generations_run, res.best_loss, digest))
    assert got == expected
