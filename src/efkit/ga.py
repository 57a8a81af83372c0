"""Genetic algorithm over network genomes with loss-as-fitness.

Steady-state-free generational scheme: tournament selection of two,
one-point crossover, one-flip mutation, and an elitist merge that copies
the best slice of the old generation before truncating back to the
population size. Stops early after a fixed number of generations without
any improvement of the best loss.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import icn
from .icn import Genome, SpaceEvaluator
from .spaces import LabeledSpace
from .util import map_jobs


# The one GA configuration every learning uses: the share of parent pairs
# crossed over, the share of offspring given a one-bit mutation, and the share
# of the old generation kept as elites.
CROSSOVER_RATE = 0.4
MUTATION_RATE = 1.0
ELITE_FRACTION = 0.17


@dataclass
class GaConfig:
    population_size: int = 160
    max_generations: int = 800
    steady_stop: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("population_size", "max_generations", "steady_stop"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @property
    def elite_count(self) -> int:
        return math.ceil(ELITE_FRACTION * self.population_size)


@dataclass
class LearnResult:
    best_genome: Genome
    best_loss: float
    generations_run: int
    loss_trace: list[float]
    seed: int

    @property
    def best_deviation(self) -> float:
        """Training deviation of the best genome: its loss minus its length
        penalty, rounded to the integer that a float subtraction can miss."""
        return float(round(self.best_loss - icn.regularization(self.best_genome)))


def random_genome(rng: random.Random) -> Genome:
    """Uniform bits, drawn from bit position 0 (the most significant) on."""
    value = 0
    for _ in range(icn.GENOME_LENGTH):
        value = value << 1 | (rng.random() < 0.5)
    return icn.repair(Genome(value), rng)


def init_population(cfg: GaConfig, rng: random.Random) -> list[Genome]:
    return [random_genome(rng) for _ in range(cfg.population_size)]


def select(population: list[Genome], losses: list[float], rng: random.Random) -> Genome:
    """2-way tournament without replacement; ties split evenly."""
    if not population:
        raise ValueError("empty population")
    if len(population) == 1:
        return population[0]
    i, j = rng.sample(range(len(population)), 2)
    if losses[i] < losses[j]:
        return population[i]
    if losses[j] < losses[i]:
        return population[j]
    return population[rng.choice((i, j))]


def crossover(a: Genome, b: Genome, rng: random.Random) -> tuple[Genome, Genome]:
    """One-point crossover with the cut strictly inside the genome, then repair."""
    cut = rng.randint(1, icn.GENOME_LENGTH - 1)
    tail = (1 << (icn.GENOME_LENGTH - cut)) - 1  # bit positions cut.. onwards
    child1 = Genome(a.value & ~tail | b.value & tail)
    child2 = Genome(b.value & ~tail | a.value & tail)
    return icn.repair(child1, rng), icn.repair(child2, rng)


def mutate(g: Genome, rng: random.Random) -> Genome:
    """Flip exactly one uniformly chosen bit, then repair."""
    idx = rng.randrange(icn.GENOME_LENGTH)
    return icn.repair(Genome(g.value ^ 1 << (icn.GENOME_LENGTH - 1 - idx)), rng)


def replace(
    old_population: list[Genome],
    old_losses: list[float],
    offspring: list[Genome],
    offspring_losses: list[float],
    cfg: GaConfig,
) -> tuple[list[Genome], list[float]]:
    """Elitist merge: best elite_count of the old generation join the
    offspring, and the pool is truncated to the population size keeping
    the lowest losses with a stable tie order."""
    elite_order = sorted(range(len(old_population)), key=lambda i: old_losses[i])
    elites = elite_order[: cfg.elite_count]
    pool = [(old_losses[i], old_population[i]) for i in elites]
    pool += list(zip(offspring_losses, offspring))
    if len(pool) > cfg.population_size:
        order = sorted(range(len(pool)), key=lambda i: pool[i][0])
        pool = [pool[i] for i in sorted(order[: cfg.population_size])]
    losses = [entry[0] for entry in pool]
    genomes = [entry[1] for entry in pool]
    return genomes, losses


def learn(
    space: LabeledSpace,
    cfg: GaConfig,
    on_generation: Optional[Callable[[int, list[Genome], list[float]], None]] = None,
) -> LearnResult:
    """Evolve genomes against the space until the generation or steady-stop
    budget runs out; returns the best individual ever evaluated.

    on_generation, when given, is called with (generation, population,
    losses) after every replacement, and once for the initial population.
    """
    rng = random.Random(cfg.rng_seed)
    evaluator = SpaceEvaluator(space)
    cache: dict[int, float] = {}

    def fitness(g: Genome) -> float:
        value = cache.get(g.value)
        if value is None:
            value = cache[g.value] = evaluator.loss(g)
        return value

    # Among equal-loss individuals the best-ever slot prefers the greatest
    # genome int, i.e. the earliest catalog operations; this canonicalizes
    # ties such as comparisons that reduce to the identity when p = 0. Ties
    # never reset the steady-stop clock.
    def rank(entry: tuple[float, Genome]) -> tuple[float, int]:
        return entry[0], -entry[1].value

    population = init_population(cfg, rng)
    losses = [fitness(g) for g in population]
    best_loss, best_genome = min(zip(losses, population), key=rank)
    trace = [best_loss]
    if on_generation is not None:
        on_generation(0, population, losses)

    generations = 0
    stale = 0
    for gen in range(1, cfg.max_generations + 1):
        offspring: list[Genome] = []
        while len(offspring) < cfg.population_size:
            parent1 = select(population, losses, rng)
            parent2 = select(population, losses, rng)
            if rng.random() < CROSSOVER_RATE:
                child1, child2 = crossover(parent1, parent2, rng)
            else:
                child1, child2 = parent1, parent2
            for child in (child1, child2):
                # Drawn even at a rate of 1, so the seeded stream stays as pinned.
                if rng.random() < MUTATION_RATE:
                    child = mutate(child, rng)
                offspring.append(child)
        offspring = offspring[: cfg.population_size]
        offspring_losses = [fitness(g) for g in offspring]
        population, losses = replace(population, losses, offspring, offspring_losses, cfg)
        generations = gen
        previous = best_loss
        best_loss, best_genome = min([(best_loss, best_genome), *zip(losses, population)], key=rank)
        stale = 0 if best_loss < previous else stale + 1
        trace.append(best_loss)
        if on_generation is not None:
            on_generation(gen, population, losses)
        if stale >= cfg.steady_stop:
            break

    return LearnResult(
        best_genome=best_genome,
        best_loss=best_loss,
        generations_run=generations,
        loss_trace=trace,
        seed=cfg.rng_seed,
    )


def _learn_worker(args) -> LearnResult:
    space, cfg = args
    return learn(space, cfg)


def learn_many(
    space: LabeledSpace, seeds: list[int], cfg: GaConfig, jobs: int = 1
) -> list[LearnResult]:
    """Independent seeded runs on one space; results follow seed order."""
    configs = [(space, dataclasses.replace(cfg, rng_seed=seed)) for seed in seeds]
    return map_jobs(_learn_worker, configs, jobs)
