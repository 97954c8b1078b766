"""Seeded random instances for tests, property suites and the CLI."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .graphs import SubgroupPresentation
from .qm import AlternatingFunction, SplitQuasimorphism
from .words import Word, random_product


@dataclass(frozen=True)
class InstanceSpec:
    """Shape of a random subgroup presentation."""

    rank: int
    generator_count: int
    max_length: int
    seed: int = 0

    def __post_init__(self):
        if self.rank < 2:
            raise ValueError("ambient rank must be at least 2")
        if self.generator_count < 0 or self.max_length < 1:
            raise ValueError("bounds must be positive")


def random_reduced_word(rng: random.Random, rank: int, length: int) -> Word:
    """Uniform non-backtracking walk: reduced by construction."""
    letters: list[int] = []
    for _ in range(length):
        options = [s for i in range(1, rank + 1) for s in (i, -i)]
        if letters:
            options.remove(-letters[-1])
        letters.append(rng.choice(options))
    return Word(rank, tuple(letters))


def random_presentation(rng: random.Random, spec: InstanceSpec) -> SubgroupPresentation:
    gens = tuple(
        random_reduced_word(rng, spec.rank, rng.randint(1, spec.max_length))
        for _ in range(spec.generator_count)
    )
    return SubgroupPresentation(spec.rank, gens)


def random_subgroup_element(
    rng: random.Random, p: SubgroupPresentation, max_factors: int
) -> Word:
    """A product of up to max_factors generators and inverses (possibly
    collapsing to the identity)."""
    return random_product(rng, p.rank, p.generators, max_factors)


def random_alternating(
    rng: random.Random,
    max_support: int = 6,
    max_numerator: int = 8,
    max_denominator: int = 4,
    multiple_of: int = 1,
    allow_zero: bool = True,
) -> AlternatingFunction:
    size = rng.randint(0 if allow_zero else 1, max_support)
    points = rng.sample(range(1, max_support + 1), min(size, max_support))
    values = {}
    for m in points:
        num = rng.randint(-max_numerator, max_numerator)
        if num == 0 and not allow_zero:
            num = 1
        values[m * multiple_of] = Fraction(num, rng.randint(1, max_denominator))
    return AlternatingFunction(values)


def random_split_qm(
    rng: random.Random, rank: int, max_support: int = 6
) -> SplitQuasimorphism:
    return SplitQuasimorphism(
        rank, [random_alternating(rng, max_support=max_support) for _ in range(rank)]
    )
