"""Seeded random generation of exact-rational test material.

Everything draws through a caller-supplied ``random.Random`` so runs
are reproducible; all outputs are Fractions (multinomial draws over a
bounded denominator, never floats).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import (
    CredalSet,
    DecisionRule,
    JointDistribution,
    LossFunction,
    Partition,
    ProblemSpace,
    joint,
    loss_function,
    rule_from_weights,
)

__all__ = [
    "DENOMINATOR_CAP",
    "simplex_point",
    "random_joint",
    "random_positive_joint",
    "random_credal_set",
    "random_loss",
    "random_rule",
    "random_partition",
]

DENOMINATOR_CAP = 24


def simplex_point(rng: random.Random, n: int, positive: bool = False) -> tuple[Fraction, ...]:
    """Random rational distribution over ``n`` cells.

    Multinomial with a random denominator of at most
    ``DENOMINATOR_CAP``; with ``positive`` every cell gets at least one
    count (so every coordinate is nonzero).
    """
    if positive:
        denom = rng.randint(n, DENOMINATOR_CAP)
        counts = [1] * n
        extra = denom - n
    else:
        denom = rng.randint(1, DENOMINATOR_CAP)
        counts = [0] * n
        extra = denom
    for _ in range(extra):
        counts[rng.randrange(n)] += 1
    return tuple(Fraction(c, denom) for c in counts)


def _reshape(space: ProblemSpace, flat) -> list[list[Fraction]]:
    ny = space.ny
    return [list(flat[i * ny : (i + 1) * ny]) for i in range(space.nx)]


def random_joint(rng: random.Random, space: ProblemSpace) -> JointDistribution:
    return joint(space, _reshape(space, simplex_point(rng, space.nx * space.ny)))


def random_positive_joint(rng: random.Random, space: ProblemSpace) -> JointDistribution:
    return joint(space, _reshape(space, simplex_point(rng, space.nx * space.ny, positive=True)))


def random_credal_set(
    rng: random.Random,
    space: ProblemSpace,
    convex: bool | None = None,
    positive: bool = False,
) -> CredalSet:
    if convex is None:
        convex = rng.random() < Fraction(1, 2)
    k = rng.randint(2, 4)
    draw = random_positive_joint if positive else random_joint
    return CredalSet(space, tuple(draw(rng, space) for _ in range(k)), convex)


def random_loss(rng: random.Random, space: ProblemSpace) -> LossFunction:
    table = [
        [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(space.na)]
        for _ in range(space.ny)
    ]
    return loss_function(space, table)


def random_rule(rng: random.Random, space: ProblemSpace) -> DecisionRule:
    return rule_from_weights(
        space, [simplex_point(rng, space.na) for _ in range(space.nx)]
    )


def random_partition(rng: random.Random, labels) -> Partition:
    """Uniform-ish random set partition via a random restricted-growth
    assignment."""
    labels = tuple(str(v) for v in labels)
    cells: list[list[str]] = []
    for name in labels:
        i = rng.randint(0, len(cells))
        if i == len(cells):
            cells.append([name])
        else:
            cells[i].append(name)
    return Partition(labels=labels, cells=tuple(tuple(c) for c in cells))
