"""Rectangularity by one-signal swaps and weak time consistency one
signal at a time, against the enumerations they replaced."""

import random
from fractions import Fraction

import itertools

from credal.consistency import (
    _first_violating_product,
    _weak_verdict,
    sufficient_conditions,
)
from credal.core import (
    DecisionProblem,
    DecisionRule,
    ProblemSpace,
    credal_set,
    hull,
    is_rectangular,
    loss_function,
)
from credal.corpus import load_corpus
from credal.minimax import solve_a_posteriori, worst_case_loss
from credal.sampling import random_rule, simplex_point

import structure_oracle

F = Fraction


def _space(nx, ny, na):
    return ProblemSpace(
        tuple("x%d" % i for i in range(nx)),
        tuple("y%d" % i for i in range(ny)),
        tuple("a%d" % i for i in range(na)),
    )


def _random_set(rng, trial):
    """A small random set; by ``trial``: a plain set, its hull, or its
    hull minus one generator.  Some signals may be dead, and some
    generators repeat or share rows with another.  At most 3 distinct
    generators over 3 signals, or 4 over 2, keep every hull within
    ``HULL_PRODUCT_LIMIT``."""
    nx, ny = rng.randint(2, 3), rng.randint(2, 3)
    space = _space(nx, ny, rng.randint(2, 3))
    convex = rng.random() < 0.5
    dead = set(rng.sample(range(nx), rng.choice((0, 0, 1))))
    masses = []
    for _ in range(rng.randint(2, 5 - nx)):
        flat = iter(simplex_point(rng, (nx - len(dead)) * ny))
        masses.append(
            [[F(0)] * ny if i in dead else [next(flat) for _ in range(ny)] for i in range(nx)]
        )
    if rng.random() < 0.3:
        # a generator sharing its X-marginal and all rows but one with another
        g = [list(row) for row in rng.choice(masses)]
        i = rng.choice([i for i in range(nx) if i not in dead])
        g[i] = [sum(g[i]) * v for v in simplex_point(rng, ny)]
        masses.append(g)
    if rng.random() < 0.2:
        masses.append(rng.choice(masses))
    p = credal_set(space, masses, convex)
    if trial % 3 == 1:
        p = hull(p)
    elif trial % 3 == 2:
        h = hull(p)
        if len(h.generators) > 1:
            drop = rng.randrange(len(h.generators))
            kept = [g.mass for k, g in enumerate(h.generators) if k != drop]
            p = credal_set(space, kept, convex)
    return p


def test_random_rectangularity_matches_the_product_enumeration():
    rng = random.Random(77)
    seen = {True: 0, False: 0}
    for trial in range(300):
        p = _random_set(rng, trial)
        want = structure_oracle.is_rectangular(p)
        assert is_rectangular(p) == want, p
        seen[want] += 1
    assert min(seen.values()) >= 90, seen


def _fixed_outcome_set(rng):
    """Generators sharing one outcome marginal, each coupling the signal
    to the outcome its own way: conditioning dilates, so the weak check
    often fails."""
    space = _space(rng.randint(2, 3), rng.randint(2, 3), rng.randint(2, 3))
    q = simplex_point(rng, space.ny, positive=True)
    masses = []
    for _ in range(rng.randint(2, 5 - space.nx)):
        given_y = [simplex_point(rng, space.nx) for _ in range(space.ny)]
        masses.append(
            [[q[y] * given_y[y][x] for y in range(space.ny)] for x in range(space.nx)]
        )
    return credal_set(space, masses, rng.random() < 0.5)


def _random_problem(rng, trial):
    """Alternately a set from :func:`_random_set` with losses in {0, 1, 2}
    and a fixed-outcome set with zero loss on the matching action; both
    tie often, so the posterior faces have several vertices."""
    if trial % 2:
        p = _fixed_outcome_set(rng)
        space = p.space
        table = [
            [0 if a % space.ny == y else rng.randint(1, 2) for a in range(space.na)]
            for y in range(space.ny)
        ]
    else:
        p = _random_set(rng, trial // 2)
        space = p.space
        table = [[rng.randint(0, 2) for _ in range(space.na)] for _ in range(space.ny)]
    return DecisionProblem(p, loss_function(space, table))


def test_random_weak_checks_match_the_vertex_product_walk():
    rng = random.Random(78)
    seen = {"consistent": 0, "inconsistent": 0}
    for trial in range(300):
        dp = _random_problem(rng, trial)
        notes = sufficient_conditions(dp)
        post = solve_a_posteriori(dp)
        want = structure_oracle._weak_verdict(dp, notes, post)
        assert _weak_verdict(dp, notes, post) == want, dp
        seen[want.result] += 1
    assert min(seen.values()) >= 60, seen


def test_first_violating_product_matches_a_scan():
    # arbitrary action lists and bounds, not only posterior faces and V0,
    # so that the first violating product often skips early choices
    rng = random.Random(79)
    skipped = 0
    for trial in range(150):
        dp = _random_problem(rng, trial)
        choices = [
            tuple(random_rule(rng, dp.space).per_x[0] for _ in range(rng.randint(1, 3)))
            for _ in dp.space.x_labels
        ]
        rules = [DecisionRule(dp.space, combo) for combo in itertools.product(*choices)]
        losses = [worst_case_loss(dp.credal, r, dp.loss)[0] for r in rules]
        bound = rng.choice(losses) - rng.choice((0, 0, F(1, 100)))
        want = next((r for r, v in zip(rules, losses) if v > bound), None)
        assert _first_violating_product(dp, choices, bound) == want
        skipped += want is not None and want != rules[0]
    assert skipped >= 30, skipped


def test_corpus_structure_checks_match_the_enumerations():
    for case in load_corpus():
        p = case.credal()
        assert is_rectangular(p) == structure_oracle.is_rectangular(p), case.id
        if case.file.loss is None:
            continue
        dp = case.problem()
        notes = sufficient_conditions(dp)
        post = solve_a_posteriori(dp)
        got = _weak_verdict(dp, notes, post)
        want = structure_oracle._weak_verdict(dp, notes, post)
        assert got.result == want.result, case.id
        assert got.witness == want.witness, case.id
