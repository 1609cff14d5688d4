"""Metamorphic tests of the two games and the time checks.

Each transform changes how a problem is written down, not what it
means: signals, outcomes, actions or generators listed in another
order, a loss ``a*L + b`` with ``a > 0``, a repeated generator, or a
generator inside the hull.  Every answer that does not depend on the
listing order must map back: the prior value, ``unique``, the optimal
face as a set of rules keyed by label, each posterior value and set of
optimal actions, the signal-blind game's value, its optimal actions and
whether it matches the prior value, the weak and time verdicts,
rectangularity and the hull's generators (a finite set takes no
generator inside its hull).
The lexicographically first rule, the bookie mixture and the witnesses
depend on the order or on the pivot path, and are left out.

The last test asks every question of one problem in a shuffled order
and compares each answer with the same question asked of a new
problem, which checks the games each problem keeps.
"""

import random
from fractions import Fraction

from credal.consistency import (
    check_time_consistency,
    check_weak_time_consistency,
    falsify_dynamic_consistency,
)
from credal.core import (
    DecisionProblem,
    ProblemSpace,
    credal_set,
    hull,
    is_rectangular,
    loss_function,
)
from credal.linprog import SizeLimitError
from credal.minimax import (
    solve_a_posteriori,
    solve_a_priori,
    solve_ignoring,
)
from credal.sampling import random_loss

from problems import random_set_with_dead_signals

F = Fraction

PROBLEMS = 150


def _problem(space, masses, convex, table):
    return DecisionProblem(credal_set(space, masses, convex), loss_function(space, table))


def _parts(dp):
    return dp.space, [g.mass for g in dp.credal.generators], dp.credal.convex, dp.loss.table


def _problems(seed):
    """Seeded problems; every other one has a 0/1/2 loss, which ties
    often, so that faces with several vertices come up."""
    rng = random.Random(seed)
    for trial in range(PROBLEMS):
        p, _dead = random_set_with_dead_signals(rng, convex=trial % 3 != 0)
        loss = random_loss(rng, p.space)
        if trial % 2:
            table = [[rng.randint(0, 2) for _ in row] for row in loss.table]
            loss = loss_function(p.space, table)
        yield rng, DecisionProblem(p, loss)


def _shuffled(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return order


def _signals(rng, space, masses, convex, table):
    o = _shuffled(rng, space.nx)
    space = ProblemSpace([space.x_labels[i] for i in o], space.y_labels, space.actions)
    return space, [[m[i] for i in o] for m in masses], convex, table


def _outcomes(rng, space, masses, convex, table):
    o = _shuffled(rng, space.ny)
    space = ProblemSpace(space.x_labels, [space.y_labels[j] for j in o], space.actions)
    masses = [[[row[j] for j in o] for row in m] for m in masses]
    return space, masses, convex, [table[j] for j in o]


def _actions(rng, space, masses, convex, table):
    o = _shuffled(rng, space.na)
    space = ProblemSpace(space.x_labels, space.y_labels, [space.actions[k] for k in o])
    return space, masses, convex, [[row[k] for k in o] for row in table]


def _generators(rng, space, masses, convex, table):
    return space, [masses[i] for i in _shuffled(rng, len(masses))], convex, table


def _repeated(rng, space, masses, convex, table):
    return space, masses + [rng.choice(masses)], convex, table


def _inside(rng, space, masses, convex, table):
    # a linear maximum over a set is attained at its hull's vertices, so a
    # mixture of two generators changes no game, in either reading
    a, b = rng.choice(masses), rng.choice(masses)
    t = F(rng.randint(1, 6), 7)
    mix = [[t * u + (1 - t) * v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]
    return space, masses + [mix], convex, table


TRANSFORMS = (_signals, _outcomes, _actions, _generators, _repeated, _inside)


def _answers(dp, scale=1, shift=0):
    """The order-free answers about ``dp``, keyed by label, with every
    value ``v`` read back as ``(v - shift) / scale``."""
    space = dp.space

    def action(a):
        return tuple(sorted(zip(space.actions, a.weights)))

    def rule(r):
        return tuple(sorted((x, action(a)) for x, a in zip(space.x_labels, r.per_x)))

    def back(v):
        return (v - shift) / scale

    prior, post, blind = solve_a_priori(dp), solve_a_posteriori(dp), solve_ignoring(dp)
    return {
        "value": back(prior.value),
        "unique": prior.unique,
        "face": frozenset(map(rule, prior.optimal_rule_vertices)),
        "posterior": {
            pt.x: (back(pt.value), frozenset(map(action, pt.action_vertices)))
            for pt in post.per_x
        },
        "ignoring": (
            back(blind.value),
            frozenset(map(action, blind.action_vertices)),
            blind.matches_a_priori,
        ),
        "weak": check_weak_time_consistency(dp).result,
        "time": check_time_consistency(dp).result,
    }


def test_answers_map_back_under_every_transform():
    seen = {"consistent": 0, "inconsistent": 0, "several": 0}
    for rng, dp in _problems(2201):
        want = _answers(dp)
        for transform in TRANSFORMS:
            got = _answers(_problem(*transform(rng, *_parts(dp))))
            assert got == want, (transform.__name__, dp)
        seen[want["time"]] += 1
        seen["several"] += not want["unique"]
    assert min(seen.values()) >= 10, seen


def test_answers_map_back_under_an_affine_loss():
    for rng, dp in _problems(2202):
        scale, shift = F(rng.randint(1, 5), rng.randint(1, 3)), F(rng.randint(-4, 4), 3)
        space, masses, convex, table = _parts(dp)
        table = [[scale * v + shift for v in row] for row in table]
        got = _answers(_problem(space, masses, convex, table), scale, shift)
        assert got == _answers(dp), (scale, shift, dp)


def _structure(p):
    """Whether ``p`` is rectangular, and the generators of its hull, each
    as its masses keyed by label; a refusal as its message."""
    space = p.space

    def masses(g):
        return frozenset(
            ((x, y), v)
            for x, row in zip(space.x_labels, g.mass)
            for y, v in zip(space.y_labels, row)
        )

    try:
        generators = frozenset(map(masses, hull(p).generators))
    except SizeLimitError as e:
        generators = str(e)
    return is_rectangular(p), generators


def test_structure_maps_back_under_every_transform():
    seen = {True: 0, False: 0}
    for rng, dp in _problems(2204):
        want = _structure(dp.credal)
        for transform in TRANSFORMS:
            if transform is _inside and not dp.credal.convex:
                continue  # the mixture is a new member of a finite set
            got = _structure(_problem(*transform(rng, *_parts(dp))).credal)
            assert got == want, (transform.__name__, dp)
        seen[want[0]] += 1
    assert min(seen.values()) >= 30, seen


def _dynamic(dp):
    try:
        return falsify_dynamic_consistency(dp, budget=0)
    except SizeLimitError as e:
        return str(e)


QUESTIONS = (
    lambda dp: solve_a_priori(dp, face=False),
    solve_a_priori,
    solve_a_posteriori,
    solve_ignoring,
    check_weak_time_consistency,
    check_time_consistency,
    _dynamic,
)


def test_a_used_problem_answers_as_new_ones():
    # each answer, the rule, mixture and witnesses too, is the one a new
    # problem gives, in whatever order the questions come
    for rng, dp in _problems(2203):
        got = {}
        for i in _shuffled(rng, len(QUESTIONS)):
            got[i] = QUESTIONS[i](dp)
        for i, ask in enumerate(QUESTIONS):
            assert got[i] == ask(_problem(*_parts(dp))), (i, dp)
