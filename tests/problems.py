"""Shared worked problems used across the test suite.

These mirror the cases shipped in the package corpus; unit tests build
them directly so the low-level modules can be tested before the corpus
loader exists.
"""

import json
import random
from fractions import Fraction

from credal.core import (
    DecisionProblem,
    ProblemSpace,
    classification_loss,
    credal_set,
    hull,
    loss_function,
)
from credal.problemfile import problem_file_from, render_problem_file
from credal.sampling import simplex_point

F = Fraction


def _cell_counts(rng, n):
    """``n`` positive counts and their sum, drawn as ``perfbench/workloads.py``
    draws a joint's cells: the sum from ``2n``-``max(24, 3n)``, every cell
    1, and each further unit to a uniform cell."""
    denom = rng.randint(2 * n, max(24, 3 * n))
    counts = [1] * n
    for _ in range(denom - n):
        counts[rng.randrange(n)] += 1
    return counts, denom


def _loss(rng, space):
    """Losses in [-12, 12] over denominators 1-4, as ``perfbench/workloads.py``
    draws them."""
    table = [
        [F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(space.na)] for _ in range(space.ny)
    ]
    return loss_function(space, table)


def seven_by_five_text():
    """A convex file of 3 joints over 7 signals, 5 outcomes and 2 actions,
    every cell positive, drawn as ``perfbench/workloads.py`` draws its
    joints (seed 75): its hull has 3^8 = 6,561 products."""
    rng = random.Random(75)
    gens = []
    for _ in range(3):
        counts, denom = _cell_counts(rng, 35)
        gens.append([["%d/%d" % (c, denom) for c in counts[i : i + 5]] for i in range(0, 35, 5)])
    return json.dumps({
        "x_labels": [str(i) for i in range(7)],
        "y_labels": [str(j) for j in range(5)],
        "actions": ["0", "1"],
        "convex": True,
        "generators": gens,
    })


def sharp_limit_set(rng):
    """A convex set of 2 joints over the 8 signals of
    ``calibration.SHARP_X_LIMIT``, outcomes 0 and 1 and actions a and b,
    each cell's count drawn from 1-9 with ``rng``: 4,140 partitions."""
    space = ProblemSpace(tuple(map(str, range(8))), ("0", "1"), ("a", "b"))
    masses = []
    for _ in range(2):
        counts = [[rng.randint(1, 9) for _ in range(2)] for _ in range(8)]
        total = sum(map(sum, counts))
        masses.append([[F(c, total) for c in row] for row in counts])
    return credal_set(space, masses, True)


def sharp_limit_text():
    """``sharp_limit_set(random.Random(8))`` as a problem file."""
    return render_problem_file(problem_file_from(sharp_limit_set(random.Random(8))))


def games_problem(rng, nx, ny, na, k):
    """A convex problem of ``k`` joints over ``nx`` signals, ``ny``
    outcomes and ``na`` actions, every cell positive, and losses in
    [-12, 12] over denominators 1-4, drawn from ``rng`` as
    ``perfbench/workloads.py`` draws its games files."""
    space = _numbered_space(nx, ny, na)
    masses = []
    for _ in range(k):
        counts, denom = _cell_counts(rng, nx * ny)
        masses.append([[F(c, denom) for c in counts[i * ny : (i + 1) * ny]] for i in range(nx)])
    return DecisionProblem(credal_set(space, masses, True), _loss(rng, space))


def random_games(count):
    """The first ``count`` of the seeded random games: game ``s`` draws
    nx, ny and na from {2, 3} and k from {2, 3, 4} with
    ``random.Random(s)``, then its problem from the same generator."""
    for s in range(count):
        rng = random.Random(s)
        nx, ny, na = (rng.choice([2, 3]) for _ in range(3))
        yield games_problem(rng, nx, ny, na, rng.choice([2, 3, 4]))


def segment_listing_problem():
    """60 generators listing a set with 2 extreme points: signal 0 has row
    (q/2, (1 - q)/2) for q = (k + 1)/62, k = 0..59, and signal 1 has row
    (1/4, 1/4), over outcomes a and b.  Actions 0-2 lose 1 on outcome b,
    and actions 3-5 lose 1 on outcome a."""
    space = ProblemSpace(("0", "1"), ("a", "b"), tuple(map(str, range(6))))
    masses = [
        [[F(k + 1, 124), F(61 - k, 124)], [F(1, 4), F(1, 4)]] for k in range(60)
    ]
    loss = loss_function(space, [[0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0]])
    return DecisionProblem(credal_set(space, masses, True), loss)


def segment_listing_text():
    """:func:`segment_listing_problem` as a problem file."""
    dp = segment_listing_problem()
    return render_problem_file(problem_file_from(dp.credal, dp.loss))


def dead_signal_problems(count):
    """The first ``count`` of the seeded dead-signal problems, each on a
    generator set and on its hull.  Problem ``s`` draws nx from {2, 3, 4},
    ny and na from {2, 3} and k from {2, 3} with ``random.Random(20_000 +
    s)``.  Each of the k generators kills each signal with probability
    0.35, keeping signal 0 if all die, and spreads its mass over the live
    cells by :func:`_cell_counts`; then the loss is drawn."""
    for s in range(count):
        rng = random.Random(20_000 + s)
        nx, ny, na = rng.choice([2, 3, 4]), rng.choice([2, 3]), rng.choice([2, 3])
        space = _numbered_space(nx, ny, na)
        masses = []
        for _ in range(rng.choice([2, 3])):
            live = [i for i in range(nx) if rng.random() >= 0.35] or [0]
            counts, denom = _cell_counts(rng, len(live) * ny)
            cells = iter(F(c, denom) for c in counts)
            masses.append([[next(cells) if i in live else F(0) for _ in range(ny)] for i in range(nx)])
        p = credal_set(space, masses, True)
        loss = _loss(rng, space)
        yield DecisionProblem(p, loss), DecisionProblem(hull(p), loss)


def product_form_problems(count):
    """The first ``count`` of the seeded product-form problems, each on the
    hull of its generators.  Problem ``s`` draws nx, ny and na from {2, 3}
    and k from {2, 3} with ``random.Random(30_000 + s)``.  Each of the k
    generators is q_X x r_Y, with q's entries from 1-6 and r's from 0-6
    (redrawn while all are 0); then the loss is drawn."""
    for s in range(count):
        rng = random.Random(30_000 + s)
        nx, ny, na = (rng.choice([2, 3]) for _ in range(3))
        space = _numbered_space(nx, ny, na)
        masses = []
        for _ in range(rng.choice([2, 3])):
            q = [rng.randint(1, 6) for _ in range(nx)]
            r = [0] * ny
            while not any(r):
                r = [rng.randint(0, 6) for _ in range(ny)]
            total = sum(q) * sum(r)
            masses.append([[F(a * b, total) for b in r] for a in q])
        p = credal_set(space, masses, True)
        yield DecisionProblem(hull(p), _loss(rng, space))


def _numbered_space(nx, ny, na):
    return ProblemSpace(*(tuple(map(str, range(n))) for n in (nx, ny, na)))


def binary_space():
    return ProblemSpace(("0", "1"), ("0", "1"), ("0", "1"))


def binary_space_three_actions():
    return ProblemSpace(("0", "1"), ("0", "1"), ("0", "1", "2"))


def fixed_outcome_set(p1=F(2, 3), convex=True):
    """All joints with Pr(Y=1) fixed; four extreme mass placements."""
    space = binary_space()
    p0 = 1 - p1
    masses = [
        [[p0, p1], [0, 0]],
        [[0, p1], [p0, 0]],
        [[p0, 0], [0, p1]],
        [[0, 0], [p0, p1]],
    ]
    return credal_set(space, masses, convex)


def prediction_problem(p1=F(2, 3)):
    space = binary_space()
    return DecisionProblem(fixed_outcome_set(p1), classification_loss(space))


def prediction_problem_with_exit():
    """The prediction problem plus a third action of constant loss -1."""
    space = binary_space_three_actions()
    p = credal_set(
        space,
        [g.mass for g in fixed_outcome_set().generators],
        convex=True,
    )
    loss = loss_function(space, [[0, 1, -1], [1, 0, -1]])
    return DecisionProblem(p, loss)


def mirror_pair_set(convex=False):
    space = binary_space()
    pr1 = [[F(1, 3), F(1, 6)], [F(1, 3), F(1, 6)]]
    pr2 = [[F(1, 6), F(1, 3)], [F(1, 6), F(1, 3)]]
    return credal_set(space, [pr1, pr2], convex)


MIRROR_PAIR_CROSS = ((F(1, 3), F(1, 6)), (F(1, 6), F(1, 3)))  # in the hull, not the set


def noise_pair_set(eps=F(1, 10), convex=False):
    space = binary_space()
    pr1 = [
        [eps * (1 - eps), (1 - eps) ** 2],
        [eps * (1 - eps), eps**2],
    ]
    pr2 = [
        [eps * (1 - eps), eps**2],
        [eps * (1 - eps), (1 - eps) ** 2],
    ]
    return credal_set(space, [pr1, pr2], convex)


def half_dead_signal_problem(convex=False):
    """Two generators; one ignores signal 1 entirely.  Rectangular but
    not conservative; classification loss over three outcomes."""
    space = ProblemSpace(("0", "1"), ("0", "1", "2"), ("0", "1", "2"))
    pr1 = [[F(1, 6), F(1, 6), F(1, 6)], [F(1, 4), F(1, 5), F(1, 20)]]
    pr2 = [[F(1, 3), F(1, 3), F(1, 3)], [0, 0, 0]]
    p = credal_set(space, [pr1, pr2], convex)
    return DecisionProblem(p, classification_loss(space))


def opposite_outcomes_problem(convex=False):
    """Signal independent of a fully ambiguous outcome; conservative,
    not rectangular, classification loss."""
    space = binary_space()
    pr0 = [[F(1, 2), 0], [F(1, 2), 0]]
    pr1 = [[0, F(1, 2)], [0, F(1, 2)]]
    p = credal_set(space, [pr0, pr1], convex)
    return DecisionProblem(p, classification_loss(space))


def monty_space():
    return ProblemSpace(("G2", "G3"), ("1", "2", "3"), ("1", "2", "3"))


def monty_set(convex=True):
    space = monty_space()
    v1 = [[F(1, 3), 0, F(1, 3)], [0, F(1, 3), 0]]
    v2 = [[0, 0, F(1, 3)], [F(1, 3), F(1, 3), 0]]
    return credal_set(space, [v1, v2], convex)


def monty_problem(switch_cost=None):
    """Door game; optionally a cost on switching, charged on a miss."""
    space = monty_space()
    if switch_cost is None:
        loss = classification_loss(space)
    else:
        eps = F(switch_cost)
        table = [
            [
                F(0) if a == y else (1 + (eps if a != "1" else 0))
                for a in space.actions
            ]
            for y in space.y_labels
        ]
        loss = loss_function(space, table)
    return DecisionProblem(monty_set(), loss)


def coin_pair_set(convex=True):
    """Uniform marginals on both coins, arbitrary dependence."""
    space = ProblemSpace(("H", "T"), ("H", "T"), ("H", "T"))
    anti = [[0, F(1, 2)], [F(1, 2), 0]]
    corr = [[F(1, 2), 0], [0, F(1, 2)]]
    return credal_set(space, [anti, corr], convex)


def quadruple_set():
    """Four generators, rectangular but deliberately not convex."""
    space = binary_space()
    masses = [
        [[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]],
        [[F(1, 8), F(3, 8)], [F(1, 8), F(3, 8)]],
        [[F(1, 4), F(1, 4)], [F(1, 8), F(3, 8)]],
        [[F(1, 8), F(3, 8)], [F(1, 4), F(1, 4)]],
    ]
    return credal_set(space, masses, convex=False)


def diagonal_set(convex=True):
    """Signal reveals the outcome: all mass on matching pairs."""
    space = binary_space()
    return credal_set(space, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], convex)


def random_set_with_dead_signals(rng, convex):
    """Random set over nx in 2-4 signals and ny in 2-3 outcomes, 2-4
    generators, with up to nx - 1 signals given zero mass by every
    generator.  Returns ``(set, dead signal labels)``."""
    nx, ny, na = rng.randint(2, 4), rng.randint(2, 3), rng.randint(2, 3)
    space = ProblemSpace(
        tuple("x%d" % i for i in range(nx)),
        tuple("y%d" % i for i in range(ny)),
        tuple("a%d" % i for i in range(na)),
    )
    dead = set(rng.sample(range(nx), rng.randint(0, nx - 1)))
    masses = []
    for _ in range(rng.randint(2, 4)):
        flat = iter(simplex_point(rng, (nx - len(dead)) * ny))
        masses.append(
            [[0] * ny if i in dead else [next(flat) for _ in range(ny)] for i in range(nx)]
        )
    return credal_set(space, masses, convex), tuple(space.x_labels[i] for i in sorted(dead))
