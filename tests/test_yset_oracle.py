"""Conditioned Y-sets, their pruning and the dilation intervals, identified
by lowest-terms integer pairs, against the ``Fraction`` path they replaced."""

import itertools
import random
from fractions import Fraction

from credal.core import CredalSet, ProblemSpace, dilation_report, joint, posterior_y
from credal.corpus import load_corpus
from credal.polytope import polytope, prune
from credal.rationals import common_denominator
from credal.sampling import simplex_point

import yset_oracle

F = Fraction


def _space(nx, ny):
    return ProblemSpace(
        tuple("x%d" % i for i in range(nx)), tuple("y%d" % i for i in range(ny)), ("a0", "a1")
    )


def _rewritten(values):
    """The same values written another way: a whole number as an ``int``,
    any other value as ``Fraction(2 * p, 2 * q)``."""
    return tuple(
        int(v) if v.denominator == 1 else F(2 * v.numerator, 2 * v.denominator) for v in values
    )


def _mix(rng, a, b):
    t = F(rng.randint(1, 3), 4)
    return [[t * u + (1 - t) * v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def _random_generators(rng, seen):
    """A space, a convex flag and a random generator list over 1-4 signals
    and 2-4 outcomes.  Some signals are dead; some generators are point
    masses (whole-number masses), mixtures of two others, or put another
    generator's conditional at a signal under other weights; some repeat,
    written differently."""
    nx, ny = rng.randint(1, 4), rng.randint(2, 4)
    space = _space(nx, ny)
    convex = rng.random() < 0.6
    dead = set(rng.sample(range(nx), rng.choice((0, 0, 1)))) if nx > 1 else set()
    live = [i for i in range(nx) if i not in dead]
    masses = []
    for _ in range(rng.choice((1, 2, 2, 3, 4))):
        flat = iter(simplex_point(rng, len(live) * ny))
        masses.append([[F(0)] * ny if i in dead else [next(flat) for _ in range(ny)] for i in range(nx)])
    if rng.random() < 0.3:
        i, j = rng.choice(live), rng.randrange(ny)
        masses.append([[F(int((a, b) == (i, j))) for b in range(ny)] for a in range(nx)])
    if len(masses) > 1 and rng.random() < 0.4:
        masses.append(_mix(rng, *rng.sample(masses, 2)))
    if len(masses) > 1 and rng.random() < 0.4:
        a, b = rng.sample(masses, 2)
        i = rng.choice(live)
        if sum(a[i]) and sum(b[i]):
            b[i] = [sum(b[i]) / sum(a[i]) * v for v in a[i]]
    gens = [joint(space, m) for m in masses]
    if rng.random() < 0.4:
        g = rng.choice(gens)
        again = joint(space, [_rewritten(row) for row in g.mass])
        gens.insert(rng.randint(0, len(gens)), again)
        seen["rewritten joint"] += 1
    seen["dead"] += bool(dead)
    seen["ny=%d" % ny] += 1
    seen["finite" if not convex else "convex"] += 1
    return space, tuple(gens), convex


def _cells(space):
    labels = space.x_labels
    for size in range(1, len(labels) + 1):
        yield from itertools.combinations(labels, size)


def _seen(*keys):
    return dict.fromkeys(keys, 0)


def test_posterior_sets_match_the_fraction_path():
    rng = random.Random(2901)
    seen = _seen(
        "rewritten joint", "dead", "ny=2", "ny=3", "ny=4", "finite", "convex",
        "undefined", "repeated point", "two generators", "pruned", "kept",
    )
    for _ in range(300):
        space, gens, convex = _random_generators(rng, seen)
        p = CredalSet(space, gens, convex)
        want = yset_oracle.joints(gens)
        assert p.generators == want
        assert all(a is b for a, b in zip(p.generators, want))
        for cell in _cells(space):
            # afresh: a new set has a table of its own
            fresh = CredalSet(p.space, p.generators, p.convex)
            got, expected = posterior_y(fresh, cell), yset_oracle.posterior_y(p, cell)
            assert got == expected, (gens, convex, cell)
            if got is None:
                seen["undefined"] += 1
                continue
            assert got.convex == expected.convex and got.dimension == expected.dimension
            pts = yset_oracle.conditioned(p, cell)
            distinct = len(yset_oracle.dedupe(pts))
            seen["repeated point"] += len(pts) > distinct
            seen["two generators"] += convex and len(got.generators) == 2
            seen["pruned" if len(got.generators) < distinct else "kept"] += 1
    assert all(n >= 20 for n in seen.values()), seen


def test_dilation_reports_match_the_fraction_path():
    rng = random.Random(2902)
    seen = _seen("rewritten joint", "dead", "ny=2", "ny=3", "ny=4", "finite", "convex", "dilates")
    sets = [CredalSet(*_random_generators(rng, seen)) for _ in range(200)]
    for p in sets + [case.credal() for case in load_corpus()]:
        got = dilation_report(p)
        assert got == yset_oracle.dilation_report(p), p
        seen["dilates"] += bool(got.dilating_events())
    assert all(n >= 5 for n in seen.values()), seen


def test_polytopes_drop_repeats_and_prune_like_the_fraction_path():
    """Repeated generators, some written differently (``Fraction(2, 4)``
    against ``Fraction(1, 2)``, ``1`` against ``Fraction(1)``), keep their
    first occurrence; pruning keeps the same generators in order."""
    rng = random.Random(2903)
    seen = _seen("rewritten", "two generators", "pruned", "kept")
    for _ in range(400):
        dim = rng.randint(2, 4)
        pts = [simplex_point(rng, dim) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            pts.append(rng.choice([_rewritten(q) for q in pts]))
            seen["rewritten"] += 1
        if len(pts) > 1 and rng.random() < 0.3:
            t = F(rng.randint(1, 3), 4)
            a, b = rng.sample(pts, 2)
            pts.append(tuple(t * u + (1 - t) * v for u, v in zip(a, b)))
        rng.shuffle(pts)
        convex = rng.random() < 0.7
        v = polytope(pts, convex, dim)
        want = yset_oracle.dedupe(pts)
        assert v.generators == want
        assert v.points == tuple(map(common_denominator, want))
        got, expected = prune(v), yset_oracle.prune(v)
        assert got == expected
        seen["two generators"] += convex and len(v.generators) == 2
        seen["pruned" if len(got.generators) < len(v.generators) else "kept"] += 1
    assert all(n >= 20 for n in seen.values()), seen
