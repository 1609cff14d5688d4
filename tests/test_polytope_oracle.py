"""Membership, containment and pruning with the box and segment shortcuts,
against the LP-only paths they replaced."""

import random
from fractions import Fraction

import pytest

import credal.polytope
from credal.core import ProblemSpace, credal_set, hull, is_rectangular, joint_polytope
from credal.polytope import ComparisonError, member, polytope, prune, set_equal, subset

import polytope_oracle

F = Fraction


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ComparisonError as e:
        return "ComparisonError", str(e)


def _simplex_point(rng, dim):
    total = rng.randint(dim, 4 * dim)
    parts = [0] * dim
    for _ in range(total):
        parts[rng.randrange(dim)] += 1
    return tuple(F(c, total) for c in parts)


def _mix(rng, gens):
    weights = _simplex_point(rng, len(gens))
    return tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(len(gens[0])))


def _probes(rng, p):
    """Points of every kind the shortcuts tell apart: generators, mixtures,
    points on the box's boundary, points on the generators' line beyond
    the segment, points inside the box but off the line, and points far
    outside."""
    gens = p.generators
    lo, hi = tuple(map(min, zip(*gens))), tuple(map(max, zip(*gens)))
    dim = p.dimension
    probes = [gens[0], lo, hi, _mix(rng, gens), _simplex_point(rng, dim)]
    for _ in range(2):
        point = list(_mix(rng, gens))
        k = rng.randrange(dim)
        point[k] = rng.choice((lo[k], hi[k]))
        probes.append(tuple(point))
    if len(gens) > 1:
        g, h = gens[0], gens[1]
        for t in (F(-1, 2), F(3, 2), F(2), F(1, 3)):
            probes.append(tuple(a + t * (b - a) for a, b in zip(g, h)))
        mid = [(a + b) / 2 for a, b in zip(g, h)]
        i, j = rng.sample(range(dim), 2)
        eps = min(hi[i] - mid[i], mid[j] - lo[j]) / 2
        if eps:
            mid[i] += eps
            mid[j] -= eps
            probes.append(tuple(mid))
    probes.append(tuple(v + 1 for v in gens[0]))
    return probes


def _sets(rng):
    """Convex and finite sets of the shapes the package asks about."""
    sets = []
    for _ in range(12):
        # 2-outcome posteriors: every set lies on the line y0 + y1 = 1
        sets.append([_simplex_point(rng, 2) for _ in range(rng.randint(1, 4))])
        # 2-generator joint segments over 2-4 signals and 2-3 outcomes
        dim = rng.randint(2, 4) * rng.randint(2, 3)
        sets.append([_simplex_point(rng, dim) for _ in range(2)])
        # sets over three or four outcomes
        dim = rng.randint(3, 4)
        sets.append([_simplex_point(rng, dim) for _ in range(rng.randint(3, 5))])
        # a single point, and one point repeated
        point = _simplex_point(rng, rng.randint(2, 4))
        sets.append([point])
        sets.append([point] * 3)
        # points on one line: collinear generators beyond two
        g, h = _simplex_point(rng, 3), _simplex_point(rng, 3)
        sets.append([tuple(a + t * (b - a) for a, b in zip(g, h)) for t in (0, F(1, 3), 1)])
    return [polytope(gens, convex) for gens in sets for convex in (True, False)]


@pytest.fixture
def lp_count(monkeypatch):
    count = [0]
    solve = credal.polytope.lp_solve

    def counted(lp):
        count[0] += 1
        return solve(lp)

    monkeypatch.setattr(credal.polytope, "lp_solve", counted)
    return count


def test_membership_matches_the_lp_oracle(lp_count):
    rng = random.Random(1201)
    seen = {True: 0, False: 0}
    for p in _sets(rng):
        for point in _probes(rng, p):
            got = member(point, p)
            assert got == polytope_oracle.member(point, p), (point, p)
            seen[got] += 1
    assert min(seen.values()) >= 100, seen
    # and the questions the shortcuts leave open were asked of an LP
    assert lp_count[0] >= 50, lp_count[0]


def test_subset_and_prune_match_the_lp_oracle():
    rng = random.Random(1202)
    sets = _sets(rng)
    for a in sets:
        assert prune(a) == polytope_oracle.prune(a)
        for b in rng.sample(sets, 12) + [a]:
            if a.dimension != b.dimension:
                continue
            assert _outcome(subset, a, b) == _outcome(polytope_oracle.subset, a, b), (a, b)
            assert _outcome(set_equal, a, b) == _outcome(polytope_oracle.set_equal, a, b)


def test_segments_and_boxes_need_no_lp(lp_count):
    # on the generators' line, or outside their box, no LP is solved
    rng = random.Random(1203)
    for _ in range(30):
        posterior = polytope([_simplex_point(rng, 2) for _ in range(4)], True)
        segment = polytope([_simplex_point(rng, 6) for _ in range(2)], True)
        member(_simplex_point(rng, 2), posterior)
        for p in (posterior, segment):
            g, h = p.generators[0], p.generators[-1]
            for t in (F(-1, 2), F(0), F(1, 3), F(1), F(3, 2)):
                member(tuple(a + t * (b - a) for a, b in zip(g, h)), p)
            member(tuple(v + 1 for v in g), p)
            prune(p)
    outside = polytope([(F(1, 2), F(1, 4), F(1, 4)), (0, 1, 0), (0, 0, 1)], True)
    assert not member((1, 0, 0), outside)
    assert lp_count[0] == 0


def test_convex_against_finite_subset_needs_no_lp(lp_count):
    # the centre lies inside the other generators' box and off their
    # lines, so pruning this set would take an LP; distinct generators
    # are never a single point, so none is asked
    quarter, half, third = F(1, 4), F(1, 2), F(1, 3)
    gens = [(half, quarter, quarter), (quarter, half, quarter), (quarter, quarter, half)]
    a = polytope(gens + [(third, third, third)], True)
    b = polytope(gens, False)
    points = [polytope([g], True) for g in (gens[0], (third, third, third))]
    got = [_outcome(subset, x, b) for x in [a] + points]
    assert lp_count[0] == 0
    assert got[0] == ("ComparisonError", "cannot compare a convex set against a finite point list")
    assert got[1:] == [True, False]
    assert got == [_outcome(polytope_oracle.subset, x, b) for x in [a] + points]


def test_generators_are_members_without_an_lp(lp_count):
    # each generator lies inside the box and off any common line, so only
    # the identity test keeps it from an LP; a midpoint shows that one
    # is asked otherwise
    rng = random.Random(1204)
    space = ProblemSpace(("0", "1", "2"), ("0", "1", "2"), ("a", "b"))
    for _ in range(10):
        flats = [_simplex_point(rng, 9) for _ in range(3)]
        h = hull(credal_set(space, [[f[i : i + 3] for i in (0, 3, 6)] for f in flats], True))
        h.conditionals  # conditioned, and pruned, before the count starts
        joint = joint_polytope(h)
        lp_count[0] = 0
        assert is_rectangular(h)
        assert all(member(g, joint) for g in joint.generators)
        assert lp_count[0] == 0
    g, k = joint.generators[:2]
    assert member(tuple((a + b) / 2 for a, b in zip(g, k)), joint)
    assert lp_count[0] == 1


def _rational(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 6))


def _line_sets(rng):
    """Sets in 1-4 coordinates, as point lists: segments listing interior,
    exterior and repeated points, single points, and sets off any line."""
    sets = []
    for _ in range(80):
        dim = rng.randint(1, 4)
        g = tuple(_rational(rng) for _ in range(dim))
        h = tuple(v + _rational(rng) for v in g)
        # points along g -> h, inside the segment, beyond either end, repeated
        ts = [F(rng.randint(-6, 12), 6) for _ in range(rng.randint(3, 6))]
        ts += rng.sample(ts, 2)
        sets.append([tuple(a + t * (b - a) for a, b in zip(g, h)) for t in ts])
        sets.append([g])
        sets.append([g] * 3)
        if dim > 1:
            sets.append([tuple(_rational(rng) for _ in range(dim)) for _ in range(rng.randint(3, 6))])
    return sets


def _line_probes(p):
    """Probes of a set in one coordinate: its points, their midpoint and a
    point beyond each end."""
    lo, hi = min(p.generators), max(p.generators)
    return p.generators + (((lo[0] + hi[0]) / 2,), (lo[0] - 1,), (hi[0] + F(1, 7),))


def test_collinear_prune_and_loop_tests_match_the_lp_oracle(monkeypatch):
    rng = random.Random(1205)
    sets = [polytope(gens, convex) for gens in _line_sets(rng) for convex in (True, False)]
    in_hull = credal.polytope._in_hull
    asked = []

    def counted(pair, hull):
        asked.append(pair)
        return in_hull(pair, hull)

    monkeypatch.setattr(credal.polytope, "_in_hull", counted)
    seen = dict.fromkeys(("collinear", "single", "other", "member", "subset", "inside", "raised"), 0)
    for a in sets:
        line = len(a.points) > 1 and a.hull.line is not None
        asked.clear()
        assert prune(a) == polytope_oracle.prune(a), a
        if a.convex:
            # the ends of a line are found without a membership question
            kind = "collinear" if line else "single" if len(a.points) == 1 else "other"
            assert len(asked) == (len(a.points) if kind == "other" else 0), a
            seen[kind] += 1
        for point in _probes(rng, a) if a.dimension > 1 else _line_probes(a):
            assert member(point, a) == polytope_oracle.member(point, a), (point, a)
            seen["member"] += 1
        for b in [x for x in rng.sample(sets, 40) if x.dimension == a.dimension] + [a, prune(a)]:
            got = _outcome(subset, a, b)
            assert got == _outcome(polytope_oracle.subset, a, b), (a, b)
            seen["subset"] += 1
            seen["inside"] += got is True
            seen["raised"] += isinstance(got, tuple)
    # a convex set against a finite one is refused before the boxes are
    # compared, even where the boxes alone would answer no
    a = polytope([(0, 0), (1, 1)], True)
    b = polytope([(5, 5), (6, 6)], False)
    assert _outcome(subset, a, b) == _outcome(polytope_oracle.subset, a, b)
    assert _outcome(subset, a, b)[0] == "ComparisonError"
    assert len(sets) >= 300 and min(seen.values()) >= 50, seen
