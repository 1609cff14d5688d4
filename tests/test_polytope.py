"""V-representation polytopes: membership, containment, pruning."""

import dataclasses
import random
from fractions import Fraction

import pytest

import credal.polytope
from credal.polytope import ComparisonError, VPolytope, member, polytope, prune, set_equal, subset

F = Fraction


def simplex2(convex=True):
    return polytope([(1, 0), (0, 1)], convex)


def test_member_convex_interior():
    p = simplex2()
    assert member((F(1, 2), F(1, 2)), p)
    assert member((F(1, 3), F(2, 3)), p)
    assert not member((F(2, 3), F(2, 3)), p)
    assert not member((1, 1), p)


def test_member_finite_is_list_membership():
    p = simplex2(convex=False)
    assert member((1, 0), p)
    assert not member((F(1, 2), F(1, 2)), p)


def test_subset_convex_convex():
    small = polytope([(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))], True)
    assert subset(small, simplex2())
    assert not subset(simplex2(), small)


def test_subset_finite_in_convex():
    pts = polytope([(F(1, 2), F(1, 2)), (1, 0)], False)
    assert subset(pts, simplex2())


def test_subset_convex_in_finite_needs_singleton():
    single = polytope([(1, 0), (1, 0)], True)
    finite = polytope([(1, 0), (0, 1)], False)
    assert subset(single, finite)
    with pytest.raises(ComparisonError):
        subset(simplex2(), finite)


def test_set_equal_ignores_generator_presentation():
    a = polytope([(1, 0), (0, 1), (F(1, 2), F(1, 2))], True)
    b = simplex2()
    assert set_equal(a, b)


def test_prune_removes_virtual_generators():
    a = polytope([(1, 0), (0, 1), (F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))], True)
    pr = prune(a)
    assert set(pr.generators) == {(1, 0), (0, 1)}
    assert prune(pr) == pr


def test_prune_keeps_two_generators_without_a_question(monkeypatch):
    def ask(*args):
        raise AssertionError("membership asked")

    monkeypatch.setattr(credal.polytope, "_in_hull", ask)
    a = polytope([(F(1, 3), F(2, 3), 0), (0, F(1, 2), F(1, 2)), (F(2, 6), F(4, 6), F(0))], True)
    pr = prune(a)
    assert pr is a and pr.generators == ((F(1, 3), F(2, 3), 0), (0, F(1, 2), F(1, 2)))


def test_prune_returns_its_input_when_nothing_is_dropped():
    vertices = polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0)], True)
    assert prune(vertices) is vertices
    finite = polytope([(1, 0), (F(1, 2), F(1, 2)), (0, 1)], False)
    assert prune(finite) is finite
    inner = polytope([(1, 0, 0), (0, 1, 0), (F(1, 3), F(1, 3), F(1, 3)), (0, 0, 1)], True)
    pr = prune(inner)
    assert pr is not inner and pr.generators == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert prune(pr) is pr


def test_prune_finite_dedups_only():
    a = polytope([(1, 0), (1, 0), (F(1, 2), F(1, 2)), (0, 1)], False)
    pr = prune(a)
    assert pr.generators == ((1, 0), (F(1, 2), F(1, 2)), (0, 1))


def test_subset_is_a_partial_order_on_random_polytopes():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.randint(2, 4)

        def pt():
            total = rng.randint(1, 12)
            parts = [0] * dim
            for _ in range(total):
                parts[rng.randrange(dim)] += 1
            return tuple(F(c, total) for c in parts)

        a = polytope([pt() for _ in range(rng.randint(1, 4))], True)
        b = polytope([pt() for _ in range(rng.randint(1, 4))], True)
        c = polytope([pt() for _ in range(rng.randint(1, 4))], True)
        assert subset(a, a)
        if subset(a, b) and subset(b, c):
            assert subset(a, c)
        if subset(a, b) and subset(b, a):
            assert set_equal(a, b)
        # pruning never changes the denoted set
        assert set_equal(prune(a), a)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        subset(simplex2(), polytope([(1, 0, 0)], True))
    with pytest.raises(ValueError):
        member((1, 0, 0), simplex2())


def test_a_polytope_stores_its_points_and_builds_fractions_when_read():
    p = VPolytope(2, (((1, 1), 2), ((1, 0), 1), ((1, 1), 2)), True)
    assert p.points == (((1, 1), 2), ((1, 0), 1))
    assert "generators" not in vars(p)
    assert p.generators == ((F(1, 2), F(1, 2)), (F(1), F(0)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.generators = ()


@pytest.mark.parametrize(
    "points, why",
    (
        ((), "at least one point"),
        ((((1, 0), 1), ((1,), 1)), "length"),
        ((((1, 1), 0),), "lowest terms"),
        ((((-1, -1), -2),), "lowest terms"),
        ((((2, 2), 4),), "lowest terms"),
        ((((0, 0), 3),), "lowest terms"),
    ),
)
def test_a_polytope_refuses_points_that_are_not_lowest_terms_pairs(points, why):
    with pytest.raises(ValueError, match=why):
        VPolytope(2, points, True)


def test_polytope_reads_rationals_and_keeps_the_first_of_equal_points():
    p = polytope([(F(1, 2), "1/2"), (1, 0), ("2/4", F(2, 4)), (F(1), "0/5")], True)
    assert p.points == (((1, 1), 2), ((1, 0), 1))
    assert p.generators == ((F(1, 2), F(1, 2)), (1, 0))
    with pytest.raises(TypeError, match="float"):
        polytope([(0.5, 0.5)], True)
