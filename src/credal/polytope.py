"""Finitely generated point sets and polytopes in V-representation.

A :class:`VPolytope` is a list of points plus a ``convex`` flag: with
``convex=True`` it denotes their convex hull, with ``convex=False`` the
bare finite set.  It stores each point once, as its lowest-terms
integer pair (:func:`~credal.rationals.common_denominator`), and builds
no ``Fraction`` until its generators are read; :func:`polytope` is the
one entry that takes rationals.  All comparisons reduce to exact
membership tests: identity with a point in the finite case, and in the
convex case three exact arguments before any LP.  A generator is a
member.  A convex combination stays inside its generators' coordinate
box, so a point outside it is not.  When the point and every generator
lie on one line, the hull is the segment between the extreme
generators, so a point inside the box is a member; every set of two
generators and every set of 2-outcome distributions is of this kind.
:attr:`VPolytope.hull` keeps the points over one common denominator,
with their box and their line, so these three tests cross-multiply
integers.  Only the remaining questions solve a feasibility LP, its
rows cross-multiplied from the hull's integers and the point's pair.
:func:`subset` tests the boxes once, not each point.  Pruning keeps two
distinct generators without a question, as both are extreme, and
returns its input when it drops nothing.

There is deliberately no facet (H-) representation anywhere; subset
tests work generator-wise, which is sound because the right-hand side
of each test is itself convex or finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linprog import EQ, OPTIMAL, LinearProgram, lp_solve
from .rationals import common_denominator, lowest, rat_seq

__all__ = [
    "VPolytope",
    "ComparisonError",
    "member",
    "subset",
    "set_equal",
    "prune",
]


class ComparisonError(Exception):
    """Subset query whose answer V-representations cannot decide."""


@dataclass(frozen=True)
class VPolytope:
    """The points, or their hull when ``convex``: each point its lowest-terms
    ``(nums, den)`` pair, ``den > 0``; the first of repeats kept, in order."""

    dimension: int
    points: tuple[tuple[tuple[int, ...], int], ...]
    convex: bool

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension out of range: %d" % self.dimension)
        if not self.points:
            raise ValueError("a polytope needs at least one point")
        for nums, den in self.points:
            if len(nums) != self.dimension:
                raise ValueError("point length != dimension")
            if den < 1 or math.gcd(den, *nums) != 1:
                raise ValueError("point not in lowest terms over a positive denominator")
        object.__setattr__(self, "points", tuple(dict.fromkeys(self.points)))

    @cached_property
    def generators(self) -> tuple[tuple[Fraction, ...], ...]:
        """The points as ``Fraction`` tuples, in order, built on first read."""
        return tuple(tuple([Fraction(v, den) for v in nums]) for nums, den in self.points)

    @cached_property
    def hull(self) -> _Hull:
        """The points in integers, with their box and their line."""
        points = self.points
        den = math.lcm(*[d for _, d in points])
        nums = tuple(tuple([v * (den // d) for v in n]) for n, d in points)
        return _Hull(points, nums, den)


class _Hull:
    """A polytope's ``points`` in integers: their set ``keys``, each over the
    one denominator ``den`` (``nums``), their coordinate box ``lo``, ``hi``
    and, read on first use, their :attr:`line`."""

    __slots__ = ("points", "keys", "nums", "den", "lo", "hi", "__dict__")

    def __init__(self, points, nums, den):
        self.points, self.nums, self.den = points, nums, den
        self.keys = frozenset(points)
        cols = tuple(zip(*nums))
        self.lo, self.hi = tuple(map(min, cols)), tuple(map(max, cols))

    @cached_property
    def line(self):
        """When all the points lie on one line: the first point, the step to
        the second and a coordinate ``k`` where that step is not zero."""
        if len(self.nums) < 2:
            return None
        origin, second, *rest = self.nums
        step = [v - o for v, o in zip(second, origin)]
        k = next(i for i, v in enumerate(step) if v)
        offsets = ([v - o for v, o in zip(q, origin)] for q in rest)
        if all(u[i] * step[k] == u[k] * s for u in offsets for i, s in enumerate(step)):
            return origin, step, k
        return None

    def without(self, i: int) -> _Hull:
        """The same generators but the ``i``-th, over the same denominator."""
        pts, nums = self.points, self.nums
        return _Hull(pts[:i] + pts[i + 1 :], nums[:i] + nums[i + 1 :], self.den)

    def in_box(self, nums, den) -> bool:
        """Does the point ``nums / den`` lie in the box?"""
        return all(lo * den <= v * self.den <= hi * den for v, lo, hi in zip(nums, self.lo, self.hi))

    def on_line(self, nums, den) -> bool:
        """Does the point ``nums / den`` lie on the generators' line?"""
        if self.line is None:
            return False
        origin, step, k = self.line
        # the point minus the origin, scaled by den * self.den
        u = [v * self.den - o * den for v, o in zip(nums, origin)]
        return all(u[i] * step[k] == u[k] * s for i, s in enumerate(step))


def polytope(points, convex, dimension=None) -> VPolytope:
    pts = tuple(common_denominator(rat_seq(p)) for p in points)
    if dimension is None:
        if not pts:
            raise ValueError("cannot infer dimension from no points")
        dimension = len(pts[0][0])
    return VPolytope(dimension=dimension, points=pts, convex=convex)


def _in_hull(pair, hull: _Hull) -> bool:
    """Is the point ``pair``, its lowest-terms ``(nums, den)``, a generator
    of ``hull``, or a convex combination of them inside their box?"""
    return pair in hull.keys or (hull.in_box(*pair) and _in_box_hull(pair, hull))


def _in_box_hull(pair, hull: _Hull) -> bool:
    """:func:`_in_hull` for a point in the box, not a generator: a point on
    their line is (the segment's ends are the box's corners); else an LP
    decides, its rows cross-multiplied from ``hull`` and ``pair``."""
    if hull.on_line(*pair):
        return True
    (nums, den), k = pair, len(hull.nums)
    lp = LinearProgram(
        objective=((0,) * k, 1),
        rows=tuple(
            lowest([c * den for c in col] + [v * hull.den], den * hull.den)
            for col, v in zip(zip(*hull.nums), nums)
        )
        + (((1,) * (k + 1), 1),),
        senses=(EQ,) * (len(nums) + 1),
        lower_bounds=(0,) * k,
    )
    return lp_solve(lp).status == OPTIMAL


def _member(pair, p: VPolytope) -> bool:
    """Is the point ``pair``, its lowest-terms ``(nums, den)``, in ``p``?"""
    if not p.convex:
        return pair in p.hull.keys
    return _in_hull(pair, p.hull)


def member(point, p: VPolytope) -> bool:
    """Exact membership of ``point`` in ``p``."""
    point = rat_seq(point)
    if len(point) != p.dimension:
        raise ValueError("point dimension mismatch")
    return _member(common_denominator(point), p)


def subset(a: VPolytope, b: VPolytope) -> bool:
    """Is ``a`` contained in ``b``?

    Decided generator-wise: ``a``'s generators span all of ``a``
    (exactly, in both the convex and the finite reading), and ``b`` is
    either convex or finite, so pointwise membership settles it.  The
    one undecidable direction is convex ``a`` against finite ``b`` with
    ``a`` not a single point, that is with two or more generators, as
    they are distinct.  Against a finite ``b`` membership is identity.
    Against a convex ``b``, when ``a``'s box does not lie inside ``b``'s,
    some generator of ``a`` lies outside ``b``; else none is box-tested.
    """
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    ha, hb = a.hull, b.hull
    if not b.convex:
        if a.convex and len(a.points) > 1:
            raise ComparisonError(
                "cannot compare a convex set against a finite point list"
            )
        return ha.keys <= hb.keys
    if not (hb.in_box(ha.lo, ha.den) and hb.in_box(ha.hi, ha.den)):
        return False
    return all(pair in hb.keys or _in_box_hull(pair, hb) for pair in ha.points)


def set_equal(a: VPolytope, b: VPolytope) -> bool:
    return subset(a, b) and subset(b, a)


def prune(p: VPolytope) -> VPolytope:
    """Minimal generator list describing the same set.

    Convex: keep exactly the extreme points (a generator is redundant
    iff it lies in the hull of all the others, redundant ones
    included).  Two distinct generators are both extreme, so they are
    kept without a question.  Finite: duplicates are already gone.
    ``p`` itself is returned when nothing is dropped, so this is
    idempotent.
    """
    if not p.convex or len(p.points) <= 2:
        return p
    h = p.hull
    keep = tuple(pair for i, pair in enumerate(h.points) if not _in_hull(pair, h.without(i)))
    if len(keep) == len(p.points):
        return p
    return VPolytope(dimension=p.dimension, points=keep, convex=True)
