"""Finitely generated point sets and polytopes in V-representation.

A :class:`VPolytope` is a list of generator points plus a ``convex``
flag.  With ``convex=True`` the object denotes the convex hull of the
generators; with ``convex=False`` it denotes the bare finite set.  All
comparisons reduce to exact membership tests: list equality in the
finite case, and in the convex case two exact arguments before any LP.
A convex combination stays inside its generators' coordinate box (kept
on each polytope as :attr:`VPolytope.box`), so a point outside it is
not a member.  When the point and every generator lie on one line, the
hull is the segment between the extreme generators, so a point inside
the box is a member; every set of two generators and every set of
2-outcome distributions is of this kind.  Only the remaining questions
solve a linear feasibility problem.

There is deliberately no facet (H-) representation anywhere; subset
tests work generator-wise, which is sound because the right-hand side
of each test is itself convex or finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linprog import EQ, OPTIMAL, LinearProgram, lp_solve
from .rationals import common_denominator, rat_seq

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
    dimension: int
    generators: tuple[tuple[Fraction, ...], ...]
    convex: bool

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension out of range: %d" % self.dimension)
        if not self.generators:
            raise ValueError("a polytope needs at least one generator")
        for g in self.generators:
            if len(g) != self.dimension:
                raise ValueError("generator length != dimension")
        # drop repeated generators, keeping the first of each in order
        object.__setattr__(self, "generators", tuple(dict.fromkeys(self.generators)))

    @cached_property
    def box(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Coordinate-wise minimum and maximum over the generators."""
        return _box(self.generators)

    @cached_property
    def generator_set(self) -> frozenset[tuple[Fraction, ...]]:
        """The generators, unordered."""
        return frozenset(self.generators)


def polytope(points, convex, dimension=None) -> VPolytope:
    pts = tuple(rat_seq(p) for p in points)
    if dimension is None:
        if not pts:
            raise ValueError("cannot infer dimension from no points")
        dimension = len(pts[0])
    return VPolytope(dimension=dimension, generators=pts, convex=convex)


def _box(generators):
    cols = tuple(zip(*generators))
    return tuple(map(min, cols)), tuple(map(max, cols))


def _in_box(point, box) -> bool:
    return all(lo <= v <= hi for v, lo, hi in zip(point, *box))


def _on_one_line(point, generators) -> bool:
    """Do ``point`` and all ``generators`` (two or more, distinct) lie
    on one line?"""
    origin = generators[0]
    d = [v - o for v, o in zip(generators[1], origin)]
    k = next(i for i, v in enumerate(d) if v)
    for q in (point, *generators[2:]):
        u = [v - o for v, o in zip(q, origin)]
        if any(u[i] * d[k] != u[k] * d[i] for i in range(len(d))):
            return False
    return True


def _in_hull(point, generators, box=None):
    """Exact test: is ``point`` a convex combination of ``generators``?

    Outside the generators' box it is not; on their common line and
    inside the box it is (the segment's ends are the box's corners, as
    each coordinate is monotone along the line).  Otherwise the
    feasibility LP decides, each of its rows scaled to integers once.
    """
    if point in generators:
        return True
    if not _in_box(point, box or _box(generators)):
        return False
    if _on_one_line(point, generators):
        return True
    k = len(generators)
    lp = LinearProgram(
        objective=((0,) * k, 1),
        rows=tuple(common_denominator((*col, v)) for col, v in zip(zip(*generators), point))
        + (((1,) * (k + 1), 1),),
        senses=(EQ,) * (len(point) + 1),
        lower_bounds=(0,) * k,
    )
    return lp_solve(lp).status == OPTIMAL


def member(point, p: VPolytope) -> bool:
    """Exact membership of ``point`` in ``p``."""
    point = rat_seq(point)
    if len(point) != p.dimension:
        raise ValueError("point dimension mismatch")
    if not p.convex:
        return point in p.generators
    return _in_hull(point, p.generators, p.box)


def subset(a: VPolytope, b: VPolytope) -> bool:
    """Is ``a`` contained in ``b``?

    Decided generator-wise: ``a``'s generators span all of ``a``
    (exactly, in both the convex and the finite reading), and ``b`` is
    either convex or finite, so pointwise membership settles it.  The
    one undecidable direction is convex ``a`` against finite ``b`` with
    ``a`` not a single point, that is with two or more generators, as
    they are distinct.  Otherwise, when ``a``'s box does not lie inside
    ``b``'s, some generator of ``a`` lies outside ``b``.
    """
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    if a.convex and not b.convex:
        if len(a.generators) > 1:
            raise ComparisonError(
                "cannot compare a convex set against a finite point list"
            )
        return member(a.generators[0], b)
    if not (_in_box(a.box[0], b.box) and _in_box(a.box[1], b.box)):
        return False
    return all(member(g, b) for g in a.generators)


def set_equal(a: VPolytope, b: VPolytope) -> bool:
    return subset(a, b) and subset(b, a)


def prune(p: VPolytope) -> VPolytope:
    """Minimal generator list describing the same set.

    Convex: keep exactly the extreme points (a generator is redundant
    iff it lies in the hull of all the others, redundant ones
    included).  Finite: duplicates are already gone.  Idempotent.
    """
    if not p.convex or len(p.generators) == 1:
        return p
    keep = []
    gens = p.generators
    for i, g in enumerate(gens):
        others = gens[:i] + gens[i + 1 :]
        if not _in_hull(g, others):
            keep.append(g)
    return VPolytope(dimension=p.dimension, generators=tuple(keep), convex=True)
