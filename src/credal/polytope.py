"""Finitely generated point sets and polytopes in V-representation.

A :class:`VPolytope` is a list of generator points plus a ``convex``
flag.  With ``convex=True`` the object denotes the convex hull of the
generators; with ``convex=False`` it denotes the bare finite set.  All
comparisons reduce to exact membership tests: a linear feasibility
problem in the convex case, list equality in the finite case.

There is deliberately no facet (H-) representation anywhere; subset
tests work generator-wise, which is sound because the right-hand side
of each test is itself convex or finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linprog import EQ, OPTIMAL, LinearProgram, lp_solve
from .rationals import rat_seq

__all__ = [
    "VPolytope",
    "ComparisonError",
    "member",
    "subset",
    "set_equal",
    "prune",
]

ZERO = Fraction(0)
ONE = Fraction(1)


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


def polytope(points, convex, dimension=None) -> VPolytope:
    pts = tuple(rat_seq(p) for p in points)
    if dimension is None:
        if not pts:
            raise ValueError("cannot infer dimension from no points")
        dimension = len(pts[0])
    return VPolytope(dimension=dimension, generators=pts, convex=convex)


def _in_hull(point, generators):
    """Exact test: is ``point`` a convex combination of ``generators``?

    Both are already exact, so the feasibility LP is built as it stands.
    """
    if point in generators:
        return True
    k = len(generators)
    lp = LinearProgram(
        objective=(ZERO,) * k,
        rows=tuple(zip(*generators)) + ((ONE,) * k,),
        senses=(EQ,) * (len(point) + 1),
        rhs=tuple(point) + (ONE,),
        lower_bounds=(ZERO,) * k,
    )
    return lp_solve(lp).status == OPTIMAL


def member(point, p: VPolytope) -> bool:
    """Exact membership of ``point`` in ``p``."""
    point = rat_seq(point)
    if len(point) != p.dimension:
        raise ValueError("point dimension mismatch")
    if not p.convex:
        return point in p.generators
    return _in_hull(point, p.generators)


def subset(a: VPolytope, b: VPolytope) -> bool:
    """Is ``a`` contained in ``b``?

    Decided generator-wise: ``a``'s generators span all of ``a``
    (exactly, in both the convex and the finite reading), and ``b`` is
    either convex or finite, so pointwise membership settles it.  The
    one undecidable direction is convex ``a`` against finite ``b`` with
    ``a`` not a single point.
    """
    if a.dimension != b.dimension:
        raise ValueError("dimension mismatch")
    if a.convex and not b.convex:
        gens = prune(a).generators
        if len(gens) > 1:
            raise ComparisonError(
                "cannot compare a convex set against a finite point list"
            )
        return member(gens[0], b)
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
