"""Membership, containment and pruning by LP alone, kept as a test oracle.

This is the code ``credal.polytope`` ran before membership was settled
by the generators' coordinate box and by segments wherever those decide
it: every convex membership question is one feasibility LP.  Tests
compare the package's answers against these.
"""

from __future__ import annotations

from fractions import Fraction

from credal.linprog import EQ, OPTIMAL, lp_solve
from credal.polytope import ComparisonError, VPolytope, polytope
from credal.rationals import rat_seq

from face_oracle import make_lp

ZERO = Fraction(0)
ONE = Fraction(1)


def _in_hull(point, generators):
    """Exact test: is ``point`` a convex combination of ``generators``?"""
    if point in generators:
        return True
    k = len(generators)
    lp = make_lp(
        (ZERO,) * k,
        tuple(zip(*generators)) + ((ONE,) * k,),
        (EQ,) * (len(point) + 1),
        tuple(point) + (ONE,),
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
    """Is ``a`` contained in ``b``?  Decided generator-wise."""
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
    """Keep exactly the extreme points of a convex set; a finite set as it is."""
    if not p.convex or len(p.generators) == 1:
        return p
    keep = []
    gens = p.generators
    for i, g in enumerate(gens):
        others = gens[:i] + gens[i + 1 :]
        if not _in_hull(g, others):
            keep.append(g)
    return polytope(keep, True, p.dimension)
