"""Conditioned Y-sets and dilation intervals in ``Fraction``s, kept as a
test oracle.

This is the code ``credal`` ran before a point's lowest-terms integer
pair became its identity from the joint to the pruned Y-set: each
conditioned point is built as ``Fraction``s, repeated points and joints
are dropped by hashing their ``Fraction``s, every convex set of two or
more generators asks one membership question per generator and always
builds a new set, and the dilation intervals are summed in
``Fraction``s over every generator.  The conditioned mass is summed
from each joint's ``Fraction`` masses, not from its integer form.
Tests compare the package against these: generators in order,
``convex`` and ``dimension``, and whole dilation reports.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from credal.core import CredalSet, DilationReport, DilationRow
from credal.polytope import VPolytope, _in_hull, polytope

ZERO = Fraction(0)


def dedupe(generators) -> tuple:
    """Generators without repeats, the first of each kept, in order."""
    return tuple(dict.fromkeys(generators))


def joints(generators) -> tuple:
    """Joint distributions without repeated masses, the first of each kept."""
    first = {}
    for g in generators:
        first.setdefault(g.mass, g)
    return tuple(first.values())


def prune(p: VPolytope) -> VPolytope:
    """Keep exactly the extreme points of a convex set; a finite set as it is."""
    if not p.convex or len(p.generators) == 1:
        return p
    h = p.hull
    keep = tuple(
        g
        for i, (g, pair) in enumerate(zip(p.generators, h.points))
        if not _in_hull(pair, h.without(i))
    )
    return polytope(keep, True, p.dimension)


def conditioned(p: CredalSet, cell) -> list:
    """Each generator's outcome distribution given the signal event
    ``cell``, in order; generators that give the cell no mass are skipped."""
    idx = sorted({p.space.x_index(x) for x in cell})
    if not idx:
        raise ValueError("conditioning event must be nonempty")
    pts = []
    for g in p.generators:
        mass = [sum((g.mass[i][j] for i in idx), ZERO) for j in range(p.space.ny)]
        total = sum(mass, ZERO)
        if total:
            pts.append(tuple(v / total for v in mass))
    return pts


def posterior_y(p: CredalSet, cell) -> VPolytope | None:
    """The conditioned distributions without repeats, pruned; None when no
    generator gives the cell positive probability."""
    pts = conditioned(p, cell)
    if not pts:
        return None
    return prune(polytope(dedupe(pts), p.convex, p.space.ny))


def _event_prob(q, y_idx) -> Fraction:
    return sum((q[j] for j in y_idx), ZERO)


def dilation_report(p: CredalSet) -> DilationReport:
    """Prior and per-signal posterior intervals for every proper Y-event."""
    space = p.space
    prior_sets = [g.y_marginal() for g in p.generators]
    live = [i for i in range(space.nx) if any(any(g.mass[i]) for g in p.generators)]
    posterior_sets = [
        (space.x_labels[i], posterior_y(p, (space.x_labels[i],)).generators) for i in live
    ]
    rows = []
    ys = list(range(space.ny))
    events = []
    for size in range(1, space.ny):
        events.extend(itertools.combinations(ys, size))
    for ev in events:
        pri = [_event_prob(q, ev) for q in prior_sets]
        prior = (min(pri), max(pri))
        posts = []
        dil = bool(posterior_sets)
        for x, qs in posterior_sets:
            vals = [_event_prob(q, ev) for q in qs]
            lohi = (min(vals), max(vals))
            posts.append((x, lohi))
            if not (lohi[0] < prior[0] and lohi[1] > prior[1]):
                dil = False
        rows.append(
            DilationRow(
                event=tuple(space.y_labels[j] for j in ev),
                prior=prior,
                posteriors=tuple(posts),
                dilates=dil,
            )
        )
    return DilationReport(rows=tuple(rows))
