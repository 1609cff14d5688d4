"""The hull, rectangularity and weak time consistency as ``credal`` once
computed them, kept as test oracles.

:func:`hull` is the product construction before it dropped its final
prune: it conditions and prunes each signal's conditionals with its own
code, builds every product and prunes the products once more in the
joint space, one membership LP per product.  :func:`is_rectangular`
builds every marginal-conditional product with :func:`credal.core.hull`
and tests the subset in the joint space, and :func:`_weak_verdict` walks
every posterior vertex product in lexicographic order; both ran before
the checks were decided one signal at a time.  Tests compare the
package against them: generator lists in order, verdicts and witnesses.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from credal.consistency import (
    CONSISTENT,
    INCONSISTENT,
    ConsistencyVerdict,
)
from credal.core import (
    CredalSet,
    DecisionProblem,
    DecisionRule,
    credal_set,
    hull as _hull,
    joint_polytope,
    prune_credal,
    support_x,
    uniform_action,
)
from credal.linprog import InternalCheckError, SizeLimitError
from credal.minimax import (
    solve_a_priori,
    worst_case_loss,
    worst_case_posterior_loss,
)
from credal.polytope import polytope, prune, subset

ZERO = Fraction(0)

# The most products the pruning hull built.
HULL_PRODUCT_LIMIT = 100

# The most posterior vertex products the enumerating weak check walked.
PRODUCT_LIMIT = 10**5


def _conditional_lists(p: CredalSet) -> list[list[tuple[Fraction, ...]]]:
    """Per signal, the conditionals given x of the generators that give x
    positive probability, first of each kept in order; for convex sets
    only the extreme ones."""
    lists = []
    for i in range(p.space.nx):
        conds = [g.conditional_y(i) for g in p.generators]
        conds = list(dict.fromkeys(c for c in conds if c is not None))
        if p.convex and len(conds) > 1:
            conds = list(prune(polytope(conds, True, p.space.ny)).generators)
        lists.append(conds)
    return lists


def hull(p: CredalSet) -> CredalSet:
    """Products of an X-marginal of ``p`` with per-signal conditionals of ``p``.

    Generators: every product Q (x) R, with Q an X-marginal generator
    and, for each x with Q(x) > 0, R_x a conditional-given-x generator.
    For convex sets the generating pieces are pruned first (the product
    is linear in each piece, so the hull of products is unchanged); for
    finite sets every piece is kept.  The products are counted from the
    pieces first; more than ``HULL_PRODUCT_LIMIT`` raise
    :class:`~credal.linprog.SizeLimitError` before any is built.
    """
    space = p.space
    marg = [g.x_marginal() for g in p.generators]
    if p.convex:
        marg = list(prune(polytope(marg, True, space.nx)).generators)
    else:
        marg = list(dict.fromkeys(marg))
    cond_lists = _conditional_lists(p)

    count = sum(
        math.prod(len(cond_lists[i]) for i in range(space.nx) if q[i] > 0)
        for q in marg
    )
    if count > HULL_PRODUCT_LIMIT:
        raise SizeLimitError(
            "hull products limited to %d, got %d" % (HULL_PRODUCT_LIMIT, count)
        )
    products = []
    for q in marg:
        live = [i for i in range(space.nx) if q[i] > 0]
        for choice in itertools.product(*(cond_lists[i] for i in live)):
            rows = []
            pick = dict(zip(live, choice))
            for i in range(space.nx):
                if i in pick:
                    rows.append(tuple(q[i] * v for v in pick[i]))
                else:
                    rows.append((ZERO,) * space.ny)
            products.append(tuple(rows))

    out = credal_set(space, products, p.convex)
    return prune_credal(out) if p.convex else out


def is_rectangular(p: CredalSet) -> bool:
    """Does ``p`` already contain every product it generates?

    Only the backward inclusion needs testing; ``p`` is always inside
    its own product construction.
    """
    return subset(joint_polytope(_hull(p)), joint_polytope(p))


def _posterior_product_rules(dp: DecisionProblem, post, limit=PRODUCT_LIMIT):
    """All rules assembled from one posterior-optimal action vertex per
    support signal, uniform elsewhere, in lexicographic order."""
    space = dp.space
    count = math.prod(len(pt.action_vertices) for pt in post.per_x)
    if count > limit:
        raise SizeLimitError(
            "posterior vertex products limited to %d, got %d" % (limit, count)
        )
    by_x = {pt.x: pt.action_vertices for pt in post.per_x}
    uniform = uniform_action(space)
    choices = [by_x.get(x, (uniform,)) for x in space.x_labels]
    for combo in itertools.product(*choices):
        yield DecisionRule(space=space, per_x=tuple(combo))


def _weak_verdict(dp: DecisionProblem, notes, post) -> ConsistencyVerdict:
    """Weak time consistency, given the structure notes and the posterior
    solution.  Only the LP value of the prior game is needed, so the
    optimal face is not enumerated."""
    prior = solve_a_priori(dp, face=False)
    live = support_x(dp.credal)
    for rule in _posterior_product_rules(dp, post):
        wc, _ = worst_case_loss(dp.credal, rule, dp.loss)
        if wc != prior.value:
            # replay through the primitives before accusing the problem
            if wc < prior.value:
                raise InternalCheckError("posterior product beat the prior value")
            for x in live:
                m = worst_case_posterior_loss(dp.credal, rule, dp.loss, x)
                if m != post.value(x):
                    raise InternalCheckError("witness is not posterior optimal")
            return ConsistencyVerdict(
                kind="weak-time",
                result=INCONSISTENT,
                witness=rule,
                notes=notes,
                witness_prior_loss=wc,
            )
    return ConsistencyVerdict(kind="weak-time", result=CONSISTENT, witness=None, notes=notes)
