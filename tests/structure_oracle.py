"""Rectangularity and weak time consistency by enumeration, kept as test oracles.

These are the checks ``credal`` ran before both were decided one signal
at a time: :func:`is_rectangular` builds every marginal-conditional
product with :func:`credal.core.hull` and tests the subset in the joint
space, and :func:`_weak_verdict` walks every posterior vertex product
in lexicographic order.  Tests compare the package's checks against
them, verdict and witness.
"""

from __future__ import annotations

import itertools
import math

from credal.consistency import (
    CONSISTENT,
    INCONSISTENT,
    ConsistencyVerdict,
    WitnessError,
)
from credal.core import (
    CredalSet,
    DecisionProblem,
    DecisionRule,
    hull,
    joint_polytope,
    support_x,
    uniform_action,
)
from credal.linprog import SizeLimitError
from credal.minimax import (
    solve_a_priori,
    worst_case_loss,
    worst_case_posterior_loss,
)
from credal.polytope import subset

# The most posterior vertex products the enumerating weak check walked.
PRODUCT_LIMIT = 10**5


def is_rectangular(p: CredalSet) -> bool:
    """Does ``p`` already contain every product it generates?

    Only the backward inclusion needs testing; ``p`` is always inside
    its own product construction.
    """
    return subset(joint_polytope(hull(p)), joint_polytope(p))


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
                raise WitnessError("posterior product beat the prior value")
            for x in live:
                m = worst_case_posterior_loss(dp.credal, rule, dp.loss, x)
                if m != post.value(x):
                    raise WitnessError("witness is not posterior optimal")
            return ConsistencyVerdict(
                kind="weak-time", result=INCONSISTENT, witness=rule, notes=notes
            )
    return ConsistencyVerdict(kind="weak-time", result=CONSISTENT, witness=None, notes=notes)
