"""Time, weak time, and dynamic consistency of a decision problem.

Notation used throughout: V0 is the prior-game value, MM(x) the
posterior-game value at x, m_delta(x) the worst posterior expected loss
of a rule at x, and M_delta its worst prior expected loss.  Signals are
always quantified over the support (positive probability under some
generator); rules are padded with the uniform action elsewhere so
comparisons are well defined.

The time and weak-time checks are exact decisions: both reduce to
polytope inclusions, and a convex inclusion can be decided at vertices
because the worst-case functionals are maxima of linear functions.  The
weak check never lists the posterior vertex products: the prior loss
splits by signal, so it walks them one signal at a time.  Dynamic
consistency quantifies over all pairs of rules, for which no decision
procedure is known; it is only falsified here, never certified.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DecisionProblem,
    DecisionRule,
    RandomizedAction,
    is_conservative,
    is_rectangular,
    support_x,
)
from .minimax import (
    action_loss,
    solve_a_posteriori,
    solve_a_priori,
    worst_case_loss,
    worst_case_posterior_loss,
)
from .sampling import random_rule

__all__ = [
    "PRODUCT_LIMIT",
    "ConsistencyVerdict",
    "SignalWitness",
    "PairWitness",
    "SufficiencyReport",
    "check_weak_time_consistency",
    "check_time_consistency",
    "falsify_dynamic_consistency",
    "sufficient_conditions",
]

ZERO = Fraction(0)

PRODUCT_LIMIT = 10**5

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SufficiencyReport:
    """Structural conditions that guarantee consistency outright."""

    rectangular: bool
    conservative: bool
    convex: bool

    @property
    def weak_time_guaranteed(self) -> bool:
        return self.rectangular

    @property
    def time_guaranteed(self) -> bool:
        return self.rectangular and self.conservative

    @property
    def dynamic_guaranteed(self) -> bool:
        # Epstein-Schneider: closed rectangular conservative sets are
        # dynamically consistent (convexity is not needed)
        return self.rectangular and self.conservative

    def summary(self) -> str:
        parts = [
            "rectangular" if self.rectangular else "not rectangular",
            "conservative" if self.conservative else "not conservative",
            "convex" if self.convex else "finitely listed",
        ]
        guarantees = []
        if self.time_guaranteed:
            guarantees.append("time consistency guaranteed")
        elif self.weak_time_guaranteed:
            guarantees.append(
                "weak time consistency guaranteed; time consistency not guaranteed"
            )
        else:
            guarantees.append("no guarantee")
        return "; ".join(parts) + " -> " + "; ".join(guarantees)


def sufficient_conditions(dp: DecisionProblem) -> SufficiencyReport:
    p = dp.credal
    return SufficiencyReport(
        rectangular=is_rectangular(p),
        conservative=is_conservative(p),
        convex=p.convex,
    )


@dataclass(frozen=True)
class SignalWitness:
    """A prior-optimal vertex that is posterior-suboptimal at ``x``."""

    rule: DecisionRule
    x: str
    posterior_loss: Fraction
    posterior_value: Fraction


@dataclass(frozen=True)
class PairWitness:
    """A pair (delta, delta_prime) violating a dynamic-consistency clause.

    ``condition`` is "condition-1" (posterior-wise at least as good,
    prior-wise strictly worse) or "condition-2" (posterior-wise strictly
    better at every signal, not prior-wise strictly better).
    ``strict_variant`` flags a violation of the stronger "strictly
    better at some signal" reading, which forces time consistency but is
    not part of the dynamic-consistency definition itself.
    """

    delta: DecisionRule
    delta_prime: DecisionRule
    condition: str
    posterior: tuple[tuple[str, Fraction, Fraction], ...]
    prior: tuple[Fraction, Fraction]
    strict_variant: bool


@dataclass(frozen=True)
class ConsistencyVerdict:
    kind: str  # "time" | "weak-time" | "dynamic"
    result: str  # "consistent" | "inconsistent" | "unknown"
    witness: DecisionRule | SignalWitness | PairWitness | None
    notes: SufficiencyReport
    strict_variant_witness: PairWitness | None = None


class WitnessError(Exception):
    """A candidate witness failed re-verification; indicates a bug."""


def _first_violating_product(dp: DecisionProblem, choices, bound) -> DecisionRule | None:
    """The lexicographically first rule of ``itertools.product(*choices)``
    whose prior worst-case loss exceeds ``bound``, or None.

    With L[i][x][k] generator i's expected loss at x under choice k, the
    largest prior worst case over all completions of a prefix is
    max_i (prefix_i + sum over the later x' of max_k L[i][x'][k]): the max
    over i commutes with the max over completions, and the sum splits by
    signal.  So the first choice at each signal, in order, whose bound
    still exceeds ``bound`` gives the first violating product.
    """
    per_y = [[action_loss(dp.loss, a.weights) for a in opts] for opts in choices]
    losses = [
        [
            [sum((m * v for m, v in zip(g.mass[xi], ly)), ZERO) for ly in opts]
            for xi, opts in enumerate(per_y)
        ]
        for g in dp.credal.generators
    ]
    # rest[i]: sum of max_k L[i][x'][k] over the signals x' after this one
    rest = [sum((max(row) for row in li), ZERO) for li in losses]
    prefix = [ZERO] * len(losses)
    picked = []
    for xi, opts in enumerate(choices):
        rest = [r - max(li[xi]) for r, li in zip(rest, losses)]
        for k, act in enumerate(opts):
            if max(p + li[xi][k] + r for p, li, r in zip(prefix, losses, rest)) > bound:
                break
        else:
            return None
        prefix = [p + li[xi][k] for p, li in zip(prefix, losses)]
        picked.append(act)
    return DecisionRule(space=dp.space, per_x=tuple(picked))


def check_weak_time_consistency(dp: DecisionProblem) -> ConsistencyVerdict:
    """Exact: does every posterior-optimal rule achieve the prior value?

    The posterior-optimal rules form the product of the per-signal
    optimal faces, and the prior worst-case loss is convex in the rule,
    so it exceeds the prior value somewhere on that product iff it does
    at a vertex product.  The vertex products are not enumerated: the
    loss splits by signal, so the first violating one is found one
    signal at a time (:func:`_first_violating_product`).
    """
    return _weak_verdict(dp, sufficient_conditions(dp), solve_a_posteriori(dp))


def _weak_verdict(dp: DecisionProblem, notes, post) -> ConsistencyVerdict:
    """Weak time consistency, given the structure notes and the posterior
    solution.  Only the LP value of the prior game is needed, so the
    optimal face is not enumerated."""
    prior = solve_a_priori(dp, face=False)
    rule = _first_violating_product(dp, post.choices(dp.space), prior.value)
    if rule is None:
        return ConsistencyVerdict("weak-time", CONSISTENT, witness=None, notes=notes)
    # replay through the primitives before accusing the problem
    wc, _ = worst_case_loss(dp.credal, rule, dp.loss)
    if wc <= prior.value:
        raise WitnessError("posterior product does not exceed the prior value")
    for x in support_x(dp.credal):
        m = worst_case_posterior_loss(dp.credal, rule, dp.loss, x)
        if m != post.value(x):
            raise WitnessError("witness is not posterior optimal")
    return ConsistencyVerdict("weak-time", INCONSISTENT, witness=rule, notes=notes)


def _det_first_lex(rules):
    return sorted(rules, key=lambda r: (not r.is_deterministic(), r.flatten()))


def check_time_consistency(dp: DecisionProblem) -> ConsistencyVerdict:
    """Exact: weak-time consistency plus the converse inclusion, i.e.
    every vertex of the prior-optimal face is posterior optimal at every
    support signal.  Deterministic vertices are scanned first so the
    reported witness is as plain as possible."""
    notes = sufficient_conditions(dp)
    post = solve_a_posteriori(dp)
    weak = _weak_verdict(dp, notes, post)
    if weak.result == INCONSISTENT:
        return ConsistencyVerdict(
            kind="time", result=INCONSISTENT, witness=weak.witness, notes=notes
        )
    prior = solve_a_priori(dp)
    live = support_x(dp.credal)
    for rule in _det_first_lex(prior.optimal_rule_vertices):
        for x in live:
            m = worst_case_posterior_loss(dp.credal, rule, dp.loss, x)
            mm = post.value(x)
            if m != mm:
                if m < mm:
                    raise WitnessError("rule beat the posterior value")
                return ConsistencyVerdict(
                    kind="time",
                    result=INCONSISTENT,
                    witness=SignalWitness(
                        rule=rule, x=x, posterior_loss=m, posterior_value=mm
                    ),
                    notes=notes,
                )
    return ConsistencyVerdict(kind="time", result=CONSISTENT, witness=None, notes=notes)


def _deterministic_rules(space, limit=PRODUCT_LIMIT):
    """All deterministic rules in lexicographic order of their weight
    vectors (so higher-indexed actions come first)."""
    na = space.na
    if na**space.nx > limit:
        return
    order = list(range(na - 1, -1, -1))
    for combo in itertools.product(order, repeat=space.nx):
        yield DecisionRule(
            space=space,
            per_x=tuple(
                RandomizedAction(
                    tuple(Fraction(1 if k == a else 0) for k in range(na))
                )
                for a in combo
            ),
        )


def falsify_dynamic_consistency(
    dp: DecisionProblem, budget: int, rng: random.Random | None = None
) -> ConsistencyVerdict:
    """Search for a pair of rules violating dynamic consistency.

    Candidates, in canonical order: posterior vertex products, prior
    optimal-face vertices, deterministic rules, then ``budget`` random
    rules.  Ordered pairs are scanned in candidate order and the first
    verified violation is returned; with none found the verdict is
    unknown (the definition quantifies over all pairs).  A violation of
    the strict "for some x" variant alone does not refute dynamic
    consistency but is reported alongside.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if rng is None:
        rng = random.Random(0)
    notes = sufficient_conditions(dp)
    prior = solve_a_priori(dp)
    post = solve_a_posteriori(dp)
    live = support_x(dp.credal)

    candidates: list[DecisionRule] = []
    seen = set()

    def add(rule):
        if rule not in seen:
            seen.add(rule)
            candidates.append(rule)

    products = itertools.product(*post.choices(dp.space))
    for combo in itertools.islice(products, PRODUCT_LIMIT):
        add(DecisionRule(space=dp.space, per_x=combo))
    for rule in prior.optimal_rule_vertices:
        add(rule)
    for rule in _deterministic_rules(dp.space):
        add(rule)
    for _ in range(budget):
        add(random_rule(rng, dp.space))

    m_vec = [
        tuple(worst_case_posterior_loss(dp.credal, r, dp.loss, x) for x in live)
        for r in candidates
    ]
    big_m = [worst_case_loss(dp.credal, r, dp.loss)[0] for r in candidates]

    strict_only: PairWitness | None = None
    n = len(candidates)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            mi, mj = m_vec[i], m_vec[j]
            if any(a > b for a, b in zip(mi, mj)):
                continue  # antecedent fails; nothing to check
            strict_all = all(a < b for a, b in zip(mi, mj))
            strict_some = any(a < b for a, b in zip(mi, mj))
            condition = None
            if big_m[i] > big_m[j]:
                condition = "condition-1"
            elif strict_all and big_m[i] >= big_m[j]:
                condition = "condition-2"
            is_strict_variant = strict_some and big_m[i] >= big_m[j]
            if condition is None and (strict_only is not None or not is_strict_variant):
                continue
            witness = PairWitness(
                delta=candidates[i],
                delta_prime=candidates[j],
                condition=condition or "strict-variant",
                posterior=tuple((x, a, b) for x, a, b in zip(live, mi, mj)),
                prior=(big_m[i], big_m[j]),
                strict_variant=is_strict_variant,
            )
            if condition is not None:
                _verify_pair_witness(dp, live, witness)
                return ConsistencyVerdict(
                    kind="dynamic",
                    result=INCONSISTENT,
                    witness=witness,
                    notes=notes,
                    strict_variant_witness=strict_only,
                )
            strict_only = witness
    return ConsistencyVerdict(
        kind="dynamic",
        result=UNKNOWN,
        witness=None,
        notes=notes,
        strict_variant_witness=strict_only,
    )


def _verify_pair_witness(dp, live, w: PairWitness):
    """Replay a pair witness through the primitives."""
    for x, a, b in w.posterior:
        if worst_case_posterior_loss(dp.credal, w.delta, dp.loss, x) != a:
            raise WitnessError("stale posterior loss for delta")
        if worst_case_posterior_loss(dp.credal, w.delta_prime, dp.loss, x) != b:
            raise WitnessError("stale posterior loss for delta_prime")
        if a > b:
            raise WitnessError("antecedent fails at %s" % x)
    ma, _ = worst_case_loss(dp.credal, w.delta, dp.loss)
    mb, _ = worst_case_loss(dp.credal, w.delta_prime, dp.loss)
    if (ma, mb) != w.prior:
        raise WitnessError("stale prior losses")
    if w.condition == "condition-1":
        if not ma > mb:
            raise WitnessError("condition-1 witness does not violate (3)")
    elif w.condition == "condition-2":
        if not all(a < b for _x, a, b in w.posterior):
            raise WitnessError("condition-2 witness is not strict everywhere")
        if ma < mb:
            raise WitnessError("condition-2 witness satisfies strict (3)")
    else:
        raise WitnessError("unknown condition tag %r" % w.condition)
