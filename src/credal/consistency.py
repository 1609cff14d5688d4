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
consistency, over all pairs of rules, could be decided by finitely many
LPs over the games' rows; that decision is not built, so this module only
falsifies it and never certifies it.
Each check reads the games through the public solvers
(:func:`credal.minimax.solve_a_priori`, ``solve_a_posteriori``), which
solve each once per problem, so the time check reads the weak check's
games and only adds the prior game's face.
Every loss is read from the games' own rows, kept on the problem: the
weak check's loss of each posterior-optimal action at its signal from
that signal's block of the prior game's rows (``dp.loss_blocks``), and
each rule's M_delta from those rows (``dp.loss_rows``) and its
m_delta(x) from the posterior game's rows at x (``dp.posterior_rows``,
:func:`credal.minimax._rule_risks`).  Those rows, the posterior games
and the rectangularity swaps behind :func:`sufficient_conditions` read
each signal's conditioned points as listed, as every maximum does
(:mod:`credal.core`), so no verdict depends on pruning; only an optimal
posterior face that its tableau does not certify is enumerated over a
pruned set.  This module builds no rows itself;
:func:`_replay` replays every witness before its verdict, through the
public ``worst_case_loss`` and ``worst_case_posterior_loss``, which
build their own rows.  The dynamic
falsifier gets every candidate's M_delta and m_delta(x) as ``Fraction``s
(``_rule_risks``, through ``minimax._worst``), sorts each loss once into
ranks (``_ranks``) and compares the ranks as ``int``s.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .core import (
    DecisionProblem,
    DecisionRule,
    RandomizedAction,
    is_conservative,
    is_rectangular,
    support_x,
)
from .linprog import InternalCheckError, _worst_row, refuse_above
from .minimax import (
    _rule_risks,
    solve_a_posteriori,
    solve_a_priori,
    worst_case_loss,
    worst_case_posterior_loss,
)
from .rationals import common_denominator
from .sampling import random_rule

__all__ = [
    "DYNAMIC_CANDIDATE_LIMIT",
    "ConsistencyVerdict",
    "SignalWitness",
    "PairWitness",
    "SufficiencyReport",
    "check_weak_time_consistency",
    "check_time_consistency",
    "falsify_dynamic_consistency",
    "sufficient_conditions",
]

# At the limit, with every antecedent holding (a constant loss over 5 signals,
# 436 distinct candidates), a run takes 0.35-0.5 s (Python 3.11.7, 2-core x86-64).
DYNAMIC_CANDIDATE_LIMIT = 500

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
    # M_delta of a DecisionRule witness, as its replay computed it
    witness_prior_loss: Fraction | None = None


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
    live = dp.credal.live
    # each choice's loss at its live signal under each generator, over one denominator
    per = [
        [_worst_row(at, common_denominator(a.weights))[:2] for a in choices[xi]]
        for xi, at in zip(live, dp.loss_blocks)
    ]
    den = math.lcm(*[d for opts in per for _, d in opts])
    losses = [
        [[v[i] * (den // d) for v, d in opts] for opts in per]
        for i in range(len(dp.loss_rows))
    ]
    bn, bd = bound.as_integer_ratio()
    limit = bn * den
    # rest[i]: sum of max_k L[i][x'][k] over the signals x' after this one
    rest = [sum(max(row) for row in li) for li in losses]
    prefix = [0] * len(losses)
    # a dead signal adds 0 under every choice, so it keeps its first
    picked = [opts[0] for opts in choices]
    for k, xi in enumerate(live):
        rest = [r - max(li[k]) for r, li in zip(rest, losses)]
        for j, act in enumerate(choices[xi]):
            if max(p + li[k][j] + r for p, li, r in zip(prefix, losses, rest)) * bd > limit:
                break
        else:
            return None
        prefix = [p + li[k][j] for p, li in zip(prefix, losses)]
        picked[xi] = act
    return DecisionRule(space=dp.space, per_x=tuple(picked))


def check_weak_time_consistency(dp: DecisionProblem) -> ConsistencyVerdict:
    """Exact: does every posterior-optimal rule achieve the prior value?

    The posterior-optimal rules form the product of the per-signal
    optimal faces, and the prior worst-case loss is convex in the rule,
    so it exceeds the prior value somewhere on that product iff it does
    at a vertex product.  The vertex products are not enumerated: the
    loss splits by signal, so the first violating one is found one
    signal at a time (:func:`_first_violating_product`).  Only the prior
    game's LP value is read, so its face is not enumerated.
    """
    notes = sufficient_conditions(dp)
    post = solve_a_posteriori(dp)
    value = solve_a_priori(dp, face=False).value
    rule = _first_violating_product(dp, post.choices(dp.space), value)
    if rule is None:
        return ConsistencyVerdict("weak-time", CONSISTENT, witness=None, notes=notes)
    big_m, ms = _replay(dp, rule)
    if big_m <= value:
        raise InternalCheckError("posterior product does not exceed the prior value")
    if ms != tuple(post.value(x) for x in support_x(dp.credal)):
        raise InternalCheckError("witness is not posterior optimal")
    return ConsistencyVerdict(
        "weak-time", INCONSISTENT, witness=rule, notes=notes, witness_prior_loss=big_m
    )


def check_time_consistency(dp: DecisionProblem) -> ConsistencyVerdict:
    """Exact: weak-time consistency plus the converse inclusion, i.e.
    every vertex of the prior-optimal face is posterior optimal at every
    support signal.  Deterministic vertices are scanned first so the
    reported witness is as plain as possible."""
    weak = check_weak_time_consistency(dp)
    notes = weak.notes
    if weak.result == INCONSISTENT:
        return replace(weak, kind="time")
    # enumerate the face only once the weak check passes: it may be refused
    prior, post = solve_a_priori(dp), solve_a_posteriori(dp)
    live = support_x(dp.credal)
    rules = sorted(
        prior.optimal_rule_vertices, key=lambda r: (not r.is_deterministic(), r.flatten())
    )
    for rule, (_, ms) in zip(rules, _rule_risks(dp, rules)):
        for x, m in zip(live, ms):
            mm = post.value(x)
            if m != mm:
                if m < mm:
                    raise InternalCheckError("rule beat the posterior value")
                if _replay(dp, rule) != (prior.value, ms):
                    raise InternalCheckError("witness losses do not replay")
                return ConsistencyVerdict(
                    kind="time",
                    result=INCONSISTENT,
                    witness=SignalWitness(
                        rule=rule, x=x, posterior_loss=m, posterior_value=mm
                    ),
                    notes=notes,
                )
    return ConsistencyVerdict(kind="time", result=CONSISTENT, witness=None, notes=notes)


def _deterministic_rules(space):
    """All deterministic rules in lexicographic order of their weight
    vectors (so higher-indexed actions come first)."""
    na = space.na
    units = [
        RandomizedAction(tuple(Fraction(int(k == a)) for k in range(na)))
        for a in range(na - 1, -1, -1)
    ]
    for combo in itertools.product(units, repeat=space.nx):
        yield DecisionRule(space, combo)


def falsify_dynamic_consistency(dp: DecisionProblem, budget: int) -> ConsistencyVerdict:
    """Search for a pair of rules violating dynamic consistency.

    Candidates, in canonical order: posterior vertex products, prior
    optimal-face vertices, deterministic rules, then ``budget`` random
    rules drawn from ``random.Random(0)``.  Ordered pairs are scanned in
    candidate order and the first verified violation is returned; with
    none found the verdict is unknown (the definition quantifies over all
    pairs).  A violation of
    the strict "for some x" variant alone does not refute dynamic
    consistency but is reported alongside.  Candidates are counted, with
    repeats, before any is built: more than ``DYNAMIC_CANDIDATE_LIMIT`` raise.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    notes = sufficient_conditions(dp)
    candidates = _dynamic_candidates(dp, budget)
    live = support_x(dp.credal)
    big_m, m_vec = zip(*_rule_risks(dp, candidates))
    # the scan compares ranks: each M_delta's place among the distinct
    # M_delta, and each m_delta(x)'s among the distinct ones at x
    big_r = _ranks(big_m)
    m_r = list(zip(*map(_ranks, zip(*m_vec))))

    strict_only: PairWitness | None = None
    n = len(candidates)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            below = _below(m_r[i], m_r[j])
            if below is None:
                continue  # antecedent fails; nothing to check
            strict_all, strict_some = below
            condition = None
            if big_r[i] > big_r[j]:
                condition = "condition-1"
            elif strict_all and big_r[i] >= big_r[j]:
                condition = "condition-2"
            is_strict_variant = strict_some and big_r[i] >= big_r[j]
            if condition is None and (strict_only is not None or not is_strict_variant):
                continue
            witness = PairWitness(
                delta=candidates[i],
                delta_prime=candidates[j],
                condition=condition or "strict-variant",
                posterior=tuple(zip(live, m_vec[i], m_vec[j])),
                prior=(big_m[i], big_m[j]),
                strict_variant=is_strict_variant,
            )
            if condition is not None:
                _verify_pair_witness(dp, witness)
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


def _dynamic_candidates(dp: DecisionProblem, budget: int) -> list[DecisionRule]:
    """The candidates of :func:`falsify_dynamic_consistency`, in its order and
    without repeats, once their count with repeats is within the limit."""
    prior = solve_a_priori(dp)
    choices = solve_a_posteriori(dp).choices(dp.space)
    count = math.prod(map(len, choices)) + len(prior.optimal_rule_vertices) + budget
    count += dp.space.na**dp.space.nx
    refuse_above(DYNAMIC_CANDIDATE_LIMIT, count, "dynamic consistency candidates")
    rng = random.Random(0)
    rules = itertools.chain(
        (DecisionRule(space=dp.space, per_x=combo) for combo in itertools.product(*choices)),
        prior.optimal_rule_vertices,
        _deterministic_rules(dp.space),
        (random_rule(rng, dp.space) for _ in range(budget)),
    )
    return list(dict.fromkeys(rules))


def _ranks(values) -> list[int]:
    """Each of ``values`` as its place among the distinct values, in
    increasing order: two ranks compare as their values do."""
    place = {v: k for k, v in enumerate(sorted(set(values)))}
    return [place[v] for v in values]


def _below(mi, mj) -> tuple[bool, bool] | None:
    """One walk over two loss vectors: None when some loss of ``mi``
    exceeds ``mj``'s, else whether it is smaller everywhere and somewhere."""
    everywhere, somewhere = True, False
    for a, b in zip(mi, mj):
        if a > b:
            return None
        if a < b:
            somewhere = True
        else:
            everywhere = False
    return everywhere, somewhere


def _replay(dp: DecisionProblem, rule: DecisionRule):
    """M_delta and the m_delta(x) at every live signal of ``rule``, replayed
    through the public primitives before a verdict accuses the problem."""
    p, loss = dp.credal, dp.loss
    return worst_case_loss(p, rule, loss)[0], tuple(
        worst_case_posterior_loss(p, rule, loss, x) for x in support_x(p)
    )


def _verify_pair_witness(dp, w: PairWitness):
    """Replay a pair witness through :func:`_replay`."""
    (ma, ms), (mb, ms_prime) = _replay(dp, w.delta), _replay(dp, w.delta_prime)
    if tuple(zip(support_x(dp.credal), ms, ms_prime)) != w.posterior:
        raise InternalCheckError("stale posterior losses")
    if any(a > b for a, b in zip(ms, ms_prime)):
        raise InternalCheckError("antecedent fails")
    if (ma, mb) != w.prior:
        raise InternalCheckError("stale prior losses")
    if w.condition == "condition-1":
        if not ma > mb:
            raise InternalCheckError("condition-1 witness does not violate (3)")
    elif w.condition == "condition-2":
        if not all(a < b for _x, a, b in w.posterior):
            raise InternalCheckError("condition-2 witness is not strict everywhere")
        if ma < mb:
            raise InternalCheckError("condition-2 witness satisfies strict (3)")
    else:
        raise InternalCheckError("unknown condition tag %r" % w.condition)
