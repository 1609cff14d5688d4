"""Minimax-optimal decision rules against a credal set.

Two games are solved exactly:

* the prior game: pick a randomized rule before seeing the signal,
  against an adversary choosing the joint distribution from the credal
  set (an LP over rule space; the adversary's optimal mixture comes out
  of the dual prices);
* the posterior game: after observing ``x``, pick a randomized action
  against the conditioned outcome distributions
  (:func:`credal.core.posterior_y`; one small matrix game per signal
  value).

Both games, and the constant-rule game of :func:`solve_ignoring`, are
one LP shape: minimise the worst of finitely many linear losses over a
product of simplices.  :func:`credal.linprog.block_game` builds and
checks that LP, and :func:`credal.linprog.optimal_face_vertices`
enumerates its optimal face from the same rows, widths and value, over
the columns that the verified bookie mixture leaves at zero reduced
cost; this module only supplies the loss rows, each scaled to integers
once, here, and read as they are downstream.

The loss rows, the bookie's mixed joint, the saddle check of
:func:`verify_saddle` and every loss of a rule are computed in integers
over positive common denominators; a rule's expected, worst prior
(M_delta) and worst posterior (m_delta(x)) losses all read one table,
:func:`_signal_losses`.  Each comparison is the ``Fraction``
comparison cross-multiplied by positive denominators, and every value
returned is a ``Fraction``.  One solve builds its loss rows and its
mixed joint once, for the game, the face and each saddle check.

Signals outside the support (zero probability under every generator)
cannot influence expected loss; solvers pin the rule to the uniform
action there and report those signals as unconstrained.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

from .core import (
    CredalSet,
    DecisionProblem,
    DecisionRule,
    JointDistribution,
    LossFunction,
    RandomizedAction,
    marginal_y,
    posterior_y,
    rule_from_weights,
    support_x,
    uniform_action,
)
from .linprog import SizeLimitError, block_game, optimal_face_vertices
from .polytope import VPolytope
from .rationals import common_denominator, rat

__all__ = [
    "MinimaxSolution",
    "PosteriorPoint",
    "PosteriorSolution",
    "SaddleReport",
    "IgnoringSolution",
    "expected_loss",
    "worst_case_loss",
    "worst_case_posterior_loss",
    "solve_a_priori",
    "solve_a_posteriori",
    "verify_saddle",
    "solve_ignoring",
    "brute_force_value",
]

ZERO = Fraction(0)

BRUTE_FORCE_LIMIT = 10**7


class SolverError(Exception):
    """A solver invariant failed; indicates a bug, not bad input."""


# ---------------------------------------------------------------------------
# loss evaluation primitives


def _loss_columns(loss: LossFunction):
    """The loss table as one column per action (its loss at each outcome),
    integers over one positive denominator."""
    table, den = common_denominator([v for row in loss.table for v in row])
    na = loss.space.na
    return [table[a::na] for a in range(na)], den


def _action_losses(loss: LossFunction, qs):
    """One game row per ``q`` in ``qs``, (unnormalised) Y-vectors laid end to
    end: each action's expected loss under each, as integers over a
    denominator reduced by their gcd, so as :func:`common_denominator` of
    the row's values."""
    columns, ld = _loss_columns(loss)
    ny = loss.space.ny
    rows = []
    for q in qs:
        nums, qd = common_denominator(q)
        row = [
            sum(map(mul, nums[k : k + ny], col))
            for k in range(0, len(nums), ny)
            for col in columns
        ]
        g = math.gcd(qd * ld, *row)
        rows.append((tuple([v // g for v in row]), qd * ld // g))
    return rows


def _generator_masses(gens):
    """Each generator's flattened mass, x-major, as integers over one
    positive denominator shared by all of them."""
    nums, den = common_denominator([v for g in gens for row in g.mass for v in row])
    n = len(nums) // len(gens)
    return [nums[k * n : (k + 1) * n] for k in range(len(gens))], den


def _rule_losses(actions, loss: LossFunction):
    """Expected loss of each of the randomized ``actions`` at each outcome,
    flattened action-major, as integers over one positive denominator.  A
    rule's ``per_x`` gives its loss at each (x, y), x-major."""
    weights, wd = common_denominator([w for a in actions for w in a.weights])
    columns, ld = _loss_columns(loss)
    by_y = list(zip(*columns))
    na = len(columns)
    return [
        sum(map(mul, weights[k : k + na], row))
        for k in range(0, len(weights), na)
        for row in by_y
    ], wd * ld


def _signal_losses(masses, rule: DecisionRule, loss: LossFunction):
    """Each generator's expected loss of ``rule`` at each signal, given the
    :func:`_generator_masses` ``masses``: one list per generator, one
    integer per signal, all over one positive denominator.  Every loss of
    a rule is read from this."""
    ms, md = masses
    losses, ed = _rule_losses(rule.per_x, loss)
    ny = loss.space.ny
    return [
        [sum(map(mul, m[k : k + ny], losses[k : k + ny])) for k in range(0, len(m), ny)]
        for m in ms
    ], md * ed


def _posterior_worst(masses, losses, xi):
    """m_delta(x) at signal index ``xi`` from the :func:`_generator_masses`
    and the :func:`_signal_losses`: the largest ratio of a generator's loss
    at ``xi`` to its mass there, compared cross-multiplied over the
    generators that give ``xi`` mass; 0 when none does."""
    (ms, md), (rows, den) = masses, losses
    ny = len(ms[0]) // len(rows[0])
    best, best_px = 0, 0
    for m, row in zip(ms, rows):
        px = sum(m[xi * ny : (xi + 1) * ny])
        if px and (not best_px or row[xi] * best_px > best * px):
            best, best_px = row[xi], px
    return Fraction(best * md, best_px * den) if best_px else ZERO


def _rule_risks(masses, rule: DecisionRule, loss: LossFunction, xs):
    """M_delta and the m_delta(x) at each signal of ``xs``, from one
    :func:`_signal_losses` of ``rule`` over the :func:`_generator_masses`."""
    losses = _signal_losses(masses, rule, loss)
    worst = Fraction(max(map(sum, losses[0])), losses[1])
    return worst, tuple(_posterior_worst(masses, losses, rule.space.x_index(x)) for x in xs)


def _mixed_mass(masses, mixture):
    """Flattened mass of the joint ``sum_i mixture[i] * gens[i]``, given the
    :func:`_generator_masses` and the mixture as integers over positive
    denominators; the result is over their product."""
    (ms, md), (qs, qd) = masses, mixture
    return [sum(map(mul, qs, col)) for col in zip(*ms)], qd * md


def expected_loss(g: JointDistribution, rule: DecisionRule, loss: LossFunction) -> Fraction:
    ((row,), den) = _signal_losses(_generator_masses((g,)), rule, loss)
    return Fraction(sum(row), den)


def worst_case_loss(p: CredalSet, rule: DecisionRule, loss: LossFunction):
    """Max expected loss over the generators, with the first witness index.

    For a convex set the maximum over the hull is attained at a
    generator, so scanning the generator list is exact either way.
    """
    rows, den = _signal_losses(_generator_masses(p.generators), rule, loss)
    totals = [sum(row) for row in rows]
    best = max(totals)
    return Fraction(best, den), totals.index(best)


def worst_case_posterior_loss(
    p: CredalSet, rule: DecisionRule, loss: LossFunction, x
) -> Fraction:
    """Worst expected loss of ``rule`` under the conditioned set at ``x``.

    Zero when no generator gives ``x`` positive probability; such
    signals carry no posterior risk.
    """
    masses = _generator_masses(p.generators)
    return _posterior_worst(masses, _signal_losses(masses, rule, loss), p.space.x_index(x))


# ---------------------------------------------------------------------------
# prior game


@dataclass(frozen=True)
class MinimaxSolution:
    """Equilibrium of the prior game.

    ``bookie_mixture`` weights the generators (the adversary's optimal
    mixture, from the LP duals); ``aggregate`` is the mixed joint it
    induces.  ``optimal_rule_vertices`` are all vertices of the optimal
    face of rule space, and ``rule`` is the lexicographically smallest.
    """

    value: Fraction
    rule: DecisionRule
    bookie_mixture: tuple[Fraction, ...]
    aggregate: JointDistribution
    optimal_rule_vertices: tuple[DecisionRule, ...] | None
    unconstrained_x: tuple[str, ...]

    @property
    def unique(self) -> bool:
        if self.optimal_rule_vertices is None:
            raise ValueError("solved with face=False; vertices not computed")
        return len(self.optimal_rule_vertices) == 1


def _generator_coefficients(dp: DecisionProblem, live_idx):
    """One row per generator: the expected-loss coefficient of each
    (live signal, action) weight, signal-major."""
    return _action_losses(
        dp.loss, [[v for xi in live_idx for v in g.mass[xi]] for g in dp.credal.generators]
    )


def _block_rule(space, live_idx, w):
    """Rule playing block k of ``w`` at signal ``live_idx[k]``, uniform elsewhere."""
    na = space.na
    per_x = [uniform_action(space)] * space.nx
    for k, xi in enumerate(live_idx):
        per_x[xi] = RandomizedAction(tuple(w[k * na : (k + 1) * na]))
    return DecisionRule(space=space, per_x=tuple(per_x))


def _face_rules(space, live_idx, verts):
    """Optimal-face vertices embedded as full decision rules, sorted."""
    rules = [_block_rule(space, live_idx, v) for v in verts]
    rules.sort(key=lambda r: r.flatten())
    return tuple(rules)


def _prior_rows(dp: DecisionProblem):
    """The prior game's LP data: live signal indices, generator rows and
    block widths."""
    space = dp.space
    live_idx = [space.x_index(x) for x in support_x(dp.credal)]
    return live_idx, _generator_coefficients(dp, live_idx), [space.na] * len(live_idx)


def _prior_game(dp: DecisionProblem):
    """The prior game solved without its face and not yet checked.

    Returns the solution, the LP data of :func:`_prior_rows` and the
    :func:`_scaled_mixture` of its bookie mixture, so that the face and
    the saddle checks of one solve reuse them.
    """
    space = dp.space
    game = _prior_rows(dp)
    live_idx, rows, widths = game
    value, w, mixture = block_game(rows, widths)
    mix = _scaled_mixture(dp.credal.generators, mixture)
    mass, den = mix[2]
    ny = space.ny
    solution = MinimaxSolution(
        value=value,
        rule=_block_rule(space, live_idx, w),
        bookie_mixture=mixture,
        aggregate=JointDistribution(
            space=space,
            mass=tuple(
                tuple(Fraction(v, den) for v in mass[k : k + ny])
                for k in range(0, len(mass), ny)
            ),
        ),
        optimal_rule_vertices=None,
        unconstrained_x=tuple(
            x for xi, x in enumerate(space.x_labels) if xi not in live_idx
        ),
    )
    return solution, game, mix


def _checked(dp: DecisionProblem, solution: MinimaxSolution, mix) -> MinimaxSolution:
    """``solution``, once :func:`verify_saddle` holds for its rule against the
    :func:`_scaled_mixture` ``mix`` of its bookie mixture."""
    report = _saddle_report(dp, solution.rule, mix)
    if not report.holds:
        raise SolverError("saddle check failed: %s" % (report.failing,))
    return solution


def _with_face(dp: DecisionProblem, solution: MinimaxSolution, game) -> MinimaxSolution:
    """``solution`` with its optimal face enumerated from the
    :func:`_prior_rows` ``game``, not yet checked."""
    live_idx, rows, widths = game
    verts = optimal_face_vertices(rows, widths, solution.value, solution.bookie_mixture)
    vertices = _face_rules(dp.space, live_idx, verts)
    if not vertices:
        raise SolverError("optimal face came back empty")
    return replace(solution, rule=vertices[0], optimal_rule_vertices=vertices)


def solve_a_priori(dp: DecisionProblem, face: bool = True) -> MinimaxSolution:
    """Exact equilibrium of the prior game.

    LP (:func:`credal.linprog.block_game`, one simplex block per support
    signal): minimize t subject to, for every generator, the expected
    loss of the rule being at most t.  The dual prices of the generator
    rows give the adversary's mixture; the result is checked with
    :func:`verify_saddle`.

    ``face=False`` skips the vertex enumeration of the optimal face (the
    expensive part); the reported rule is then the one the simplex
    landed on rather than the lexicographically smallest vertex.
    """
    solution, game, mix = _prior_game(dp)
    if face:
        solution = _with_face(dp, solution, game)
    return _checked(dp, solution, mix)


# ---------------------------------------------------------------------------
# posterior game


@dataclass(frozen=True)
class PosteriorPoint:
    x: str
    value: Fraction
    action_vertices: tuple[RandomizedAction, ...]
    bookie_mixture: tuple[Fraction, ...]
    projection: VPolytope


@dataclass(frozen=True)
class PosteriorSolution:
    """Per-signal equilibria of the posterior games, support signals only."""

    per_x: tuple[PosteriorPoint, ...]

    def point(self, x) -> PosteriorPoint | None:
        """The posterior game at signal ``x``; None when ``x`` is never observed."""
        x = str(x)
        for pt in self.per_x:
            if pt.x == x:
                return pt
        return None

    def value(self, x) -> Fraction:
        point = self.point(x)
        if point is None:
            raise KeyError(x)
        return point.value

    def choices(self, space) -> list[tuple[RandomizedAction, ...]]:
        """Per signal, in label order: the optimal action vertices, or
        the uniform action where the signal is never observed."""
        by_x = {pt.x: pt.action_vertices for pt in self.per_x}
        uniform = (uniform_action(space),)
        return [by_x.get(x, uniform) for x in space.x_labels]


def solve_a_posteriori(dp: DecisionProblem) -> PosteriorSolution:
    """One matrix game per support signal: actions against the
    conditioned outcome distributions."""
    widths = [dp.space.na]
    points = []
    for x in support_x(dp.credal):
        proj = posterior_y(dp.credal, (x,))
        rows = _action_losses(dp.loss, proj.generators)
        value, _w, mixture = block_game(rows, widths)
        verts = optimal_face_vertices(rows, widths, value, mixture)
        points.append(
            PosteriorPoint(
                x=x,
                value=value,
                action_vertices=tuple(RandomizedAction(v) for v in verts),
                bookie_mixture=mixture,
                projection=proj,
            )
        )
    return PosteriorSolution(per_x=tuple(points))


# ---------------------------------------------------------------------------
# saddle verification


@dataclass(frozen=True)
class SaddleReport:
    """Exact three-clause equilibrium check.

    ``value``: mixture-averaged expected loss of the rule.
    Clauses: the agent cannot improve against the aggregate; the bookie
    cannot improve against the rule; every generator in the mixture's
    support attains the bookie's maximum.
    """

    holds: bool
    value: Fraction
    agent_best_response: Fraction
    bookie_best_response: Fraction
    failing: tuple[str, ...]


def verify_saddle(dp: DecisionProblem, mixture, rule: DecisionRule) -> SaddleReport:
    return _saddle_report(dp, rule, _scaled_mixture(dp.credal.generators, mixture))


def _scaled_mixture(gens, mixture):
    """Check that ``mixture`` is a probability vector over ``gens`` (else
    ValueError).  Returns the mixture, the :func:`_generator_masses` and
    the :func:`_mixed_mass`, each as integers over a positive denominator."""
    mixture = tuple(rat(w) for w in mixture)
    if len(mixture) != len(gens):
        raise ValueError("mixture length != number of generators")
    qs, qd = common_denominator(mixture)
    if any(q < 0 for q in qs) or sum(qs) != qd:
        raise ValueError("mixture must be a probability vector")
    masses = _generator_masses(gens)
    return (qs, qd), masses, _mixed_mass(masses, (qs, qd))


def _saddle_report(dp: DecisionProblem, rule: DecisionRule, mix) -> SaddleReport:
    """:func:`verify_saddle` of ``rule`` against the :func:`_scaled_mixture`
    ``mix``.  The value is over ``qd * den``, the bookie's best response
    over ``den`` and the agent's over ``ad * ld``; each clause compares
    them cross-multiplied."""
    (qs, qd), masses, (mass, ad) = mix
    rows, den = _signal_losses(masses, rule, dp.loss)
    losses = [sum(row) for row in rows]
    value = sum(map(mul, qs, losses))
    bookie_best = max(losses)
    columns, ld = _loss_columns(dp.loss)
    ny = dp.space.ny
    agent_best = sum(
        min(sum(map(mul, mass[k : k + ny], col)) for col in columns)
        for k in range(0, len(mass), ny)
    )

    failing = []
    if value * ad * ld != agent_best * qd * den:
        failing.append("agent-deviation")
    if value != bookie_best * qd:
        failing.append("bookie-deviation")
    if any(q > 0 and v != bookie_best for q, v in zip(qs, losses)):
        failing.append("support-not-tight")
    return SaddleReport(
        holds=not failing,
        value=Fraction(value, qd * den),
        agent_best_response=Fraction(agent_best, ad * ld),
        bookie_best_response=Fraction(bookie_best, den),
        failing=tuple(failing),
    )


# ---------------------------------------------------------------------------
# signal-blind play


@dataclass(frozen=True)
class IgnoringSolution:
    """Best constant rule, with the marginal-game cross-check.

    The optimal constant rule's worst case depends on the joint set only
    through its Y-marginals; ``marginal_game_value`` re-derives the
    value from the marginal polytope and must agree exactly.
    """

    value: Fraction
    rule: DecisionRule
    action_vertices: tuple[RandomizedAction, ...]
    bookie_mixture: tuple[Fraction, ...]
    marginal_game_value: Fraction
    a_priori_value: Fraction
    matches_a_priori: bool


def solve_ignoring(dp: DecisionProblem) -> IgnoringSolution:
    """Prior game restricted to constant rules (ties every signal to one
    randomized action) and comparison against the unrestricted game."""
    space = dp.space
    widths = [space.na]
    # constant-rule game: min t, per generator E[L_gamma] <= t over gamma
    rows = _action_losses(dp.loss, [g.y_marginal() for g in dp.credal.generators])
    value, _gamma, mixture = block_game(rows, widths)

    marginal_rows = _action_losses(dp.loss, marginal_y(dp.credal).generators)
    marginal_value, _gamma, _mix = block_game(marginal_rows, widths)
    if marginal_value != value:
        raise SolverError("marginal game disagrees with constant-rule LP")

    action_vertices = tuple(
        RandomizedAction(v) for v in optimal_face_vertices(rows, widths, value, mixture)
    )
    if not action_vertices:
        raise SolverError("constant-rule face came back empty")
    rule = rule_from_weights(space, [action_vertices[0].weights] * space.nx)

    prior = solve_a_priori(dp, face=False)
    return IgnoringSolution(
        value=value,
        rule=rule,
        action_vertices=action_vertices,
        bookie_mixture=mixture,
        marginal_game_value=marginal_value,
        a_priori_value=prior.value,
        matches_a_priori=value == prior.value,
    )


# ---------------------------------------------------------------------------
# grid oracle


def brute_force_value(dp: DecisionProblem, grid: int):
    """Sandwich the prior-game value between grid bounds.

    ``upper``: best worst-case loss over all rules whose action weights
    are multiples of 1/grid.  ``lower``: upper minus the rounding slack
    ``|A| * spread(loss) / grid``.  Deliberately independent of the LP
    machinery.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    space = dp.space
    na = space.na
    count = (grid + 1) ** (space.nx * (na - 1))
    if count > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(
            "grid search limited to %d rules, got %d" % (BRUTE_FORCE_LIMIT, count)
        )

    live = [space.x_index(x) for x in support_x(dp.credal)]
    uniform = uniform_action(space).weights

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    menu = [
        tuple(Fraction(c, grid) for c in comp) for comp in compositions(grid, na)
    ]
    best = None
    for combo in itertools.product(menu, repeat=len(live)):
        weights = []
        for xi in range(space.nx):
            if xi in live:
                weights.append(combo[live.index(xi)])
            else:
                weights.append(uniform)
        rule = rule_from_weights(space, weights)
        wc, _w = worst_case_loss(dp.credal, rule, dp.loss)
        if best is None or wc < best:
            best = wc
    slack = Fraction(na) * dp.loss.spread() / grid
    return best - slack, best
