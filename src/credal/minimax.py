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
checks that LP, and :func:`credal.linprog.block_game_face` enumerates
its optimal face; this module only supplies the loss rows.

Signals outside the support (zero probability under every generator)
cannot influence expected loss; solvers pin the rule to the uniform
action there and report those signals as unconstrained.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

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
from .linprog import SizeLimitError, block_game, block_game_face
from .polytope import VPolytope
from .rationals import rat

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


def action_loss(loss: LossFunction, weights) -> tuple[Fraction, ...]:
    """Per-outcome expected loss of a randomized action."""
    return tuple(
        sum((w * loss.table[yi][ai] for ai, w in enumerate(weights)), ZERO)
        for yi in range(loss.space.ny)
    )


def _action_losses(loss: LossFunction, q) -> tuple[Fraction, ...]:
    """Expected loss of each action under the (unnormalised) Y-vector ``q``."""
    return tuple(
        sum((q[yi] * loss.table[yi][ai] for yi in range(loss.space.ny)), ZERO)
        for ai in range(loss.space.na)
    )


def _mixed_mass(gens, mixture):
    """Mass matrix of the joint ``sum_i mixture[i] * gens[i]``."""
    space = gens[0].space
    return tuple(
        tuple(
            sum((w * g.mass[xi][yi] for w, g in zip(mixture, gens)), ZERO)
            for yi in range(space.ny)
        )
        for xi in range(space.nx)
    )


def expected_loss(g: JointDistribution, rule: DecisionRule, loss: LossFunction) -> Fraction:
    total = ZERO
    for xi in range(g.space.nx):
        row = g.mass[xi]
        weights = rule.per_x[xi].weights
        for yi, mass in enumerate(row):
            if mass != 0:
                total += mass * sum(
                    (w * loss.table[yi][ai] for ai, w in enumerate(weights)), ZERO
                )
    return total


def worst_case_loss(p: CredalSet, rule: DecisionRule, loss: LossFunction):
    """Max expected loss over the generators, with the first witness index.

    For a convex set the maximum over the hull is attained at a
    generator, so scanning the generator list is exact either way.
    """
    best = None
    witness = None
    for i, g in enumerate(p.generators):
        v = expected_loss(g, rule, loss)
        if best is None or v > best:
            best, witness = v, i
    return best, witness


def worst_case_posterior_loss(
    p: CredalSet, rule: DecisionRule, loss: LossFunction, x
) -> Fraction:
    """Worst expected loss of ``rule`` under the conditioned set at ``x``.

    Zero when no generator gives ``x`` positive probability; such
    signals carry no posterior risk.
    """
    xi = p.space.x_index(x)
    losses = action_loss(loss, rule.per_x[xi].weights)
    best = None
    for g in p.generators:
        px = sum(g.mass[xi], ZERO)
        if px == 0:
            continue
        v = sum((g.mass[xi][yi] * losses[yi] for yi in range(p.space.ny)), ZERO) / px
        if best is None or v > best:
            best = v
    return ZERO if best is None else best


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
    return [
        [c for xi in live_idx for c in _action_losses(dp.loss, g.mass[xi])]
        for g in dp.credal.generators
    ]


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
    space = dp.space
    live = support_x(dp.credal)
    live_idx = [space.x_index(x) for x in live]
    widths = [space.na] * len(live_idx)
    rows = _generator_coefficients(dp, live_idx)
    value, w, mixture = block_game(rows, widths)
    aggregate = JointDistribution(
        space=space, mass=_mixed_mass(dp.credal.generators, mixture)
    )

    if face:
        vertices = _face_rules(space, live_idx, block_game_face(rows, widths, value))
        if not vertices:
            raise SolverError("optimal face came back empty")
        rule = vertices[0]
    else:
        vertices = None
        rule = _block_rule(space, live_idx, w)
    solution = MinimaxSolution(
        value=value,
        rule=rule,
        bookie_mixture=mixture,
        aggregate=aggregate,
        optimal_rule_vertices=vertices,
        unconstrained_x=tuple(x for x in space.x_labels if x not in live),
    )
    report = verify_saddle(dp, mixture, rule)
    if not report.holds:
        raise SolverError("saddle check failed: %s" % (report.failing,))
    return solution


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
        rows = [_action_losses(dp.loss, q) for q in proj.generators]
        value, _w, mixture = block_game(rows, widths)
        verts = block_game_face(rows, widths, value)
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
    gens = dp.credal.generators
    mixture = tuple(rat(w) for w in mixture)
    if len(mixture) != len(gens):
        raise ValueError("mixture length != number of generators")
    if any(w < 0 for w in mixture) or sum(mixture, ZERO) != 1:
        raise ValueError("mixture must be a probability vector")

    per_gen = [expected_loss(g, rule, dp.loss) for g in gens]
    value = sum((w * v for w, v in zip(mixture, per_gen)), ZERO)

    agent_best = sum(
        (min(_action_losses(dp.loss, row)) for row in _mixed_mass(gens, mixture)),
        ZERO,
    )

    bookie_best = max(per_gen)

    failing = []
    if value != agent_best:
        failing.append("agent-deviation")
    if value != bookie_best:
        failing.append("bookie-deviation")
    if any(mixture[i] > 0 and per_gen[i] != bookie_best for i in range(len(gens))):
        failing.append("support-not-tight")
    return SaddleReport(
        holds=not failing,
        value=value,
        agent_best_response=agent_best,
        bookie_best_response=bookie_best,
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


def solve_ignoring(dp: DecisionProblem, prior: MinimaxSolution | None = None) -> IgnoringSolution:
    """Prior game restricted to constant rules (ties every signal to one
    randomized action) and comparison against the unrestricted game."""
    space = dp.space
    widths = [space.na]
    # constant-rule game: min t, per generator E[L_gamma] <= t over gamma
    rows = [_action_losses(dp.loss, g.y_marginal()) for g in dp.credal.generators]
    value, _gamma, mixture = block_game(rows, widths)

    marginal_rows = [_action_losses(dp.loss, q) for q in marginal_y(dp.credal).generators]
    marginal_value, _gamma, _mix = block_game(marginal_rows, widths)
    if marginal_value != value:
        raise SolverError("marginal game disagrees with constant-rule LP")

    action_vertices = tuple(
        RandomizedAction(v) for v in block_game_face(rows, widths, value)
    )
    if not action_vertices:
        raise SolverError("constant-rule face came back empty")
    rule = rule_from_weights(space, [action_vertices[0].weights] * space.nx)

    if prior is None:
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
