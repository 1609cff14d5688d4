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

Every loss of a rule is read from the prior game's own rows,
:func:`_loss_rows`: generator i's expected loss of action a at signal x,
in integers over a positive denominator, over every signal (the game
takes their live-signal slice).  A rule's expected loss and worst prior
loss (M_delta) are dot products of these rows with its weights, its
worst posterior loss m_delta(x) the same at x over each generator's mass
there.  The saddle check of :func:`verify_saddle` reads the same rows
through the two checks :func:`credal.linprog.block_game` makes: the
worst row under the rule and the best reply to the bookie's mixture.
Each comparison is the ``Fraction`` comparison cross-multiplied by
positive denominators, and every value returned is a ``Fraction``.  One
solve builds its rows once, for the game, the face and each saddle
check.

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
from .linprog import (
    SizeLimitError,
    _best_reply,
    _worst_row,
    block_game,
    optimal_face_vertices,
)
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


def _action_losses(loss: LossFunction, qs):
    """One game row per ``q`` in ``qs``, (unnormalised) Y-vectors laid end to
    end: each action's expected loss under each, as integers over a
    denominator reduced by their gcd, so as :func:`common_denominator` of
    the row's values."""
    table, ld = common_denominator([v for row in loss.table for v in row])
    na, ny = loss.space.na, loss.space.ny
    columns = [table[a::na] for a in range(na)]  # each action's loss per outcome
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


def _loss_rows(gens, loss: LossFunction):
    """One row per generator, the prior game's own: its expected loss of each
    (signal, action) weight, signal-major, over every signal
    (:func:`_action_losses` of its flattened mass).  A signal that no
    generator reaches is 0 in every row.  Every loss of a rule is read from
    these rows."""
    return _action_losses(loss, [g.flatten() for g in gens])


def _signal_rows(rows, na):
    """Per signal index, each row's slice there: one loss per action."""
    n = len(rows[0][0])
    return [[(r[k : k + na], d) for r, d in rows] for k in range(0, n, na)]


def _posterior_rows(gens, signal_rows, xi):
    """The :func:`_signal_rows` at ``xi`` of the generators that give ``xi``
    mass, each over that mass too, and the masses' denominator ``pd``: such
    a row's value under an action, times ``pd``, is the generator's
    posterior loss of it at ``xi``."""
    ps, pd = common_denominator([sum(g.mass[xi], ZERO) for g in gens])
    return [(r, d * p) for (r, d), p in zip(signal_rows[xi], ps) if p], pd


def _worst(rows, weights):
    """The largest value of ``rows`` under ``weights``, and its first row."""
    vals, den, i = _worst_row(rows, weights)
    return Fraction(vals[i], den), i


def _posterior_worst(posterior, weights) -> Fraction:
    """m_delta(x) from the :func:`_posterior_rows` at x and the rule's action
    there; 0 when no generator gives x mass."""
    rows, pd = posterior
    if not rows:
        return ZERO
    vals, den, i = _worst_row(rows, weights)
    return Fraction(vals[i] * pd, den)


def _rule_risks(dp: DecisionProblem, rows, rules):
    """M_delta and the m_delta(x) at every support signal of each of
    ``rules``, read from the :func:`_loss_rows` ``rows``."""
    gens, space = dp.credal.generators, dp.space
    signal_rows = _signal_rows(rows, space.na)
    posterior = [
        (xi, _posterior_rows(gens, signal_rows, xi))
        for xi in map(space.x_index, support_x(dp.credal))
    ]
    for rule in rules:
        yield _worst(rows, rule.flatten())[0], tuple(
            _posterior_worst(post, rule.per_x[xi].weights) for xi, post in posterior
        )


def _mixed_mass(gens, mixture):
    """Flattened mass of the joint ``sum_i mixture[i] * gens[i]``, as integers
    over one positive denominator."""
    ms, md = common_denominator([v for g in gens for v in g.flatten()])
    qs, qd = common_denominator(mixture)
    n = len(ms) // len(gens)
    return [sum(map(mul, qs, ms[j::n])) for j in range(n)], qd * md


def expected_loss(g: JointDistribution, rule: DecisionRule, loss: LossFunction) -> Fraction:
    return _worst(_loss_rows((g,), loss), rule.flatten())[0]


def worst_case_loss(p: CredalSet, rule: DecisionRule, loss: LossFunction):
    """Max expected loss over the generators, with the first witness index.

    For a convex set the maximum over the hull is attained at a
    generator, so scanning the generator list is exact either way.
    """
    return _worst(_loss_rows(p.generators, loss), rule.flatten())


def worst_case_posterior_loss(
    p: CredalSet, rule: DecisionRule, loss: LossFunction, x
) -> Fraction:
    """Worst expected loss of ``rule`` under the conditioned set at ``x``.

    Zero when no generator gives ``x`` positive probability; such
    signals carry no posterior risk.
    """
    xi = p.space.x_index(x)
    rows = _signal_rows(_loss_rows(p.generators, loss), p.space.na)
    return _posterior_worst(_posterior_rows(p.generators, rows, xi), rule.per_x[xi].weights)


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
    """The prior game's LP data: the :func:`_loss_rows` over every signal,
    the live signal indices, the rows' slice at those signals and the block
    widths.  A dead signal is 0 in every row, so each slice is the reduced
    pair its row's live entries give."""
    space = dp.space
    na = space.na
    rows = _loss_rows(dp.credal.generators, dp.loss)
    live_idx = [space.x_index(x) for x in support_x(dp.credal)]
    cols = [xi * na + a for xi in live_idx for a in range(na)]
    game = [(tuple([r[j] for j in cols]), d) for r, d in rows]
    return rows, live_idx, game, [na] * len(live_idx)


def _prior_game(dp: DecisionProblem):
    """The prior game solved without its face and not yet checked.

    Returns the solution and the LP data of :func:`_prior_rows`, so that
    the face and the saddle checks of one solve reuse them.
    """
    space = dp.space
    game = _prior_rows(dp)
    _rows, live_idx, rows, widths = game
    value, w, mixture = block_game(rows, widths)
    mass, den = _mixed_mass(dp.credal.generators, mixture)
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
    return solution, game


def _checked(solution: MinimaxSolution, rows) -> MinimaxSolution:
    """``solution``, once :func:`verify_saddle` holds for its rule and bookie
    mixture over the :func:`_loss_rows` ``rows``."""
    report = _saddle_report(rows, solution.rule, solution.bookie_mixture)
    if not report.holds:
        raise SolverError("saddle check failed: %s" % (report.failing,))
    return solution


def _with_face(dp: DecisionProblem, solution: MinimaxSolution, game) -> MinimaxSolution:
    """``solution`` with its optimal face enumerated from the
    :func:`_prior_rows` ``game``, not yet checked."""
    _rows, live_idx, rows, widths = game
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
    solution, game = _prior_game(dp)
    if face:
        solution = _with_face(dp, solution, game)
    return _checked(solution, game[0])


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
    gens = dp.credal.generators
    mixture = tuple(rat(w) for w in mixture)
    if len(mixture) != len(gens):
        raise ValueError("mixture length != number of generators")
    qs, qd = common_denominator(mixture)
    if any(q < 0 for q in qs) or sum(qs) != qd:
        raise ValueError("mixture must be a probability vector")
    return _saddle_report(_loss_rows(gens, dp.loss), rule, mixture)


def _saddle_report(rows, rule: DecisionRule, mixture) -> SaddleReport:
    """:func:`verify_saddle` of ``rule`` against the probability vector
    ``mixture``, over the :func:`_loss_rows` ``rows``: the bookie's best
    response is the worst row under the rule and the agent's the best reply
    to the mixture, the two checks of :func:`credal.linprog.block_game`."""
    vals, den, worst = _worst_row(rows, rule.flatten())
    qs, qd = common_denominator(mixture)
    value = Fraction(sum(map(mul, qs, vals)), qd * den)
    bookie_best = Fraction(vals[worst], den)
    agent_best = _best_reply(rows, [rule.space.na] * rule.space.nx, mixture)[0]
    failing = []
    if value != agent_best:
        failing.append("agent-deviation")
    if value != bookie_best:
        failing.append("bookie-deviation")
    if any(q > 0 and v != vals[worst] for q, v in zip(qs, vals)):
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
    rows = _loss_rows(dp.credal.generators, dp.loss)
    best = None
    for combo in itertools.product(menu, repeat=len(live)):
        weights = []
        for xi in range(space.nx):
            weights += combo[live.index(xi)] if xi in live else uniform
        wc, _w = _worst(rows, weights)
        if best is None or wc < best:
            best = wc
    slack = Fraction(na) * dp.loss.spread() / grid
    return best - slack, best
