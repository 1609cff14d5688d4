"""Minimax-optimal decision rules against a credal set.

Two games are solved exactly:

* the prior game: pick a randomized rule before seeing the signal,
  against an adversary choosing the joint distribution from the credal
  set (an LP over rule space; the adversary's optimal mixture comes out
  of the dual prices);
* the posterior game: after observing ``x``, pick a randomized action
  against the conditioned outcome distributions (the distinct
  conditioned points at ``x`` as listed; one small matrix game per
  signal value).

Both games, and the constant-rule game of :func:`solve_ignoring`, are
one LP shape: minimise the worst of finitely many linear losses over a
product of simplices.  :func:`credal.linprog.block_game` builds and
checks that LP.  When its final tableau certifies the optimum unique,
that point is the whole optimal face; otherwise
:func:`credal.linprog.optimal_face_vertices` enumerates the face from
rows, widths and value, over the columns that the verified bookie
mixture leaves at zero reduced cost.  The prior game's face reads all
its rows, one per generator.  The two event games (the posterior game
at a signal and the constant-rule game on the whole signal set) read
their event's conditioned points as listed, as every maximum does
(:mod:`credal.core`), and one owner, :func:`_event_face`, reads the
event's pruned set for an uncertified face alone.  Each game is solved
and checked once per :class:`~credal.core.DecisionProblem` and kept on
it: the prior LP, the prior game with its face (from the kept LP), the
posterior games and the constant-rule game.  A refusal keeps nothing.

The games' rows are kept on the problem too, built on first use and
scaled to integers over a positive denominator once, and every loss of
a rule is read from them.  ``dp.loss_rows`` are the prior game's:
generator i's expected loss of action a at live signal x, in the column
layout that ``dp`` owns (``dp.widths``, ``dp.columns``,
``dp.column_rule``).  A rule's worst prior loss (M_delta) is their worst
dot product with its columns.  ``dp.posterior_rows[x]`` are the
posterior game's at x, one per distinct conditioned point at x in
generator order, and the rule's worst posterior loss m_delta(x) is the
worst of them under its action at x.  The one saddle check,
:func:`credal.linprog._saddle`, is made by ``block_game`` on every game
it solves and by :func:`verify_saddle` on the prior rows, which a face
solve runs on its reported vertex.  Each comparison is the
``Fraction`` comparison cross-multiplied by positive denominators; every
value is a ``Fraction``.

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
    _action_losses,
    marginal_y,
    rule_from_weights,
    uniform_action,
)
from .linprog import (
    InternalCheckError,
    _saddle,
    _worst_row,
    block_game,
    optimal_face_vertices,
    refuse_above,
)
from .polytope import VPolytope
from .rationals import common_denominator, lowest, rat

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

# Most row evaluations :func:`brute_force_value` makes, its rules times the
# prior game's rows.  On seeded games files at the limit it took 0.4-0.9 s
# over two live signals (1-12 generators) and 2.6 s over one live signal with
# three actions, where each rule is built alone (2-core x86-64, Python 3.11).
BRUTE_FORCE_LIMIT = 10**6


# ---------------------------------------------------------------------------
# loss evaluation primitives


def _worst(rows, weights):
    """The largest value of ``rows`` under ``weights``, and its first row."""
    vals, den, i = _worst_row(rows, common_denominator(weights))
    return Fraction(vals[i], den), i


def _rule_risks(dp: DecisionProblem, rules):
    """M_delta and the m_delta(x) at every live signal of each of ``rules``,
    read from ``dp.loss_rows`` and ``dp.posterior_rows``."""
    live, posterior = dp.credal.live, dp.posterior_rows
    for rule in rules:
        yield _worst(dp.loss_rows, dp.columns(rule))[0], tuple(
            _worst(posterior[xi], rule.per_x[xi].weights)[0] for xi in live
        )


def _mixed_mass(gens, mixture):
    """The joint ``sum_i mixture[i] * gens[i]``, as its lowest-terms pair."""
    md = math.lcm(*[g.pair[1] for g in gens])
    qs, qd = common_denominator(mixture)
    ws = [q * (md // g.pair[1]) for q, g in zip(qs, gens)]
    return lowest([sum(map(mul, ws, col)) for col in zip(*[g.pair[0] for g in gens])], qd * md)


def expected_loss(g: JointDistribution, rule: DecisionRule, loss: LossFunction) -> Fraction:
    return _worst(_action_losses(loss, [g.pair]), rule.flatten())[0]


def worst_case_loss(p: CredalSet, rule: DecisionRule, loss: LossFunction):
    """Max expected loss over the generators, with the first witness index.

    For a convex set the maximum over the hull is attained at a
    generator, so scanning the generator list is exact either way.
    """
    dp = DecisionProblem(p, loss)
    return _worst(dp.loss_rows, dp.columns(rule))


def worst_case_posterior_loss(
    p: CredalSet, rule: DecisionRule, loss: LossFunction, x
) -> Fraction:
    """Worst expected loss of ``rule`` under the conditioned set at ``x``:
    the worst over its conditioned points as listed, in rows built for
    ``x`` alone.

    Zero when no generator gives ``x`` positive probability; such
    signals carry no posterior risk.
    """
    xi = p.space.x_index(x)
    points = p._events.points(p, 1 << xi)
    if not points:
        return ZERO
    return _worst(_action_losses(loss, points), rule.per_x[xi].weights)[0]


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


def solve_a_priori(dp: DecisionProblem, face: bool = True) -> MinimaxSolution:
    """Exact equilibrium of the prior game, solved once per problem.

    LP (:func:`credal.linprog.block_game`, one simplex block per support
    signal): minimize t subject to, for every generator, the expected
    loss of the rule being at most t.  The dual prices of the generator
    rows give the adversary's mixture; ``block_game`` checks the saddle
    point, and the face's reported vertex is checked with
    :func:`verify_saddle`.

    ``face=False`` skips the vertex enumeration of the optimal face (the
    expensive part); the reported rule is then the one the simplex
    landed on rather than the lexicographically smallest vertex.  The
    face is the kept LP solution's point when its tableau certified it
    unique, and is enumerated from it otherwise; each checked answer is
    kept on ``dp``, and a refused face keeps nothing.
    """
    games, key = dp._games, "prior face" if face else "prior"
    if key in games:
        return games[key]
    if face:
        lp = solve_a_priori(dp, face=False)
        if games["prior certified"]:
            vertices = (lp.rule,)
        else:
            verts = optimal_face_vertices(dp.loss_rows, dp.widths, lp.value, lp.bookie_mixture)
            # sorted as the vertices are: every rule has the same uniform dead blocks
            vertices = tuple(map(dp.column_rule, verts))
        report = verify_saddle(dp, lp.bookie_mixture, vertices[0])
        if not report.holds:
            raise InternalCheckError("saddle check failed: %s" % (report.failing,))
        solution = replace(lp, rule=vertices[0], optimal_rule_vertices=vertices)
    else:
        value, w, mixture, games["prior certified"] = block_game(dp.loss_rows, dp.widths)
        space, live = dp.space, dp.credal.live
        solution = MinimaxSolution(
            value=value,
            rule=dp.column_rule(w),
            bookie_mixture=mixture,
            aggregate=JointDistribution(space, _mixed_mass(dp.credal.generators, mixture)),
            optimal_rule_vertices=None,
            unconstrained_x=tuple(x for xi, x in enumerate(space.x_labels) if xi not in live),
        )
    games[key] = solution
    return solution


# ---------------------------------------------------------------------------
# posterior game


def _event_face(p: CredalSet, mask: int, rows, widths, game):
    """The optimal face, as actions, of a game whose ``rows`` are one per
    conditioned point of the event ``mask`` as listed; ``game`` is
    :func:`block_game`'s answer on them.  A certified optimum is its own
    face.  Otherwise the face is enumerated with the game's own prices,
    over the rows they weight, so they still certify the value, and the
    rows of the event's pruned points: a row is linear in its point, so
    those rows bound the same face as all of them."""
    value, w, prices, unique = game
    if unique:
        return (RandomizedAction(w),)
    kept = set(p._events.posterior(p, mask).points)
    keep = [q > 0 or pt in kept for q, pt in zip(prices, p._events.points(p, mask))]
    rows, prices = (list(itertools.compress(seq, keep)) for seq in (rows, prices))
    return tuple(map(RandomizedAction, optimal_face_vertices(rows, widths, value, prices)))


@dataclass(frozen=True)
class PosteriorPoint:
    """The posterior game at the signal ``x``.  ``projection`` is the
    conditioned set at ``x`` as listed: its distinct points in generator
    order, the same set as ``posterior_y(p, (x,))``.  ``bookie_mixture``
    weights those points."""

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
    conditioned outcome distributions.  Solved once per problem: the
    answer is kept on ``dp``."""
    games, p = dp._games, dp.credal
    if "posterior" in games:
        return games["posterior"]
    widths = [dp.space.na]
    points = []
    for xi in p.live:
        rows = dp.posterior_rows[xi]
        value, _, mixture, _ = game = block_game(rows, widths)
        points.append(
            PosteriorPoint(
                x=dp.space.x_labels[xi],
                value=value,
                action_vertices=_event_face(p, 1 << xi, rows, widths, game),
                bookie_mixture=mixture,
                projection=VPolytope(dp.space.ny, p._events.points(p, 1 << xi), p.convex),
            )
        )
    games["posterior"] = PosteriorSolution(per_x=tuple(points))
    return games["posterior"]


# ---------------------------------------------------------------------------
# saddle verification


@dataclass(frozen=True)
class SaddleReport:
    """Exact three-clause equilibrium check (:func:`credal.linprog._saddle`).

    ``value``: mixture-averaged expected loss of the rule.  Clauses: the
    agent cannot improve against the aggregate; the bookie cannot improve
    against the rule; every generator in the mixture's support attains the
    bookie's maximum.
    """

    holds: bool
    value: Fraction
    agent_best_response: Fraction
    bookie_best_response: Fraction
    failing: tuple[str, ...]


def verify_saddle(dp: DecisionProblem, mixture, rule: DecisionRule) -> SaddleReport:
    mixture = tuple(rat(w) for w in mixture)
    if len(mixture) != len(dp.credal.generators):
        raise ValueError("mixture length != number of generators")
    prices = qs, qd = common_denominator(mixture)
    if any(q < 0 for q in qs) or sum(qs) != qd:
        raise ValueError("mixture must be a probability vector")
    # a dead signal adds 0 to every loss
    weights = common_denominator(dp.columns(rule))
    *replies, failing = _saddle(dp.loss_rows, dp.widths, weights, prices)
    return SaddleReport(not failing, *replies, failing)


# ---------------------------------------------------------------------------
# signal-blind play


@dataclass(frozen=True)
class IgnoringSolution:
    """Best constant rule, with the marginal-game cross-check.

    The optimal constant rule's worst case depends on the joint set only
    through its Y-marginals; ``bookie_mixture`` weights the distinct
    Y-marginals of the generators, in generator order.
    ``marginal_game_value`` re-derives the value from the pruned marginal
    polytope and must agree exactly.
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
    randomized action) and comparison against the unrestricted game.
    Solved once per problem: the answer is kept on ``dp``."""
    games = dp._games
    if "ignoring" in games:
        return games["ignoring"]
    space, p = dp.space, dp.credal
    widths, signals = [space.na], (1 << space.nx) - 1
    # constant-rule game: min t, per distinct Y-marginal E[L_gamma] <= t over gamma
    rows = _action_losses(dp.loss, p._events.points(p, signals))
    value, _, mixture, _ = game = block_game(rows, widths)

    marginal_rows = _action_losses(dp.loss, marginal_y(p).points)
    marginal_value = block_game(marginal_rows, widths)[0]
    if marginal_value != value:
        raise InternalCheckError("marginal game disagrees with constant-rule LP")

    action_vertices = _event_face(p, signals, rows, widths, game)
    rule = rule_from_weights(space, [action_vertices[0].weights] * space.nx)

    prior = solve_a_priori(dp, face=False)
    games["ignoring"] = IgnoringSolution(
        value=value,
        rule=rule,
        action_vertices=action_vertices,
        bookie_mixture=mixture,
        marginal_game_value=marginal_value,
        a_priori_value=prior.value,
        matches_a_priori=value == prior.value,
    )
    return games["ignoring"]


# ---------------------------------------------------------------------------
# grid oracle


def brute_force_value(dp: DecisionProblem, grid: int):
    """Sandwich the prior-game value between grid bounds.

    ``upper``: best worst-case loss over all rules whose action weights
    are multiples of 1/grid.  ``lower``: upper minus the rounding slack
    ``|A| * spread(loss) / grid``.  Deliberately independent of the LP
    machinery: rules are integer compositions over ``grid``, dotted with
    ``dp.loss_rows`` over one denominator, and one ``Fraction`` is built,
    for the best rule.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    na = dp.space.na
    # grid points of one simplex of actions, to the power of the live signals
    count = math.comb(grid + na - 1, na - 1) ** len(dp.widths)
    rows = len(dp.loss_rows)
    detail = "%d rules x %d rows" % (count, rows)
    refuse_above(BRUTE_FORCE_LIMIT, count * rows, "grid search", "row evaluations", detail)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    # rows over one denominator lcm; a rule's weights are integer
    # compositions over grid, so each row's loss is an int over lcm * grid
    lcm = math.lcm(*[d for _, d in dp.loss_rows])
    comps = list(compositions(grid, na))
    shares = []  # per live signal and composition, its share of each row's loss
    for blocks in dp.loss_blocks:
        blocks = [[v * (lcm // d) for v in b] for b, d in blocks]
        shares.append(list(zip(*[[sum(map(mul, b, c)) for c in comps] for b in blocks])))
    best = Fraction(
        min(max(map(sum, zip(*combo))) for combo in itertools.product(*shares)), lcm * grid
    )
    slack = Fraction(na) * dp.loss.spread() / grid
    return best - slack, best
