"""Decision problems under credal uncertainty.

The model: a finite signal variable X is observed, a finite outcome
variable Y is bet on, and uncertainty about the joint distribution of
(X, Y) is a finitely generated set of joint distributions (a credal
set).  ``convex=True`` reads the generator list as its convex hull,
``convex=False`` as the bare finite set.

Conditioning is generator-wise, which is exact for both readings:
conditioning a convex hull on an event equals the convex hull of the
conditioned generators (the mixture weights renormalize), and a finite
set conditions pointwise.

Each credal set keeps one table of its signal events (:class:`_Events`,
keyed by bitmask alone), the one place a set is conditioned, each event
once, in any label order, and projected to Y in the same step, so no
polytope is built over the joint space.  The table holds two forms of an
event: its distinct conditioned points in generator order
(:meth:`_Events.points`), and their pruned set (:meth:`_Events.posterior`,
which :func:`posterior_y` returns; :func:`marginal_y` is it on the whole
signal set).  The rule for which to read is this one: a maximum reads
the points, as a hull reaches a maximum of linear functions at its
generators, and the pruned set is read only where its vertex list is the
answer.  So the games (the posterior game at each signal and the
constant-rule game of :func:`credal.minimax.solve_ignoring`), the
dilation intervals, the witness replay
(:func:`credal.minimax.worst_case_posterior_loss`) and the
rectangularity swaps, which are linear in the point, read the points,
and no game value, game row, m_delta(x) or rectangularity verdict
depends on pruning.  :func:`hull`, the calibration ids and an optimal
face of an event game that its tableau does not certify read the pruned
set.

The table also names each pruned set with an id and keeps their
inclusions, for every caller.  :attr:`CredalSet.live` lists the signals
some generator reaches and :attr:`CredalSet.conditionals` holds
``posterior_y`` at each signal.

A point is identified by its lowest-terms integer pair from the problem
file's text to the pruned Y-set: the parser reads each joint's mass
straight into that pair, a joint stores its mass as that pair, checked
once when the joint is built (:func:`joint` is the one entry that takes
rationals), and builds its ``Fraction`` rows only when they are read; a
credal set drops repeated joints by those pairs, and each conditioned
point's pair is built from the joint's integers with one gcd for its
polytope, which stores pairs and builds no ``Fraction`` until its
generators are read.  The dilation intervals, each rectangularity swap,
each game row, each conditioned joint, each :func:`hull` product and the
bookie's aggregate are built from the same integers, and a swap is asked
of the joint set as its pair.

A :class:`DecisionProblem` keeps the prior game's loss rows and, per
live signal, the posterior game's rows over the conditioned points
(:func:`_action_losses`), from which every loss of a rule is read, and
each game :mod:`credal.minimax` solves on it, solved and checked once.
It owns the prior game's column layout, one action simplex per live
signal in order (:attr:`DecisionProblem.widths` and the methods beside
it).  :func:`condition` keeps the conditioned joint set for callers that
need it; :func:`marginal_y` of it is ``posterior_y(p, cell)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .linprog import refuse_above
from .polytope import VPolytope, _member, prune, subset
from .rationals import common_denominator, lowest, rat, rat_matrix, rat_seq

__all__ = [
    "ProblemSpace",
    "JointDistribution",
    "CredalSet",
    "LossFunction",
    "DecisionProblem",
    "RandomizedAction",
    "DecisionRule",
    "Partition",
    "UndefinedConditionalError",
    "credal_set",
    "joint",
    "joint_polytope",
    "marginal_y",
    "posterior_y",
    "condition",
    "c_condition",
    "hull",
    "HULL_PRODUCT_LIMIT",
    "DILATION_EVENT_LIMIT",
    "is_rectangular",
    "is_conservative",
    "support_x",
    "dilation_report",
    "DilationReport",
    "DilationRow",
]

ZERO = Fraction(0)
ONE = Fraction(1)

# Most products :func:`hull` builds; it guards only the ``hull`` command
# and the ``hull_member`` corpus op, as :func:`is_rectangular` builds
# none.  Building and printing them is linear in the products times the
# joint coordinates: ``credal hull`` took 0.4-0.7 s end to end on 10,000
# products over 3 signals and 2 outcomes, 0.9-1.4 s on 8,192 over
# 12 signals and 2 outcomes, and 0.8-1.1 s on 6,561 over 7 signals and
# 5 outcomes (shared 2-core x86-64, Python 3.11).
HULL_PRODUCT_LIMIT = 10_000

# Most intervals :func:`dilation_report` builds, (2^ny - 2) * (1 + live signals):
# ``credal check dilation`` took 1.5-2.3 s end to end on 98,298 (2 signals, 15
# outcomes, 3-12 generators), 2.5-3.0 s on 196,602 (16 outcomes; shared 2-core x86-64).
DILATION_EVENT_LIMIT = 100_000


class UndefinedConditionalError(Exception):
    """Conditioning event has probability zero under every generator."""


class ConvexityError(Exception):
    """Operation is only supported for convex credal sets."""


def _check_labels(labels, what):
    labels = tuple(str(v) for v in labels)
    if not labels:
        raise ValueError("%s must be nonempty" % what)
    if len(set(labels)) != len(labels):
        raise ValueError("%s must be distinct" % what)
    return labels


@dataclass(frozen=True)
class ProblemSpace:
    """Finite label sets for signals, outcomes and actions."""

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    actions: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "x_labels", _check_labels(self.x_labels, "x labels"))
        object.__setattr__(self, "y_labels", _check_labels(self.y_labels, "y labels"))
        object.__setattr__(self, "actions", _check_labels(self.actions, "actions"))
        if len(self.actions) < 2:
            raise ValueError("a decision problem needs at least two actions")

    @property
    def nx(self):
        return len(self.x_labels)

    @property
    def ny(self):
        return len(self.y_labels)

    @property
    def na(self):
        return len(self.actions)

    def x_index(self, label) -> int:
        return _index(self.x_labels, label, "signal")

    def a_index(self, label) -> int:
        return _index(self.actions, label, "action")


def _index(labels, label, what) -> int:
    try:
        return labels.index(str(label))
    except ValueError:
        raise ValueError("unknown %s label %r" % (what, str(label))) from None


@dataclass(frozen=True)
class JointDistribution:
    """Exact joint probability mass over X times Y, stored as ``pair``: the
    x-major flattened mass in lowest terms, integer numerators over one
    positive denominator.  :func:`joint` is the one entry that takes
    rationals; :attr:`mass` builds the ``Fraction`` rows when read."""

    space: ProblemSpace
    pair: tuple[tuple[int, ...], int]

    def __post_init__(self):
        nums, den = self.pair
        if len(nums) != self.space.nx * self.space.ny:
            raise ValueError("mass length != number of x labels times y labels")
        if den < 1 or math.gcd(den, *nums) != 1:
            raise ValueError("mass not in lowest terms over a positive denominator")
        if any(v < 0 for v in nums):
            raise ValueError("negative probability mass")
        if sum(nums) != den:
            raise ValueError("mass must sum to exactly 1, got %s" % Fraction(sum(nums), den))

    @cached_property
    def _int_mass(self) -> tuple[tuple[int, ...], ...]:
        """The mass rows as integer numerators over ``pair``'s denominator."""
        nums, ny = self.pair[0], self.space.ny
        return tuple(nums[i : i + ny] for i in range(0, len(nums), ny))

    @cached_property
    def mass(self) -> tuple[tuple[Fraction, ...], ...]:
        """The mass rows as ``Fraction`` tuples, built on first read."""
        den = self.pair[1]
        return tuple(tuple([Fraction(v, den) for v in row]) for row in self._int_mass)

    def x_marginal(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, ZERO) for row in self.mass)

    def y_marginal(self) -> tuple[Fraction, ...]:
        return tuple(
            sum((self.mass[i][j] for i in range(self.space.nx)), ZERO)
            for j in range(self.space.ny)
        )

    def conditional_y(self, xi: int) -> tuple[Fraction, ...] | None:
        """Conditional distribution of Y given X = x, None on zero mass."""
        px = sum(self.mass[xi], ZERO)
        if px == 0:
            return None
        return tuple(v / px for v in self.mass[xi])

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(v for row in self.mass for v in row)


def joint(space: ProblemSpace, mass) -> JointDistribution:
    """The joint with the mass rows ``mass`` (rationals, x-major)."""
    mass = rat_matrix(mass)
    if len(mass) != space.nx:
        raise ValueError("mass needs one row per x label")
    # rows before the first of the wrong length, checked in integers
    bad = next((i for i, row in enumerate(mass) if len(row) != space.ny), None)
    nums, den = common_denominator([v for row in mass[:bad] for v in row])
    if any(v < 0 for v in nums):
        raise ValueError("negative probability mass")
    if bad is not None:
        raise ValueError("mass row length != number of y labels")
    return JointDistribution(space, (nums, den))


@dataclass(frozen=True)
class CredalSet:
    """Finitely generated set of joint distributions on a shared space."""

    space: ProblemSpace
    generators: tuple[JointDistribution, ...]
    convex: bool

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a credal set needs at least one generator")
        for g in self.generators:
            if g.space != self.space:
                raise ValueError("generator on a different space")
        # drop repeated generators by their pairs, keeping the first of each in order
        first = {}
        for g in self.generators:
            first.setdefault(g.pair, g)
        object.__setattr__(self, "generators", tuple(first.values()))

    @cached_property
    def live(self) -> tuple[int, ...]:
        """Indices of the signals that some generator gives positive mass."""
        return tuple(
            i for i in range(self.space.nx) if any(any(g._int_mass[i]) for g in self.generators)
        )

    @cached_property
    def _events(self) -> _Events:
        """The table of this set's signal events, built on first use."""
        return _Events()

    @cached_property
    def conditionals(self) -> tuple[VPolytope | None, ...]:
        """Per signal, :func:`posterior_y` at that signal alone, or None
        where no generator reaches it."""
        return tuple(self._events.posterior(self, 1 << i) for i in range(self.space.nx))

    @cached_property
    def _rectangular(self) -> bool:
        """:func:`is_rectangular`, decided on first use."""
        target, ny = joint_polytope(self), self.space.ny
        for g in self.generators:
            nums, den = g.pair
            for i, px in enumerate(map(sum, g._int_mass)):
                if px == 0:
                    continue
                for rn, rd in self._events.points(self, 1 << i):
                    swap = [v * rd for v in nums]
                    swap[i * ny : (i + 1) * ny] = [px * v for v in rn]
                    if not _member(lowest(swap, den * rd), target):
                        return False
        return True


def credal_set(space, masses, convex) -> CredalSet:
    return CredalSet(
        space=space,
        generators=tuple(joint(space, m) for m in masses),
        convex=convex,
    )


@dataclass(frozen=True)
class LossFunction:
    """Loss of action a when outcome is y; losses may be negative."""

    space: ProblemSpace
    table: tuple[tuple[Fraction, ...], ...]  # rows: y, columns: a

    def __post_init__(self):
        if len(self.table) != self.space.ny:
            raise ValueError("loss table needs one row per y label")
        for row in self.table:
            if len(row) != self.space.na:
                raise ValueError("loss row length != number of actions")
        # the table, y-major, as integers over one positive denominator
        object.__setattr__(self, "_pair", common_denominator([v for r in self.table for v in r]))

    def spread(self) -> Fraction:
        vals = [v for row in self.table for v in row]
        return max(vals) - min(vals)


def _action_losses(loss: LossFunction, pairs):
    """One game row per ``(nums, qd)`` in ``pairs``, (unnormalised) Y-vectors
    laid end to end over a positive denominator: each action's expected
    loss under each, as integers over a denominator reduced by their gcd,
    so as :func:`common_denominator` of the row's values."""
    (table, ld), na, ny = loss._pair, loss.space.na, loss.space.ny
    columns = [table[a::na] for a in range(na)]  # each action's loss per outcome
    rows = []
    for nums, qd in pairs:
        row = [
            sum(map(mul, nums[k : k + ny], col))
            for k in range(0, len(nums), ny)
            for col in columns
        ]
        rows.append(lowest(row, qd * ld))
    return rows


def loss_function(space, table) -> LossFunction:
    return LossFunction(space=space, table=rat_matrix(table))


def classification_loss(space: ProblemSpace) -> LossFunction:
    """Zero-one loss; requires actions and outcomes to share labels."""
    table = [
        [ZERO if a == y else ONE for a in space.actions] for y in space.y_labels
    ]
    return LossFunction(space=space, table=tuple(tuple(r) for r in table))


@dataclass(frozen=True)
class DecisionProblem:
    credal: CredalSet
    loss: LossFunction

    def __post_init__(self):
        if self.credal.space != self.loss.space:
            raise ValueError("credal set and loss live on different spaces")

    @property
    def space(self) -> ProblemSpace:
        return self.credal.space

    @cached_property
    def _games(self) -> dict:
        """Each game :mod:`credal.minimax` solves on this problem, keyed by
        its name, kept once it is solved and checked."""
        return {}

    @cached_property
    def loss_rows(self):
        """The prior game's rows, one per generator: its expected loss of
        each (live signal, action) weight, signal-major
        (:func:`_action_losses` of its integer mass at the live signals)."""
        live, gens = self.credal.live, self.credal.generators
        pairs = [([v for i in live for v in g._int_mass[i]], g.pair[1]) for g in gens]
        return _action_losses(self.loss, pairs)

    @property
    def widths(self) -> list[int]:
        """The prior game's blocks: one simplex of actions per live signal."""
        return [self.space.na] * len(self.credal.live)

    def columns(self, rule: DecisionRule) -> list[Fraction]:
        """The prior game's column vector of ``rule``: its weights at the live
        signals, block by block."""
        return [w for xi in self.credal.live for w in rule.per_x[xi].weights]

    def column_rule(self, w) -> DecisionRule:
        """The rule playing block k of the column vector ``w`` at the k-th
        live signal, and the uniform action at the dead ones."""
        space, na = self.space, self.space.na
        per_x = [uniform_action(space)] * space.nx
        for k, xi in enumerate(self.credal.live):
            per_x[xi] = RandomizedAction(tuple(w[k * na : (k + 1) * na]))
        return DecisionRule(space=space, per_x=tuple(per_x))

    @cached_property
    def loss_blocks(self):
        """Per live signal, in order, each row of :attr:`loss_rows` cut to
        its block there, over the row's denominator."""
        na, rows = self.space.na, self.loss_rows
        return [[(r[k : k + na], d) for r, d in rows] for k in range(0, sum(self.widths), na)]

    @cached_property
    def posterior_rows(self):
        """Per signal, the posterior game's rows there, one per conditioned
        point as listed (:func:`_action_losses` of :meth:`_Events.points`),
        or None where no generator reaches the signal."""
        p = self.credal
        points = [p._events.points(p, 1 << i) for i in range(self.space.nx)]
        return tuple(_action_losses(self.loss, pts) if pts else None for pts in points)


@dataclass(frozen=True)
class RandomizedAction:
    """Probability weights over the action set."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", rat_seq(self.weights))
        nums, den = common_denominator(self.weights)
        if any(v < 0 for v in nums):
            raise ValueError("negative action weight")
        if sum(nums) != den:
            raise ValueError("action weights must sum to 1")

    def is_deterministic(self) -> bool:
        return all(w in (0, 1) for w in self.weights)


@dataclass(frozen=True)
class DecisionRule:
    """One randomized action per signal value, in x-label order."""

    space: ProblemSpace
    per_x: tuple[RandomizedAction, ...]

    def __post_init__(self):
        if len(self.per_x) != self.space.nx:
            raise ValueError("a rule needs one action per x label")
        for act in self.per_x:
            if len(act.weights) != self.space.na:
                raise ValueError("action weight length != number of actions")

    def is_deterministic(self) -> bool:
        return all(a.is_deterministic() for a in self.per_x)

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(w for a in self.per_x for w in a.weights)


def rule_from_weights(space, weights) -> DecisionRule:
    return DecisionRule(
        space=space, per_x=tuple(RandomizedAction(rat_seq(w)) for w in weights)
    )


def deterministic_rule(space, assignment) -> DecisionRule:
    """Rule from a mapping x label -> action label."""
    weights = []
    for x in space.x_labels:
        ai = space.a_index(assignment[x])
        weights.append(tuple(ONE if k == ai else ZERO for k in range(space.na)))
    return rule_from_weights(space, weights)


def constant_rule(space, action_weights) -> DecisionRule:
    w = rat_seq(action_weights)
    return rule_from_weights(space, [w] * space.nx)


def uniform_action(space) -> RandomizedAction:
    return RandomizedAction(tuple(Fraction(1, space.na) for _ in range(space.na)))


@dataclass(frozen=True)
class Partition:
    """Partition of the x labels into disjoint nonempty cells.

    Stored canonically: cells sorted by their first label's position,
    labels inside a cell in x-label order.
    """

    labels: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        labels = tuple(str(v) for v in self.labels)
        order = {x: i for i, x in enumerate(labels)}
        seen = set()
        canon = []
        for cell in self.cells:
            cell = tuple(str(x) for x in cell)
            if not cell:
                raise ValueError("empty partition cell")
            for x in cell:
                if x not in order:
                    raise ValueError("unknown label %r" % (x,))
                if x in seen:
                    raise ValueError("label %r in two cells" % (x,))
                seen.add(x)
            canon.append(tuple(sorted(cell, key=order.get)))
        if seen != set(labels):
            raise ValueError("cells do not cover all labels")
        canon.sort(key=lambda c: order[c[0]])
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cells", tuple(canon))

    def cell_of(self, x) -> tuple[str, ...]:
        x = str(x)
        for cell in self.cells:
            if x in cell:
                return cell
        raise KeyError(x)

    @classmethod
    def singletons(cls, labels) -> "Partition":
        labels = tuple(labels)
        return cls(labels=labels, cells=tuple((x,) for x in labels))

    @classmethod
    def whole(cls, labels) -> "Partition":
        labels = tuple(labels)
        return cls(labels=labels, cells=(labels,))

    @classmethod
    def from_string(cls, labels, text) -> "Partition":
        """Parse ``"a,b|c"`` into cells {a, b} and {c}."""
        cells = [
            tuple(part.strip() for part in chunk.split(",") if part.strip())
            for chunk in text.split("|")
        ]
        return cls(labels=tuple(labels), cells=tuple(c for c in cells if c))

    def __str__(self):
        return "|".join(",".join(cell) for cell in self.cells)


# ---------------------------------------------------------------------------
# operations


def joint_polytope(p: CredalSet) -> VPolytope:
    return VPolytope(
        dimension=p.space.nx * p.space.ny,
        points=tuple(g.pair for g in p.generators),
        convex=p.convex,
    )


def prune_credal(p: CredalSet) -> CredalSet:
    """``p`` with the generators that :func:`prune` keeps, in order."""
    kept = set(prune(joint_polytope(p)).points)
    gens = tuple(g for g in p.generators if g.pair in kept)
    return CredalSet(space=p.space, generators=gens, convex=p.convex)


def marginal_y(p: CredalSet) -> VPolytope:
    """Set of Y-marginals of the members of ``p``, as a polytope over Y."""
    return p._events.posterior(p, (1 << p.space.nx) - 1)


def support_x(p: CredalSet) -> tuple[str, ...]:
    """Signals that receive positive probability from some generator."""
    return tuple(p.space.x_labels[i] for i in p.live)


def condition(p: CredalSet, x_event) -> CredalSet:
    """Regular extension: condition every generator that gives the event
    positive probability on ``x_event`` (an iterable of x labels).

    Raises :class:`UndefinedConditionalError` when no generator does.
    The conditioned set is pruned.
    """
    event = {p.space.x_index(x) for x in x_event}
    if not event:
        raise ValueError("conditioning event must be nonempty")
    kept = []
    for g in p.generators:
        # g's mass inside the event, in integers over g's denominator
        nums = [v if i in event else 0 for i, row in enumerate(g._int_mass) for v in row]
        pe = sum(nums)
        if pe:
            kept.append(JointDistribution(p.space, lowest(nums, pe)))
    if not kept:
        raise UndefinedConditionalError(
            "event {%s} has probability zero under every generator"
            % ",".join(p.space.x_labels[i] for i in sorted(event))
        )
    return prune_credal(CredalSet(p.space, tuple(kept), p.convex))


def posterior_y(p: CredalSet, cell) -> VPolytope | None:
    """Outcome distributions of ``p`` conditioned on the signal event
    ``cell`` (an iterable of x labels), as a polytope over Y.

    The same set as :func:`marginal_y` of :func:`condition`: projecting
    to Y commutes with dropping generators that are redundant in the
    joint space, so pruning once in Y coordinates is enough.  None when no
    generator gives the cell positive probability.  The event is the set
    of its labels, asked of the set's table by its bitmask, so it is
    conditioned once per set, in any label order and with any repeats.
    """
    mask = sum({1 << p.space.x_index(x) for x in cell})
    if not mask:
        raise ValueError("conditioning event must be nonempty")
    return p._events.posterior(p, mask)


class _Events:
    """The table of one credal set's signal events (:attr:`CredalSet._events`).

    An event is a bitmask over the signal indices, its only key.  The
    table conditions each event once, and names each set with an id, as it
    does every set interned here: a convex set is its vertices and a
    finite set its points, and the readings differ from two points on, so
    two sets share an id exactly when they are equal.  Inclusion is asked
    once per pair of ids.  Each question is handed the set, so the table
    holds no reference back to it.
    """

    __slots__ = ("_points", "posteriors", "_ids", "_sets", "_interned", "_sub")

    def __init__(self):
        self._points, self.posteriors, self._ids, self._interned, self._sub = {}, {}, {}, {}, {}
        self._sets: list[VPolytope] = []  # by id, the first set interned

    def points(self, p: CredalSet, mask: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The distinct Y-points of ``p``'s generators given the event
        ``mask``, in generator order, none if no generator reaches it: the
        one place a set is conditioned."""
        if mask not in self._points:
            idx = [i for i in range(p.space.nx) if mask >> i & 1]
            self._points[mask] = tuple(dict.fromkeys(_cell_points(p, idx)))
        return self._points[mask]

    def posterior(self, p: CredalSet, mask: int) -> VPolytope | None:
        """The pruned Y-set of :meth:`points`, None if they are none."""
        if mask not in self.posteriors:
            points = self.points(p, mask)
            self.posteriors[mask] = prune(VPolytope(p.space.ny, points, p.convex)) if points else None
        return self.posteriors[mask]

    def intern(self, s: VPolytope | None) -> int | None:
        """The id of the pruned set ``s`` (None for None)."""
        if s is None:
            return None
        key = s.convex and len(s.points) > 1, s.hull.keys
        i = self._interned.setdefault(key, len(self._sets))
        if i == len(self._sets):
            self._sets.append(s)
        return i

    def id(self, p: CredalSet, mask: int) -> int | None:
        """The id of the event ``mask``'s set, None where no generator reaches it."""
        if mask not in self._ids:
            self._ids[mask] = self.intern(self.posterior(p, mask))
        return self._ids[mask]

    def sub(self, i: int, j: int) -> bool:
        """Is set ``i`` inside set ``j``?"""
        if (i, j) not in self._sub:
            self._sub[i, j] = i == j or subset(self._sets[i], self._sets[j])
        return self._sub[i, j]


def _cell_points(p: CredalSet, idx) -> list[tuple[tuple[int, ...], int]]:
    """Each generator's outcome distribution given the signals ``idx``, as
    its lowest-terms pair, in order; generators that give the cell no
    mass are skipped."""
    points = []
    for g in p.generators:
        # the cell's mass of each outcome, in integers over g's denominator
        mass = [sum(col) for col in zip(*[g._int_mass[i] for i in idx])]
        total = sum(mass)
        if total:
            points.append(lowest(mass, total))
    return points


def c_condition(p: CredalSet, part: Partition, x) -> CredalSet:
    """Condition on the partition cell containing ``x``."""
    if tuple(part.labels) != p.space.x_labels:
        raise ValueError("partition is over different labels")
    return condition(p, part.cell_of(x))


def hull(p: CredalSet) -> CredalSet:
    """Products of an X-marginal of ``p`` with per-signal conditionals of ``p``.

    Generators: every product Q (x) R, with Q an X-marginal generator
    and, for each x with Q(x) > 0, R_x a generator of
    ``posterior_y(p, (x,))``.  For convex sets those pieces are pruned
    (the product is linear in each piece, so the hull of products is
    unchanged); for finite sets every distinct piece is kept.  The
    products are counted from the pieces first; more than
    ``HULL_PRODUCT_LIMIT`` raise :class:`~credal.linprog.SizeLimitError`
    before any is built.

    No product needs pruning.  The hull is exactly the set of joints
    whose X-marginal lies in conv(marginals) and whose conditional at
    each live x lies in C_x, the conditionals' hull.  Suppose
    Q (x) R = t m1 + (1 - t) m2 with 0 < t < 1 and m1, m2 in the hull.
    The X-marginals give Q = t m1_X + (1 - t) m2_X, and Q is extreme,
    so m1_X = m2_X = Q.  Row x over Q(x) then gives
    R_x = t m1(.|x) + (1 - t) m2(.|x), and R_x is extreme in C_x, so
    both conditionals equal R_x and m1 = m2 = Q (x) R.  So every product
    is extreme; distinct choices give distinct products (in the
    X-marginal or in a live row), so the products are already the
    pruned generator list, in order.
    """
    space = p.space
    marginals = [lowest(list(map(sum, g._int_mass)), g.pair[1]) for g in p.generators]
    marg = prune(VPolytope(space.nx, marginals, p.convex)).points
    # a signal that some marginal reaches is live, so it has its conditionals
    conds = p.conditionals
    count = sum(
        math.prod(len(conds[i].points) for i in range(space.nx) if qn[i] > 0)
        for qn, _ in marg
    )
    refuse_above(HULL_PRODUCT_LIMIT, count, "hull products")
    products, ny = [], space.ny
    for qn, qd in marg:
        live = [i for i in range(space.nx) if qn[i] > 0]
        for choice in itertools.product(*(conds[i].points for i in live)):
            # row x is q(x) R_x, over qd times the lcm of the R_x denominators
            den = math.lcm(*[rd for _, rd in choice])
            nums = [0] * (space.nx * ny)
            for i, (rn, rd) in zip(live, choice):
                nums[i * ny : (i + 1) * ny] = [qn[i] * (den // rd) * v for v in rn]
            products.append(JointDistribution(space, lowest(nums, qd * den)))
    return CredalSet(space, tuple(products), p.convex)


def is_rectangular(p: CredalSet) -> bool:
    """Does ``p`` contain every product Q (x) R that :func:`hull` builds?

    Decided one signal at a time.  For a generator g, a signal x with
    g_X(x) > 0 and a conditioned point R at x as listed
    (:meth:`_Events.points`), let swap_x(g, R) be g with row x replaced by
    g_X(x) R.  ``p`` is rectangular iff every such swap lies in ``p``.
    Proof: swap_x(g, R) is linear in g and in R and keeps g's X-marginal,
    so if it maps every generator into ``p`` it maps ``p`` into ``p``, and
    applying it at each live signal of a generator reaches every product;
    conversely every swap is such a product, or (convex) a mixture of
    them.  So no swap reads a pruned set.  That is k * sum_x |points at x|
    membership tests against the k generators of ``p``, stopping at the
    first non-member.  Each swap is built in integers from g's pair and
    R's, and asked as its own pair.  Decided once per set: the answer is
    kept on ``p``.
    """
    return p._rectangular


def is_conservative(p: CredalSet) -> bool:
    """Every generator gives every signal value positive probability."""
    return all(all(map(any, g._int_mass)) for g in p.generators)


@dataclass(frozen=True)
class DilationRow:
    event: tuple[str, ...]
    prior: tuple[Fraction, Fraction]
    posteriors: tuple[tuple[str, tuple[Fraction, Fraction]], ...]
    dilates: bool


@dataclass(frozen=True)
class DilationReport:
    """Strict dilation: observing any signal widens the probability
    interval of the event on both sides."""

    rows: tuple[DilationRow, ...]

    def row_for(self, event) -> DilationRow:
        if isinstance(event, str):  # iterated, "10" would name the event 1,0
            raise ValueError("an event is a list of outcome labels, got the string %r" % event)
        key = tuple(str(y) for y in event)
        for r in self.rows:
            if set(r.event) == set(key):
                return r
        raise KeyError(key)

    def dilating_events(self) -> tuple[tuple[str, ...], ...]:
        return tuple(r.event for r in self.rows if r.dilates)


def _interval(nums, ev) -> tuple[int, int]:
    """Least and greatest numerator of the event ``ev`` over the points ``nums``."""
    vals = [sum([q[j] for j in ev]) for q in nums]
    return min(vals), max(vals)


def dilation_report(p: CredalSet) -> DilationReport:
    """Prior and per-signal posterior intervals for every proper Y-event.

    Read off integer points over one denominator, as a hull keeps them:
    the conditioned points of the whole signal set and of each live
    signal; a ``Fraction`` is built only for each interval end returned.
    More than ``DILATION_EVENT_LIMIT`` raise ``SizeLimitError`` before
    any."""
    space = p.space
    count = (2**space.ny - 2) * (1 + len(p.live))
    refuse_above(DILATION_EVENT_LIMIT, count, "dilation intervals")
    prior, *posts = [
        VPolytope(space.ny, p._events.points(p, mask), p.convex).hull
        for mask in [(1 << space.nx) - 1] + [1 << i for i in p.live]
    ]
    named, rows = list(zip(support_x(p), posts)), []
    for size in range(1, space.ny):
        for ev in itertools.combinations(range(space.ny), size):
            lo, hi = _interval(prior.nums, ev)
            ends = [(x, h.den, *_interval(h.nums, ev)) for x, h in named]
            wider = all(a * prior.den < lo * d and b * prior.den > hi * d for _, d, a, b in ends)
            rows.append(
                DilationRow(
                    event=tuple(space.y_labels[j] for j in ev),
                    prior=(Fraction(lo, prior.den), Fraction(hi, prior.den)),
                    posteriors=tuple((x, (Fraction(a, d), Fraction(b, d))) for x, d, a, b in ends),
                    dilates=bool(ends) and wider,
                )
            )
    return DilationReport(rows=tuple(rows))
