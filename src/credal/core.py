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

:func:`posterior_y` is the one primitive for the set of outcome
distributions after observing a cell of signals: it conditions each
generator and projects it to Y in one step, and prunes once, in Y
coordinates.  The posterior game, dilation, calibration and the
per-signal pieces of :func:`hull` all use it, so they never build a
polytope over the joint space; :func:`marginal_y` is it on the whole
signal set.  Each credal set conditions each signal event once: it
keeps every answer of ``posterior_y``, keyed by the cell, for every
caller.  :attr:`CredalSet.live` lists the signals some generator
reaches and :attr:`CredalSet.conditionals` holds ``posterior_y`` at
each of them.  Rectangularity, :func:`hull`, dilation and the
posterior game read those.  A :class:`DecisionProblem` keeps the prior
game's loss rows and, per live signal, the posterior game's rows over
the conditionals (:func:`_action_losses`), from which every loss of a
rule is read, and each game :mod:`credal.minimax` solves on it, solved
and checked once.
:func:`condition` keeps the conditioned joint set for callers that need
it; taking :func:`marginal_y` of it gives the same set as
``posterior_y(p, cell)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .linprog import SizeLimitError
from .polytope import VPolytope, member, prune
from .rationals import common_denominator, rat, rat_matrix, rat_seq

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
# joint coordinates: ``credal hull`` took 0.5-0.6 s end to end on 10,000
# products over 3 signals and 2 outcomes, 1.3-1.4 s on 8,192 over
# 12 signals and 2 outcomes, and 1.4-1.9 s on 6,561 over 7 signals and
# 5 outcomes (shared 2-core x86-64, Python 3.11).
HULL_PRODUCT_LIMIT = 10_000


class UndefinedConditionalError(Exception):
    """Conditioning event has probability zero under every generator."""


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
        return self.x_labels.index(str(label))

    def a_index(self, label) -> int:
        return self.actions.index(str(label))


@dataclass(frozen=True)
class JointDistribution:
    """Exact joint probability mass over X times Y (x-major matrix)."""

    space: ProblemSpace
    mass: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.mass) != self.space.nx:
            raise ValueError("mass needs one row per x label")
        # rows before the first of the wrong length, checked in integers
        bad = next((i for i, row in enumerate(self.mass) if len(row) != self.space.ny), None)
        nums, den = common_denominator([v for row in self.mass[:bad] for v in row])
        if any(v < 0 for v in nums):
            raise ValueError("negative probability mass")
        if bad is not None:
            raise ValueError("mass row length != number of y labels")
        if sum(nums) != den:
            raise ValueError("mass must sum to exactly 1, got %s" % Fraction(sum(nums), den))

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

    def event_x(self, x_indices) -> Fraction:
        return sum((sum(self.mass[i], ZERO) for i in x_indices), ZERO)

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(v for row in self.mass for v in row)


def joint(space: ProblemSpace, mass) -> JointDistribution:
    return JointDistribution(space=space, mass=rat_matrix(mass))


def _unflatten(space, flat):
    it = iter(flat)
    return tuple(tuple(next(it) for _ in range(space.ny)) for _ in range(space.nx))


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
        # drop repeated generators, keeping the first of each mass in order
        first = {}
        for g in self.generators:
            first.setdefault(g.mass, g)
        object.__setattr__(self, "generators", tuple(first.values()))

    @cached_property
    def live(self) -> tuple[int, ...]:
        """Indices of the signals that some generator gives positive mass."""
        return tuple(
            i for i in range(self.space.nx) if any(any(g.mass[i]) for g in self.generators)
        )

    @cached_property
    def _posteriors(self) -> dict[tuple, VPolytope | None]:
        """:func:`posterior_y` of each cell asked, keyed by the cell as passed."""
        return {}

    @cached_property
    def conditionals(self) -> tuple[VPolytope | None, ...]:
        """Per signal, :func:`posterior_y` at that signal alone, or None
        where no generator reaches it: each set is conditioned once."""
        live = set(self.live)
        return tuple(
            posterior_y(self, (x,)) if i in live else None
            for i, x in enumerate(self.space.x_labels)
        )

    @cached_property
    def _rectangular(self) -> bool:
        """:func:`is_rectangular`, decided on first use."""
        target, ny = joint_polytope(self), self.space.ny
        for g in self.generators:
            flat = g.flatten()
            for i, px in enumerate(g.x_marginal()):
                if px == 0:
                    continue
                head, tail = flat[: i * ny], flat[(i + 1) * ny :]
                for r in self.conditionals[i].generators:
                    if not member(head + tuple(px * v for v in r) + tail, target):
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

    def spread(self) -> Fraction:
        vals = [v for row in self.table for v in row]
        return max(vals) - min(vals)


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
        (:func:`_action_losses` of its mass at the live signals)."""
        live = self.credal.live
        return _action_losses(
            self.loss, [[v for i in live for v in g.mass[i]] for g in self.credal.generators]
        )

    @cached_property
    def posterior_rows(self):
        """Per signal, the posterior game's rows there, one per generator of
        the conditional set (:func:`_action_losses` of them), or None where
        no generator reaches the signal."""
        return tuple(
            None if c is None else _action_losses(self.loss, c.generators)
            for c in self.credal.conditionals
        )


@dataclass(frozen=True)
class RandomizedAction:
    """Probability weights over the action set."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", rat_seq(self.weights))
        if any(w < 0 for w in self.weights):
            raise ValueError("negative action weight")
        if sum(self.weights, ZERO) != 1:
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
        generators=tuple(g.flatten() for g in p.generators),
        convex=p.convex,
    )


def prune_credal(p: CredalSet) -> CredalSet:
    kept = prune(joint_polytope(p)).generators
    gens = tuple(JointDistribution(p.space, _unflatten(p.space, g)) for g in kept)
    return CredalSet(space=p.space, generators=gens, convex=p.convex)


def marginal_y(p: CredalSet) -> VPolytope:
    """Set of Y-marginals of the members of ``p``, as a polytope over Y."""
    return posterior_y(p, p.space.x_labels)


def support_x(p: CredalSet) -> tuple[str, ...]:
    """Signals that receive positive probability from some generator."""
    return tuple(p.space.x_labels[i] for i in p.live)


def condition(p: CredalSet, x_event) -> CredalSet:
    """Regular extension: condition every generator that gives the event
    positive probability on ``x_event`` (an iterable of x labels).

    Raises :class:`UndefinedConditionalError` when no generator does.
    The conditioned set is pruned.
    """
    idx = sorted(p.space.x_index(x) for x in x_event)
    if not idx:
        raise ValueError("conditioning event must be nonempty")
    kept = []
    for g in p.generators:
        pe = g.event_x(idx)
        if pe == 0:
            continue
        mass = tuple(
            tuple(v / pe for v in g.mass[i]) if i in idx else (ZERO,) * p.space.ny
            for i in range(p.space.nx)
        )
        kept.append(mass)
    if not kept:
        raise UndefinedConditionalError(
            "event {%s} has probability zero under every generator"
            % ",".join(p.space.x_labels[i] for i in idx)
        )
    return prune_credal(credal_set(p.space, kept, p.convex))


def posterior_y(p: CredalSet, cell) -> VPolytope | None:
    """Outcome distributions of ``p`` conditioned on the signal event
    ``cell`` (an iterable of x labels), as a polytope over Y.

    The same set as :func:`marginal_y` of :func:`condition`: projecting
    to Y commutes with dropping generators that are redundant in the
    joint space, so pruning once in Y coordinates is enough.  None when no
    generator gives the cell positive probability.  Each cell is
    conditioned once per set: the answer is kept on ``p``.
    """
    cell, cache = tuple(cell), p._posteriors
    if cell not in cache:
        cache[cell] = _posterior_y(p, cell)
    return cache[cell]


def _posterior_y(p: CredalSet, cell) -> VPolytope | None:
    """:func:`posterior_y` computed afresh."""
    idx = sorted({p.space.x_index(x) for x in cell})
    if not idx:
        raise ValueError("conditioning event must be nonempty")
    pts = []
    for g in p.generators:
        pe = g.event_x(idx)
        if pe == 0:
            continue
        pts.append(
            tuple(
                sum((g.mass[i][y] for i in idx), ZERO) / pe
                for y in range(p.space.ny)
            )
        )
    if not pts:
        return None
    return prune(VPolytope(dimension=p.space.ny, generators=tuple(pts), convex=p.convex))


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
    marg = prune(
        VPolytope(space.nx, tuple(g.x_marginal() for g in p.generators), p.convex)
    ).generators
    # a signal that some marginal reaches is live, so it has its conditionals
    conds = p.conditionals
    count = sum(
        math.prod(len(conds[i].generators) for i in range(space.nx) if q[i] > 0)
        for q in marg
    )
    if count > HULL_PRODUCT_LIMIT:
        raise SizeLimitError(
            "hull products limited to %d, got %d" % (HULL_PRODUCT_LIMIT, count)
        )
    products = []
    for q in marg:
        live = [i for i in range(space.nx) if q[i] > 0]
        for choice in itertools.product(*(conds[i].generators for i in live)):
            pick = dict(zip(live, choice))
            rows = tuple(
                tuple(q[i] * v for v in pick[i]) if i in pick else (ZERO,) * space.ny
                for i in range(space.nx)
            )
            products.append(JointDistribution(space, rows))
    return CredalSet(space, tuple(products), p.convex)


def is_rectangular(p: CredalSet) -> bool:
    """Does ``p`` contain every product Q (x) R that :func:`hull` builds?

    Decided one signal at a time.  For a generator g, a signal x with
    g_X(x) > 0 and a conditional R that :func:`hull` uses at x, let
    swap_x(g, R) be g with row x replaced by g_X(x) R.  ``p`` is
    rectangular iff every such swap lies in ``p``.  Proof: swap_x(., R)
    is linear and keeps the X-marginal, so if it maps every generator
    into ``p`` it maps ``p`` into ``p``, and applying it at each live
    signal of a generator reaches every product; conversely every swap
    is such a product, or (convex) a mixture of them.  That is
    k * sum_x |conditionals at x| membership tests against the k
    generators of ``p``, stopping at the first non-member.  Decided once per
    set: the answer is kept on ``p``.
    """
    return p._rectangular


def is_conservative(p: CredalSet) -> bool:
    """Every generator gives every signal value positive probability."""
    return all(
        all(px > 0 for px in g.x_marginal()) for g in p.generators
    )


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
        key = tuple(str(y) for y in event)
        for r in self.rows:
            if set(r.event) == set(key):
                return r
        raise KeyError(key)

    def dilating_events(self) -> tuple[tuple[str, ...], ...]:
        return tuple(r.event for r in self.rows if r.dilates)


def _event_prob(q, y_idx) -> Fraction:
    return sum((q[j] for j in y_idx), ZERO)


def dilation_report(p: CredalSet) -> DilationReport:
    """Prior and per-signal posterior intervals for every proper Y-event."""
    space = p.space
    prior_sets = [g.y_marginal() for g in p.generators]
    posterior_sets = [(space.x_labels[i], p.conditionals[i].generators) for i in p.live]
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
