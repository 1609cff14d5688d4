"""Exact linear programming over the rationals.

Each row is scaled to integers once, when its LP is built: a
:class:`LinearProgram` holds :func:`credal.rationals.common_denominator`
pairs, as do the game rows that :mod:`credal.minimax` builds.

A dense two-phase primal simplex with Bland's anti-cycling rule.  Its
tableau holds each row as its integer numerators with a unit slack or
artificial column, so it starts at the identity basis; its entries are
integers over one positive common denominator, ``|det B|`` of the basis
in that integer matrix, and it pivots with the fraction-free update of
Edmonds and Bareiss.  Pricing and the ratio test compare the same
rationals as a ``Fraction`` tableau would, cross-multiplied, so the
pivots are the same.  The final tableau is read off in integers: the
primal point as numerators over its denominator, and the dual prices
from the final pricing row, each times its row's denominator.  Those
pairs are verified as they are (feasibility and complementary
slackness, and with them strong duality), and then one ``Fraction`` is
built per value.  An infeasible verdict is verified too: phase 1's
final prices, read off the same way, are a Farkas certificate, checked
on the LP's integer rows by :func:`_verify_infeasible`.  No LP the
package builds is unbounded, so that verdict carries no check.  The
candidate systems of the optimal-face enumeration run through one
Bareiss kernel on Python ``int``; each division by the previous pivot
is exact, so no gcd is taken, and only the results are turned back
into fractions.

Every game in the package is one LP shape, built by :func:`block_game`:
minimise the worst of finitely many linear losses over a product of
simplices.  Its saddle point is checked on the tableau's integer pairs
by the one saddle check :func:`_saddle`.  A block game starts at a
feasible crash basis (a pure rule and its worst row, read in integers,
its block pivots made in one pass), unless that start ties, and runs
phase 2 only; its answer is kept when the final tableau certifies that
the optimal point and prices are both unique, so that it is the answer
of the two phases, and otherwise the LP runs the two phases.  Every
other LP runs the two phases.  A certified optimum is its own optimal
face; :func:`optimal_face_vertices` enumerates the others, over the
columns that a verified optimal mixture of the rows leaves at zero
reduced cost, with the rows it prices as equalities.

Conventions
-----------
* Problems are minimizations: ``min c.x`` subject to ``A_i.x <= b_i`` or
  ``A_i.x = b_i``, each variable either nonnegative (lower bound 0) or
  free (``None``).  These are the two shapes the package builds.
* Dual sign convention: ``y_i <= 0`` for ``<=`` rows, free for equality
  rows.  Reduced costs ``c_j - y.A_j`` are nonnegative for nonnegative
  variables and zero for free variables at optimality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .rationals import common_denominator, rat_matrix

__all__ = [
    "LE",
    "EQ",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "LpError",
    "DimensionError",
    "SizeLimitError",
    "refuse_above",
    "InternalCheckError",
    "LinearProgram",
    "LpSolution",
    "lp_solve",
    "zero_sum_value",
    "block_game",
    "optimal_face_vertices",
]

LE, EQ = "<=", "="
OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"

ZERO = Fraction(0)

FACE_CANDIDATE_LIMIT = 10_000


class LpError(Exception):
    """Base class for solver errors."""


class DimensionError(LpError):
    """Objective, rows, senses, rhs and bounds disagree in shape."""


class SizeLimitError(LpError):
    """A brute-force enumeration would exceed its documented limit."""


def refuse_above(limit: int, size: int, what: str, unit: str = "", detail: str = ""):
    """The one refusal: :class:`SizeLimitError` when ``size`` exceeds ``limit``, worded
    ``<what> limited to <limit> <unit>, got <size> (<detail>)``, unit and detail if given."""
    if size > limit:
        unit, detail = unit and " " + unit, detail and " (%s)" % detail
        raise SizeLimitError("%s limited to %d%s, got %d%s" % (what, limit, unit, size, detail))


class InternalCheckError(LpError):
    """An exact self-check failed: a solver bug, a witness that does not
    replay or a broken invariant, in any layer; never bad input."""


def _check_rows(rows, length):
    """Each row must be ``length`` integers over a positive denominator."""
    for nums, den in rows:
        if len(nums) != length:
            raise DimensionError("row length %d != %d" % (len(nums), length))
        if den <= 0:
            raise DimensionError("row denominator %d is not positive" % den)


@dataclass(frozen=True)
class LinearProgram:
    """``min objective.x`` s.t. ``rows[i].x  senses[i]  rhs_i``, ``x >= lower_bounds``;
    each sense is ``<=`` or ``=``, each lower bound 0 or ``None`` (free).
    The objective, and each row with ``rhs_i`` as its last entry, are
    integer numerators over a positive denominator, scaled when built."""

    objective: tuple[tuple[int, ...], int]
    rows: tuple[tuple[tuple[int, ...], int], ...]
    senses: tuple[str, ...]
    lower_bounds: tuple[int | None, ...]

    def __post_init__(self):
        n = len(self.objective[0])
        if n == 0:
            raise DimensionError("LP needs at least one variable")
        if len(self.rows) != len(self.senses):
            raise DimensionError("rows, senses and rhs must have equal length")
        _check_rows([self.objective], n)
        _check_rows(self.rows, n + 1)
        if len(self.lower_bounds) != n:
            raise DimensionError("one lower bound (or None) per variable required")
        for s in self.senses:
            if s not in (LE, EQ):
                raise DimensionError("unknown sense %r" % (s,))
        if any(b is not None and b != 0 for b in self.lower_bounds):
            raise DimensionError("lower bounds must be 0 or None")


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Fraction | None
    primal: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None
    # on ``optimal``: the tableau's read-off ``(x, y)``, as integer pairs,
    # and whether it certified the point and the prices unique
    # (:meth:`_Tableau.unique`); neither is compared
    pairs: tuple | None = field(default=None, compare=False, repr=False)
    unique: bool = field(default=False, compare=False, repr=False)


# ---------------------------------------------------------------------------
# fraction-free exact elimination


def _eliminate(row, prow, c, prev):
    """One fraction-free elimination step: ``row`` made 0 in column ``c`` by
    the pivot row ``prow``, as ``(p * row - row[c] * prow) / prev`` with ``p =
    prow[c]``.  The division by the previous pivot ``prev`` is exact."""
    p, f = prow[c], row[c]
    if f:
        return [(p * a - f * b) // prev for a, b in zip(row, prow)]
    if p != prev:
        return [p * a // prev for a in row]
    return row


def _bareiss(mat, n):
    """Fraction-free Gauss-Jordan elimination of the integer rows ``mat``.

    Works in place over the first ``n`` columns; further columns (right-hand
    sides) ride along.  Each step divides exactly by the previous pivot
    (Bareiss, Math. Comp. 1968), so every entry stays a minor of the input
    and no gcd is ever taken.  On return the first ``len(pivots)`` rows are
    the pivot rows: row ``t`` holds ``den`` in column ``pivots[t]`` and zero
    in the other pivot columns; the remaining rows are zero in the first
    ``n`` columns.  Returns ``(pivots, den)``, where ``den`` is the last
    pivot (1 when there is none) and may be negative.
    """
    m = len(mat)
    pivots = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        sel = next((i for i in range(r, m) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(m):
            if i != r:
                mat[i] = _eliminate(mat[i], prow, c, prev)
        prev = p
        pivots.append(c)
    return pivots, prev


def _solve_int(aug, n):
    """Unique solution of the integer system ``aug`` (rows ``[a_1..a_n, b]``).

    Returns ``(numerators, den)`` with ``den > 0`` and ``x_j =
    numerators[j] / den``, or None when the system is inconsistent or
    underdetermined.  ``aug`` is overwritten.
    """
    pivots, den = _bareiss(aug, n)
    if len(pivots) < n or any(row[n] for row in aug[n:]):
        return None
    if den < 0:
        return [-row[n] for row in aug[:n]], -den
    return [row[n] for row in aug[:n]], den


# ---------------------------------------------------------------------------
# simplex core


class _Tableau:
    """Two-phase simplex on an integer tableau over one positive denominator.

    The LP is put in equality form ``A.z = b``, ``z >= 0``: free variables
    are split, one slack column is added per ``<=`` row and rows with
    ``b < 0`` are negated.  Row ``i`` is held as its integer numerators,
    the rational row times its ``d_i``, which is the same constraint; each
    row starts with one basic unit column ``e_i``, its slack or an
    artificial, so the starting basis is the identity and ``den = 1``.

    Invariant: ``rows[i][j] / den`` is entry ``(i, j)`` of the rational
    tableau ``B^-1 A`` of the current basis ``B`` in the integer matrix,
    the right-hand side in the last slot, and ``den`` is ``|det B|`` over
    the kept rows (a row dropped as redundant holds its artificial, a unit
    column, so it leaves ``|det B|`` unchanged).  A pivot is the
    fraction-free step :func:`_eliminate` of :func:`_bareiss` (Edmonds
    1967) on every row: each division by the old ``den`` is exact, so no
    gcd is taken.  Bland's pricing reads only signs and the ratio test
    compares the same rationals cross-multiplied by positive integers, so
    the pivots are the ones the rational tableau takes.  Against the rows
    over their ``d_i`` with unit slacks, holding row ``i`` as numerators
    scales the row by ``d_i`` and its slack by ``1/d_i``, which keeps the
    signs of the reduced costs and the order of the ratio test; only
    phase 1 weighs an artificial by its row's ``d_i``, and every row that
    a block game gives an artificial has ``d_i = 1``.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        objective, self.cost_scale = lp.objective
        n = len(objective)

        # std variable k -> (original index j, sign); free vars are split.
        self.var_map: list[tuple[int, int]] = []
        for j in range(n):
            self.var_map.append((j, 1))
            if lp.lower_bounds[j] is None:
                self.var_map.append((j, -1))
        std = list(self.var_map)
        cost = [s * objective[j] for j, s in std]

        # Each integer row, negated when the rhs is negative, then one
        # unit slack column per <= row.  A row whose slack entry is +1
        # starts with it basic; every other row gets a unit artificial.
        m = len(lp.rows)
        nslack = lp.senses.count(LE)
        self.flipped: list[bool] = []
        self.basis = [-1] * m
        self.rows = []
        for i, ((row, _), sense) in enumerate(zip(lp.rows, lp.senses)):
            flipped = row[-1] < 0
            ints = [-v for v in row] if flipped else list(row)
            rhs = ints.pop()
            if len(std) > n:
                ints = [s * ints[j] for j, s in std]
            ints += [0] * nslack
            if sense == LE:
                col = len(cost)
                ints[col] = -1 if flipped else 1
                if not flipped:
                    self.basis[i] = col
                cost.append(0)
                self.var_map.append((-1, 0))
            self.flipped.append(flipped)
            self.rows.append(ints + [rhs])
        self.ncols_real = len(cost)
        nart = self.basis.count(-1)
        for i, row in enumerate(self.rows):
            row[-1:-1] = [0] * nart  # before the right-hand side
            if self.basis[i] < 0:
                self.basis[i] = len(cost)
                row[len(cost)] = 1
                cost.append(0)
                self.var_map.append((-2, 0))
        self.artificial = frozenset(range(self.ncols_real, len(cost)))
        self.cost = cost  # phase-2 cost, times cost_scale; 0 off the objective
        self.unit = list(self.basis)  # row -> its starting unit column
        self.den = 1  # the starting basis is the identity

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r, e, zrow):
        """Pivot on ``(r, e)``; returns the updated pricing row."""
        rows = self.rows
        prow = rows[r]
        p = prow[e]
        den = self.den
        if p < 0:  # on the negated row every row comes out negated, so den > 0
            prow = rows[r] = [-a for a in prow]
            p = -p
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, prow, e, den)
        zrow = _eliminate(zrow, prow, e, den)
        self.den = p
        self.basis[r] = e
        return zrow

    def _priced_zrow(self, cost):
        """Reduced costs of the integer ``cost`` times ``den``; the last slot
        holds minus the objective value times ``den``."""
        den = self.den
        zrow = [den * c for c in cost] + [0]
        for row, bv in zip(self.rows, self.basis):
            cb = cost[bv]
            if cb:
                zrow = [z - cb * a for z, a in zip(zrow, row)]
        return zrow

    def _bland(self, cost, allowed):
        """Minimize the integer ``cost`` over the current basis; Bland's rule
        throughout.  Returns the final pricing row and whether the phase is
        unbounded."""
        zrow = self._priced_zrow(cost)
        while True:
            enter = next((j for j in allowed if zrow[j] < 0), None)
            if enter is None:
                return zrow, False
            leave = None
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, best_b, best_a = r, row[-1], a
                        continue
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and self.basis[r] < self.basis[leave]):
                        leave, best_b, best_a = r, row[-1], a
            if leave is None:
                return zrow, True  # unbounded in this phase
            zrow = self._pivot(leave, enter, zrow)

    # -- two phases -------------------------------------------------------

    def crash(self, pivots):
        """Pivot the starting tableau onto ``pivots``, each ``(row, column)``
        in turn; the basis they reach must be feasible and hold no
        artificial, else the start was built wrong.  The pivots but the
        last are on unit entries, zero in each other's rows, at ``den = 1``,
        so they commute: one pass takes each other row's entry times the
        pivot row off it, at the pivot row's nonzero entries."""
        *block, (r, e) = pivots
        rows = self.rows
        if any(rows[b][c] != (b == b2) for b, _ in block for b2, c in block):
            raise InternalCheckError("start pivots do not commute")
        pivot_rows = {b: [(j, v) for j, v in enumerate(rows[b]) if v] for b, _ in block}
        for i, row in enumerate(rows):
            if i not in pivot_rows:
                for b, c in block:
                    f = row[c]
                    if f:
                        for j, v in pivot_rows[b]:
                            row[j] -= f * v
        for b, c in block:
            self.basis[b] = c
        if not rows[r][e]:
            raise InternalCheckError("start pivots on a zero entry")
        self._pivot(r, e, [0] * (len(self.cost) + 1))
        if any(row[-1] < 0 for row in self.rows) or not self.artificial.isdisjoint(self.basis):
            raise InternalCheckError("start basis is not feasible")

    def run(self):
        ncols = self.ncols_real
        # Artificials start basic and may leave, but never re-enter.
        # Re-entry would break the unit shape of the artificial columns,
        # which the redundant-row drop below and the dual read-off rely on.
        allowed = range(ncols)
        artificial = self.artificial
        if not artificial.isdisjoint(self.basis):
            phase1_cost = [int(c in artificial) for c in range(len(self.cost))]
            zrow, unb = self._bland(phase1_cost, allowed)
            if unb:
                raise InternalCheckError("phase 1 cannot be unbounded")
            if zrow[-1] != 0:
                self.zrow = zrow  # phase 1's prices, the Farkas certificate
                return INFEASIBLE
            # drive artificials out of the basis
            for r in range(len(self.rows)):
                if self.basis[r] in artificial:
                    row = self.rows[r]
                    enter = next((j for j in range(ncols) if row[j]), None)
                    if enter is not None:
                        zrow = self._pivot(r, enter, zrow)
            # drop rows still held by artificials: they are redundant
            keep = [r for r, bv in enumerate(self.basis) if bv not in artificial]
            if len(keep) < len(self.rows):
                self.rows = [self.rows[r] for r in keep]
                self.basis = [self.basis[r] for r in keep]

        self.zrow, unb = self._bland(self.cost, allowed)
        if unb:
            return UNBOUNDED
        return OPTIMAL

    def unique(self):
        """Whether the final tableau certifies that the optimal primal point
        and dual prices are both unique: no row was dropped, every basic
        column but a free variable's is positive, and every nonbasic real
        column has a positive reduced cost, but the split partner of a
        basic free column."""
        if len(self.rows) < len(self.lp.rows):
            return False  # a dropped row's price is not unique
        lower = self.lp.lower_bounds
        free = {k for k, (j, _) in enumerate(self.var_map) if j >= 0 and lower[j] is None}
        if any(row[-1] <= 0 for row, bv in zip(self.rows, self.basis) if bv not in free):
            return False
        basic = set(self.basis)
        held = {self.var_map[k][0] for k in basic & free}
        return all(
            self.zrow[k] > 0
            for k in range(self.ncols_real)
            if k not in basic and not (k in free and self.var_map[k][0] in held)
        )

    # -- extraction -------------------------------------------------------

    def read_off(self):
        """The primal point over ``den`` (a split variable ``t+ - t-``) and
        the row prices over ``den`` times the cost scale, as integer pairs.

        The prices ``u`` of the final basis solve ``u.M_B = cost_B`` on the
        integer matrix ``M``.  Row ``i``'s starting unit column is ``e_i``
        with cost 0, so its entry in the pricing row is ``-den u_i``; the
        rational row is ``M_i / d_i``, so its price is ``d_i u_i``, and needs
        no linear solve.  A row dropped as redundant reads 0: its artificial
        column is zero in every kept row.  Flipped rows are negated back.
        """
        xs = [0] * len(self.lp.objective[0])
        for row, bv in zip(self.rows, self.basis):
            j, sign = self.var_map[bv]
            if j >= 0:
                xs[j] += sign * row[-1]
        ys = [
            self.zrow[u] * (d if flipped else -d)
            for u, flipped, (_, d) in zip(self.unit, self.flipped, self.lp.rows)
        ]
        return (xs, self.den), (ys, self.den * self.cost_scale)


def _verify_optimal(lp: LinearProgram, x, y):
    """Exact feasibility and complementary-slackness checks, which imply strong
    duality (``c.x - y.b = r.x + y.(A.x - b)`` exactly); returns ``c.x``.

    ``x`` and ``y`` are integer pairs ``(xs, xd)`` and ``(ys, yd)``, in any
    terms.  Each test reads the sign of an integer over a positive
    denominator, so it decides the ``Fraction`` predicate it names; each
    row with its right-hand side is over its own ``d_i``.  Row ``i``'s
    activity minus its right-hand side is ``slack[i] / (d_i xd)``; the
    reduced cost of column ``j`` is ``reduced[j] / (cd yd L)``, with ``L``
    the lcm of the ``d_i`` and ``cd`` the objective's denominator.
    """
    cs, cd = lp.objective
    n = len(cs)
    (xs, xd), (ys, yd) = x, y
    nonneg = [b is not None for b in lp.lower_bounds]
    if any(v < 0 for v, pos in zip(xs, nonneg) if pos):
        raise InternalCheckError("primal bound violated")
    ints = [r for r, _ in lp.rows]
    lcm = math.lcm(*[d for _, d in lp.rows])
    prices = [v * (lcm // d) for v, (_, d) in zip(ys, lp.rows)]
    priced = [sum(map(mul, prices, col)) for col in zip(*ints)] or [0] * n
    reduced = [c * yd * lcm - cd * p for c, p in zip(cs, priced)]
    for r, pos in zip(reduced, nonneg):
        if not pos:
            if r != 0:
                raise InternalCheckError("free variable with nonzero reduced cost")
        elif r < 0:
            raise InternalCheckError("negative reduced cost at optimum")
    for row, sense, price in zip(ints, lp.senses, ys):
        slack = sum(map(mul, row, xs)) - row[n] * xd
        if sense == LE:
            if slack > 0:
                raise InternalCheckError("<= row violated")
            if price > 0:
                raise InternalCheckError("dual sign on <= row")
        elif slack != 0:
            raise InternalCheckError("equality row violated")
        if price and slack:
            raise InternalCheckError("complementary slackness (rows)")
    if any(r and v for r, v, pos in zip(reduced, xs, nonneg) if pos):
        raise InternalCheckError("complementary slackness (bounds)")
    return Fraction(sum(map(mul, cs, xs)), cd * xd)


def lp_solve(lp: LinearProgram, start=None) -> LpSolution:
    """Solve ``lp`` exactly.

    On ``optimal`` the returned primal/dual pair satisfies strong duality
    and complementary slackness exactly (verified before returning).

    Without ``start`` the LP runs the two phases from the identity basis.
    ``start`` is a feasible basis to begin phase 2 at, given as the pivots
    ``(row, column)`` that reach it from the identity, all but the last
    commuting (:meth:`_Tableau.crash`), rows numbered as in ``lp`` and
    columns as in its equality form: the variables in order, a free one
    split into its positive and then its negative part, then one slack per
    ``<=`` row.  The answer from there is kept only when the final tableau
    certifies it unique (:meth:`_Tableau.unique`):

    * every basic column but a free variable's is positive, so each
      optimal dual, by complementary slackness, prices every basic column
      at its cost, and solves ``y.B = c_B``: the dual is unique;
    * every nonbasic real column has a positive reduced cost under that
      dual, but the partner of a basic free column, whose pair of columns
      is one variable; so each optimal point is zero on those columns, by
      complementary slackness, and is ``B^-1 b``: the primal is unique.

    The start's basis holds no artificial, so the rows have full rank and
    the two phases drop none; they end at an optimal pair as well, so at
    this one (Mangasarian, "Uniqueness of solution in linear programming",
    1979), and the answer is theirs to the last byte.  Without the
    certificate a fresh tableau runs the two phases, in this same call;
    the answer's ``unique`` says whether its own tableau was certified.
    """
    if start is not None:
        tab = _Tableau(lp)
        tab.crash(start)
        if tab.run() == OPTIMAL and tab.unique():
            return _optimum(lp, tab, True)
    tab = _Tableau(lp)
    status = tab.run()
    if status == INFEASIBLE:
        # phase 1's price of each row, read off its starting unit column
        # like the optimum's, in the sign of the LP's own row
        den, z = tab.den, tab.zrow
        _verify_infeasible(lp, [
            (-1 if flipped else 1) * (den * (u in tab.artificial) - z[u])
            for u, flipped in zip(tab.unit, tab.flipped)
        ])
    if status != OPTIMAL:
        return LpSolution(status=status, value=None, primal=None, dual=None)
    return _optimum(lp, tab, tab.unique())


def _verify_infeasible(lp: LinearProgram, ys):
    """The Farkas check of an infeasible verdict, on the LP's integer rows:
    ``y.A_j <= 0`` on each nonnegative variable and ``= 0`` on each free
    one, ``y_i <= 0`` on each ``<=`` row, and ``y.b > 0``.  A feasible
    ``x`` would give ``0 >= y.A.x >= y.b > 0``."""
    ints = [r for r, _ in lp.rows]
    if any(y > 0 for y, sense in zip(ys, lp.senses) if sense == LE):
        raise InternalCheckError("Farkas price of a <= row is positive")
    for col, lower in zip(zip(*ints), lp.lower_bounds):
        v = sum(map(mul, ys, col))
        if v > 0 or (lower is None and v):
            raise InternalCheckError("Farkas prices do not bound a column")
    if sum(y * r[-1] for y, r in zip(ys, ints)) <= 0:
        raise InternalCheckError("Farkas prices do not refute the right-hand side")


def _optimum(lp, tab, unique):
    """The verified optimal solution that the final tableau ``tab`` reads:
    its integer pairs, verified as they are, then a ``Fraction`` each."""
    x, y = tab.read_off()
    value = _verify_optimal(lp, x, y)
    primal, dual = (tuple([Fraction(v, d) if v else ZERO for v in nums]) for nums, d in (x, y))
    return LpSolution(OPTIMAL, value, primal, dual, (x, y), unique)


# ---------------------------------------------------------------------------
# zero-sum games on a product of simplices


def _block_rows(widths):
    """One row per block of consecutive columns: its 0/1 indicator (sum = 1)."""
    n = sum(widths)
    out = []
    start = 0
    for width in widths:
        out.append([int(start <= j < start + width) for j in range(n)])
        start += width
    return out


def block_game(rows, widths):
    """Exact value and equilibrium of ``min_w max_i rows[i].w``.

    ``w`` ranges over a product of simplices: its coordinates split into
    consecutive blocks of the given ``widths``, each block a probability
    vector.  Each row is ``sum(widths)`` integers over a positive
    denominator (else :class:`DimensionError`), read as it is.  The LP is
    ``min t`` subject to ``rows[i].w <= t`` for every row, then one ``= 1``
    row per block, with ``t`` free and ``w >= 0``; it starts at the basis
    of :func:`_game_start`.  Its rows have full rank (each ``<=`` row has
    its own slack, and the blocks are disjoint), so no path drops one.

    Returns ``(value, w, prices, unique)``: ``prices``, the negated dual
    prices of the rows, is the opponent's optimal mixture over rows, and
    ``unique`` says whether the final tableau certified the optimum unique
    (:func:`lp_solve`), so that ``w`` is the whole optimal face.  The pair
    is verified as an exact saddle point by :func:`_saddle` on the
    tableau's integer pairs, whose bookie reply must also be the LP value.
    That check follows from the :func:`_verify_optimal` that
    :func:`lp_solve` has passed (``t``'s zero reduced cost makes ``prices``
    sum to 1, slackness makes each priced row tight, and the dual
    objective is the best reply's value), and is kept as a guard.
    """
    n = sum(widths)
    _check_rows(rows, n)
    lp = LinearProgram(
        objective=((1,) + (0,) * n, 1),
        rows=tuple(((-d, *nums, 0), d) for nums, d in rows)
        + tuple(((0, *b, 1), 1) for b in _block_rows(widths)),
        senses=(LE,) * len(rows) + (EQ,) * len(widths),
        lower_bounds=(None,) + (0,) * n,
    )
    sol = lp_solve(lp, _game_start(rows, widths))
    if sol.status != OPTIMAL:
        raise InternalCheckError("block game LP must be solvable")
    k = len(rows)
    (xs, xd), (ys, yd) = sol.pairs
    prices = [-v for v in ys[:k]], yd
    _mixed, _agent, bookie, failing = _saddle(rows, widths, (xs[1:], xd), prices)
    if failing or bookie != sol.value:
        raise InternalCheckError("saddle point check failed")
    return sol.value, sol.primal[1:], tuple([-y for y in sol.dual[:k]]), sol.unique


def _game_start(rows, widths):
    """The crash start of the :func:`block_game` LP, as the pivots of
    :func:`lp_solve`: each block's ``= 1`` row on the block's best pure
    reply to the uniform mixture of rows, given as the integer pair
    ``(1, ..., 1)`` over ``k`` (:func:`_best_reply`), then the worst row
    at that rule (:func:`_worst_row`) on ``t``'s positive part, or its
    negative part when the worst loss is negative.  Every right-hand side
    is then that row's loss below the worst, or 1.

    None when the start is ambiguous or degenerate: a block's best reply
    ties, the worst row ties (a basic slack at 0), or the worst row ties
    the rule's column with another of its block (a zero reduced cost).
    Hand-built games tie often, their optima are then mostly degenerate
    too, and they run the two phases at once.  The LP's columns are
    ``t+``, ``t-``, then ``w``.
    """
    if not rows or 0 in widths:
        return None  # the LP is unbounded, or infeasible
    k = len(rows)
    rule = _best_reply(rows, widths, ((1,) * k, k))[1]
    if len(rule) > len(widths):
        return None
    chosen = set(rule)
    vals, _den, i = _worst_row(rows, ([int(j in chosen) for j in range(sum(widths))], 1))
    if vals.count(vals[i]) > 1:
        return None
    # a row's ties are its numerators' ties: its denominator is positive
    row, end = rows[i][0], 0
    for width, j in zip(widths, rule):
        if row[end : end + width].count(row[j]) > 1:
            return None
        end += width
    blocks = [(k + b, 2 + j) for b, j in enumerate(rule)]
    return (*blocks, (i, 0 if vals[i] >= 0 else 1))


def _saddle(rows, widths, w, prices):
    """The saddle check of the point ``w`` against the row mixture ``prices``,
    both integer pairs: the value of ``w`` averaged over ``prices``, the
    agent's best reply (:func:`_best_reply`), the bookie's (the worst row,
    :func:`_worst_row`), and the failing clauses.  A reply that improves
    on the averaged value fails ``agent-deviation`` or
    ``bookie-deviation``; ``support-not-tight`` fails with the latter,
    since sum_i q_i v_i equals max v only when every priced row reaches
    it."""
    vals, den, worst = _worst_row(rows, w)
    qs, qd = prices
    agent = _best_reply(rows, widths, prices)[0]
    mixed = Fraction(sum(map(mul, qs, vals)), qd * den)
    bookie = Fraction(vals[worst], den)
    failing = []
    if mixed != agent:
        failing.append("agent-deviation")
    if mixed != bookie:
        failing.append("bookie-deviation")
    if any(q > 0 and v != vals[worst] for q, v in zip(qs, vals)):
        failing.append("support-not-tight")
    return mixed, agent, bookie, tuple(failing)


def _worst_row(rows, point):
    """Each row's value at the point ``(ws, wd)``, as integers over one
    positive denominator (the lcm of the rows' denominators times ``wd``),
    and the first row of the largest value."""
    ws, wd = point
    lcm = math.lcm(*[d for _, d in rows])
    vals = [sum(map(mul, r, ws)) * (lcm // d) for r, d in rows]
    return vals, lcm * wd, vals.index(max(vals))


def _best_reply(rows, widths, prices):
    """Value of the best block-wise reply to the row mixture ``(qs, qd)``,
    the columns that attain it (zero reduced cost) and their count per
    block.  The cost of column ``j`` is ``costs[j] / (qd L)``, with ``L``
    the lcm of the rows' denominators.
    """
    qs, qd = prices
    if len(qs) != len(rows) or any(q < 0 for q in qs) or sum(qs) != qd:
        raise InternalCheckError("prices are not a row mixture")
    lcm = math.lcm(*[d for _, d in rows])
    weights = [q * (lcm // d) for q, (_, d) in zip(qs, rows)]
    costs = [sum(map(mul, weights, col)) for col in zip(*[r for r, _ in rows])]
    value, keep, kept_widths, start = 0, [], [], 0
    for width in widths:
        low = min(costs[start : start + width])
        value += low
        block = [j for j in range(start, start + width) if costs[j] == low]
        keep += block
        kept_widths.append(len(block))
        start += width
    return Fraction(value, qd * lcm), keep, kept_widths


def zero_sum_value(payoff):
    """Exact value and equilibrium of a zero-sum matrix game.

    The row player chooses a mixture over rows to minimize, the column
    player a mixture over columns to maximize, the expected entry of
    ``payoff``.  Returns ``(value, row_mix, col_mix)``; the mixes form a
    saddle point, verified exactly.  This is :func:`block_game` with one
    block and one game row per payoff column, each scaled to integers here.
    """
    payoff = rat_matrix(payoff)
    m = len(payoff)
    if m == 0:
        raise DimensionError("payoff matrix needs at least one row")
    ncols = len(payoff[0])
    if any(len(row) != ncols for row in payoff):
        raise DimensionError("ragged payoff matrix")
    if ncols == 0:
        raise DimensionError("payoff matrix needs at least one column")
    return block_game([common_denominator(col) for col in zip(*payoff)], [m])[:3]


# ---------------------------------------------------------------------------
# optimal-face vertex enumeration


def optimal_face_vertices(rows, widths, value, prices) -> list[tuple[Fraction, ...]]:
    """Sorted vertices of the optimal face ``{w : rows[i].w <= value}`` of
    :func:`block_game` (rows checked as there), given a row mixture
    ``prices`` whose best block-wise reply is ``value`` (else
    :class:`InternalCheckError`).  On the face ``value >= prices.rows.w >=
    value``, so a column priced above its block minimum (a positive
    reduced cost) is 0 and a row with a positive price is tight
    (complementary slackness); only the other columns are enumerated, with
    the priced rows as equalities.  A certified value is attained: an empty
    face is an :class:`InternalCheckError` too."""
    n = sum(widths)
    _check_rows(rows, n)
    qs, qd = common_denominator(prices)
    best_reply, keep, kept_widths = _best_reply(rows, widths, (qs, qd))
    if best_reply != value:
        raise InternalCheckError("face prices do not certify the value")
    pos = {j: k for k, j in enumerate(keep)}  # the same zeros everywhere keep the order
    reduced = [([r[j] for j in keep], d) for r, d in rows]
    tight = [r for r, q in zip(reduced, qs) if q > 0]
    loose = [r for r, q in zip(reduced, qs) if q <= 0]
    vertices = _face_vertices(loose, kept_widths, value, tight)
    if not vertices:
        raise InternalCheckError("optimal face came back empty")
    return [tuple(v[pos[j]] if j in pos else ZERO for j in range(n)) for v in vertices]


def _face_vertices(rows, widths, value, tight=()) -> list[tuple[Fraction, ...]]:
    """Vertices of ``{w : rows[i].w <= value, tight[i].w = value}`` with
    ``w`` on the product of simplices of :func:`block_game`, sorted; ``[]``
    when ``value`` is below the game value.

    Brute force over active sets: a vertex satisfies the block rows and
    the ``tight`` rows, of rank ``r``, and makes ``need = n - r`` more
    constraints tight, ``t`` of them rows of ``rows`` and the rest
    coordinates at 0.  Limited to ``FACE_CANDIDATE_LIMIT`` candidate
    systems, counted before any system is solved.  The face is bounded
    (it lies in the product of simplices), so no probe is needed.  A row
    ``nums / d`` at most ``vn / vd`` is the integer row ``vd nums <= d
    vn``; each candidate is solved by the integer kernel and tested in
    integers, and only its vertices become fractions.
    """
    n = sum(widths)
    vn, vd = value.as_integer_ratio()
    le = [[vd * v for v in nums] + [d * vn] for nums, d in rows]
    eq = [b + [1] for b in _block_rows(widths)]
    eq += [[vd * v for v in nums] + [d * vn] for nums, d in tight]
    need = n - len(_bareiss([r[:n] for r in eq], n)[0])
    candidates = sum(
        math.comb(len(le), t) * math.comb(n, need - t)
        for t in range(min(need, len(le)) + 1)
    )
    refuse_above(FACE_CANDIDATE_LIMIT, candidates, "face enumeration", "candidate systems")

    vertices = set()
    for t in range(min(need, len(le)) + 1):
        for rows_subset in itertools.combinations(le, t):
            system = eq + list(rows_subset)
            # A row whose variables are all fixed at 0 reads 0 = b; with
            # b != 0 the candidate is inconsistent before any elimination.
            live = [sum(1 << j for j in range(n) if r[j]) for r in system if r[n]]
            # the n - need + t coordinates not fixed at 0
            for free_idx in itertools.combinations(range(n), n - need + t):
                free_mask = sum(1 << j for j in free_idx)
                if any(not support & free_mask for support in live):
                    continue
                sol = _solve_int(
                    [[r[j] for j in free_idx] + [r[n]] for r in system], len(free_idx)
                )
                if sol is None:
                    continue
                nums, den = sol
                if any(v < 0 for v in nums) or any(
                    sum(r[j] * v for j, v in zip(free_idx, nums)) > r[n] * den for r in le
                ):
                    continue
                y = [0] * n
                for j, v in zip(free_idx, nums):
                    y[j] = v
                vertices.add(tuple(Fraction(v, den) for v in y))

    return sorted(vertices)
