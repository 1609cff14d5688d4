"""Exact linear programming over the rationals.

Each row is scaled to integers once, when its LP is built: a
:class:`LinearProgram` holds :func:`credal.rationals.common_denominator`
pairs, as do the game rows that :mod:`credal.minimax` builds.

A dense two-phase primal simplex with Bland's anti-cycling rule.  Its
tableau is kept as integer rows over one positive common denominator, the
basis determinant, and pivots with the fraction-free update of Edmonds and
Bareiss; pricing and the ratio test compare the same rationals as a
``Fraction`` tableau would, cross-multiplied, so the pivots are the same.
The dual prices are read off the final pricing row.  The candidate
systems of the optimal-face enumeration run through one Bareiss kernel
on Python ``int``; each division by the previous pivot is exact, so no
gcd is taken, and only the results are turned back into fractions.
Optimal values, primal points and dual prices are exact ``Fraction``s;
feasibility and complementary slackness, and with them strong duality,
are verified exactly before a solution is returned, in integers over
positive common denominators, as is every game answer's saddle point,
by the one saddle check :func:`_saddle`.

Every game in the package is one LP shape, built by :func:`block_game`:
minimise the worst of finitely many linear losses over a product of
simplices.  :func:`optimal_face_vertices` enumerates the optimal face of
that shape only, over the columns that a verified optimal mixture of the
rows leaves at zero reduced cost, with the rows it prices as equalities.

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
from dataclasses import dataclass
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


class InternalCheckError(LpError):
    """An exact self-check failed; indicates a solver bug, not bad input."""


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
    ``b < 0`` are negated.  Row ``i`` is held as integers over its ``d_i``;
    in that row-scaled integer matrix each row starts with one basic unit
    column ``d_i e_i``, its slack or an artificial, so the starting basis
    has determinant ``den = prod(d_i)``.

    Invariant: ``rows[i][j] / den`` is entry ``(i, j)`` of the rational
    tableau ``B^-1 A`` of the current basis ``B``, the right-hand side in
    the last slot, and ``den`` is the determinant of ``B`` in the
    row-scaled matrix, its sign kept positive (a row dropped as redundant
    leaves its factor ``d_i`` in ``den`` and in every entry).  A pivot is
    the fraction-free step :func:`_eliminate` of :func:`_bareiss` (Edmonds
    1967) on every row: each division by the old ``den`` is exact, so no
    gcd is taken.  Bland's
    pricing reads only signs and the ratio test compares the same
    rationals cross-multiplied by positive integers, so the pivots, the
    final basis and the point they give are the ones the rational tableau
    takes.
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
        # slack column per <= row.  A row whose slack entry is positive
        # starts with it basic; every other row gets an artificial.
        m = len(lp.rows)
        nslack = lp.senses.count(LE)
        scale: list[int] = []
        scaled: list[list[int]] = []
        self.flipped: list[bool] = []
        self.basis = [-1] * m
        rhs = []
        for i, ((row, d), sense) in enumerate(zip(lp.rows, lp.senses)):
            flipped = row[-1] < 0
            ints = [-v for v in row] if flipped else list(row)
            rhs.append(ints.pop())
            if len(std) > n:
                ints = [s * ints[j] for j, s in std]
            ints += [0] * nslack
            if sense == LE:
                col = len(cost)
                ints[col] = -d if flipped else d
                if not flipped:
                    self.basis[i] = col
                cost.append(0)
                self.var_map.append((-1, 0))
            scale.append(d)
            self.flipped.append(flipped)
            scaled.append(ints)
        self.ncols_real = len(cost)
        for i in range(m):
            if self.basis[i] < 0:
                self.basis[i] = len(cost)
                cost.append(0)
                self.var_map.append((-2, 0))
        self.artificial = frozenset(range(self.ncols_real, len(cost)))
        self.cost = cost  # phase-2 cost, times cost_scale; 0 off the objective
        self.unit = list(self.basis)  # row -> its starting unit column

        # Row i over den = prod(d) is row i of the rational tableau; the
        # starting basis has determinant den in the row-scaled matrix.
        den = math.prod(scale)
        self.den = den
        nart = len(cost) - self.ncols_real
        self.rows = []
        for i, (ints, d, b) in enumerate(zip(scaled, scale, rhs)):
            k = den // d
            row = [k * v for v in ints] + [0] * nart + [k * b]
            if self.basis[i] >= self.ncols_real:
                row[self.basis[i]] = den
            self.rows.append(row)

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r, e, zrow):
        """Pivot on ``(r, e)``; returns the updated pricing row."""
        rows = self.rows
        prow = rows[r]
        p = prow[e]
        den = self.den
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, prow, e, den)
        zrow = _eliminate(zrow, prow, e, den)
        if p < 0:
            self.rows = [[-a for a in row] for row in rows]
            zrow = [-a for a in zrow]
            p = -p
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

    def run(self):
        ncols = self.ncols_real
        # Artificials start basic and may leave, but never re-enter.
        # Re-entry would break the unit shape of the artificial columns,
        # which the redundant-row drop below and the dual read-off rely on.
        allowed = range(ncols)
        artificial = self.artificial
        if artificial:
            phase1_cost = [int(c in artificial) for c in range(len(self.cost))]
            zrow, unb = self._bland(phase1_cost, allowed)
            if unb:
                raise InternalCheckError("phase 1 cannot be unbounded")
            if zrow[-1] != 0:
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

    # -- extraction -------------------------------------------------------

    def primal(self):
        x = [ZERO] * len(self.lp.objective[0])
        for row, bv in zip(self.rows, self.basis):
            j, sign = self.var_map[bv]
            if j >= 0 and row[-1]:
                x[j] += Fraction(sign * row[-1], self.den)
        return tuple(x)

    def dual(self):
        """Row prices read off the final phase-2 pricing row.

        The prices ``u`` of the final basis solve ``u.M_B = cost_B`` on the
        row-scaled integer matrix ``M``.  Row ``i``'s starting unit column
        is ``d_i e_i`` with cost 0, so its entry in the pricing row is
        ``-den d_i u_i``, and the row's price ``d_i u_i`` over the cost
        scale needs no linear solve (``d_i`` cancels).  A row dropped as
        redundant reads 0: its artificial column is zero in every kept
        row.  Flipped rows are negated back.
        """
        den = self.den * self.cost_scale
        return tuple(
            Fraction(self.zrow[u] if flipped else -self.zrow[u], den)
            for u, flipped in zip(self.unit, self.flipped)
        )


def _verify_optimal(lp: LinearProgram, x, y):
    """Exact feasibility and complementary-slackness checks, which imply strong
    duality (``c.x - y.b = r.x + y.(A.x - b)`` exactly); returns ``c.x``.

    Each quantity is an integer over a positive denominator, so each test
    decides the ``Fraction`` predicate it names: ``x`` and ``y`` are
    scaled to common denominators ``xd`` and ``yd``; each row with its
    right-hand side is over its own ``d_i``.  Row ``i``'s activity minus
    its right-hand side is ``slack[i] / (d_i xd)``; the reduced cost of
    column ``j`` is ``reduced[j] / (cd yd L)``, with ``L`` the lcm of the
    ``d_i`` and ``cd`` the objective's denominator.
    """
    cs, cd = lp.objective
    n = len(cs)
    xs, xd = common_denominator(x)
    ys, yd = common_denominator(y)
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


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` exactly.

    On ``optimal`` the returned primal/dual pair satisfies strong duality
    and complementary slackness exactly (verified before returning).
    """
    tab = _Tableau(lp)
    status = tab.run()
    if status != OPTIMAL:
        return LpSolution(status=status, value=None, primal=None, dual=None)
    x = tab.primal()
    y = tab.dual()
    value = _verify_optimal(lp, x, y)
    return LpSolution(status=OPTIMAL, value=value, primal=x, dual=y)


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
    row per block, with ``t`` free and ``w >= 0``.  Returns ``(value, w,
    prices)``, where ``prices`` (the negated dual prices of the rows) is
    the opponent's optimal mixture over rows.  The pair is verified as an
    exact saddle point by :func:`_saddle`, whose bookie reply must also be
    the LP value.  That check follows from the :func:`_verify_optimal` that
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
    sol = lp_solve(lp)
    if sol.status != OPTIMAL:
        raise InternalCheckError("block game LP must be solvable")
    value, w = sol.value, sol.primal[1:]
    prices = tuple(-sol.dual[i] for i in range(len(rows)))
    _mixed, _agent, bookie, failing = _saddle(rows, widths, w, prices)
    if failing or bookie != value:
        raise InternalCheckError("saddle point check failed")
    return value, w, prices


def _saddle(rows, widths, w, prices):
    """The saddle check of the point ``w`` against the row mixture ``prices``:
    the value of ``w`` averaged over ``prices``, the agent's best reply
    (:func:`_best_reply`), the bookie's (the worst row, :func:`_worst_row`),
    and the failing clauses.  A reply that improves on the averaged value
    fails ``agent-deviation`` or ``bookie-deviation``; ``support-not-tight``
    fails with the latter, since sum_i q_i v_i equals max v only when every
    priced row reaches it."""
    vals, den, worst = _worst_row(rows, w)
    qs, qd = common_denominator(prices)
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
    """Each row's value at ``point``, as integers over one positive
    denominator (the lcm of the rows' denominators times the point's), and
    the first row of the largest value."""
    ws, wd = common_denominator(point)
    lcm = math.lcm(*[d for _, d in rows])
    vals = [sum(map(mul, r, ws)) * (lcm // d) for r, d in rows]
    return vals, lcm * wd, vals.index(max(vals))


def _best_reply(rows, widths, prices):
    """Value of the best block-wise reply to the row mixture ``prices``, the
    columns that attain it (zero reduced cost) and their count per block.

    The cost of column ``j`` is ``costs[j] / (qd L)``, with ``qd`` the
    prices' denominator and ``L`` the lcm of the rows' denominators.
    """
    qs, qd = common_denominator(prices)
    if len(prices) != len(rows) or any(q < 0 for q in qs) or sum(qs) != qd:
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
    return block_game([common_denominator(col) for col in zip(*payoff)], [m])


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
    the priced rows as equalities."""
    n = sum(widths)
    _check_rows(rows, n)
    best_reply, keep, kept_widths = _best_reply(rows, widths, prices)
    if best_reply != value:
        raise InternalCheckError("face prices do not certify the value")
    pos = {j: k for k, j in enumerate(keep)}  # the same zeros everywhere keep the order
    reduced = [([r[j] for j in keep], d) for r, d in rows]
    tight = [r for r, q in zip(reduced, prices) if q > 0]
    loose = [r for r, q in zip(reduced, prices) if q <= 0]
    vertices = _face_vertices(loose, kept_widths, value, tight)
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
    if candidates > FACE_CANDIDATE_LIMIT:
        raise SizeLimitError(
            "face enumeration limited to %d candidate systems, got %d"
            % (FACE_CANDIDATE_LIMIT, candidates)
        )

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
