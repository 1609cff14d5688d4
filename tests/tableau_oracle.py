"""The two-phase simplex in Fraction arithmetic, kept as a test oracle.

This is the tableau ``credal.linprog`` used before its pivots moved to
integers over one common denominator: every pivot divides the pivot row
by the pivot and eliminates in ``Fraction``.  It reads each row of the
package's integer LP as the package's tableau does, as its integer
numerators over 1 with a unit slack, and multiplies each row's dual price
back by the row's denominator.  Tests compare the package's integer
tableau against it, pivot by pivot and entry by entry.
"""

from __future__ import annotations

from fractions import Fraction

from credal.linprog import (
    EQ,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    InternalCheckError,
    LinearProgram,
    LpSolution,
    _verify_optimal,
)
from credal.rationals import common_denominator

from face_oracle import ONE, ZERO, fraction_lp, solve_unique


class _Tableau:
    """Equality-form tableau ``A.z = b`` with ``z >= 0`` plus bookkeeping."""

    def __init__(self, lp: LinearProgram):
        # each row as its integer numerators over 1: the rational row
        # times its d_i, with a unit slack, as the package holds it
        self.scale = [d for _, d in lp.rows]
        lp = fraction_lp(lp)
        self.lp = lp = lp._replace(
            rows=tuple(tuple(d * v for v in row) for row, d in zip(lp.rows, self.scale)),
            rhs=tuple(d * b for b, d in zip(lp.rhs, self.scale)),
        )
        n = len(lp.objective)

        # std variable k -> (original index j, sign); free vars are split.
        self.var_map: list[tuple[int, int]] = []
        cost: list[Fraction] = []
        for j in range(n):
            self.var_map.append((j, 1))
            cost.append(lp.objective[j])
            if lp.lower_bounds[j] is None:
                self.var_map.append((j, -1))
                cost.append(-lp.objective[j])

        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        shift = [lb if lb is not None else ZERO for lb in lp.lower_bounds]
        for i, row in enumerate(lp.rows):
            coeffs = [sign * row[j] for (j, sign) in self.var_map]
            rows.append(coeffs)
            rhs.append(lp.rhs[i] - sum((row[j] * shift[j] for j in range(n)), ZERO))

        # slack columns
        self.slack_of_row: list[int | None] = []
        for i, sense in enumerate(lp.senses):
            if sense == EQ:
                self.slack_of_row.append(None)
                continue
            col = len(cost)
            coef = ONE if sense == LE else -ONE
            for r, rw in enumerate(rows):
                rw.append(coef if r == i else ZERO)
            cost.append(ZERO)
            self.slack_of_row.append(col)
            self.var_map.append((-1, 0))

        # normalize rhs >= 0
        self.flipped = [False] * len(rows)
        for i in range(len(rows)):
            if rhs[i] < 0:
                rows[i] = [-v for v in rows[i]]
                rhs[i] = -rhs[i]
                self.flipped[i] = True

        self.ncols_real = len(cost)
        self.cost = cost
        self.rows = rows
        self.rhs = rhs
        self.row_orig = list(range(len(rows)))  # tableau row -> original row
        # static copy of the post-flip equality matrix, for dual extraction
        self.eq_matrix = [list(r) for r in rows]
        self.eq_orig = list(range(len(rows)))

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r, e, zrow, zval):
        pv = self.rows[r][e]
        self.rows[r] = [v / pv for v in self.rows[r]]
        self.rhs[r] /= pv
        for i in range(len(self.rows)):
            if i != r and self.rows[i][e] != 0:
                f = self.rows[i][e]
                self.rows[i] = [a - f * b for a, b in zip(self.rows[i], self.rows[r])]
                self.rhs[i] -= f * self.rhs[r]
        f = zrow[e]
        if f != 0:
            zrow[:] = [a - f * b for a, b in zip(zrow, self.rows[r])]
            zval += f * self.rhs[r]
        self.basis[r] = e
        return zval

    def _priced_zrow(self, cost):
        ncols = len(self.cost)
        zrow = list(cost)
        zval = ZERO
        for r, bv in enumerate(self.basis):
            cb = cost[bv]
            if cb != 0:
                row = self.rows[r]
                for j in range(ncols):
                    if row[j] != 0:
                        zrow[j] -= cb * row[j]
                zval += cb * self.rhs[r]
        return zrow, zval

    def _bland(self, cost, allowed):
        """Minimize ``cost`` over the current basis; Bland's rule throughout."""
        zrow, zval = self._priced_zrow(cost)
        while True:
            enter = None
            for j in allowed:
                if zrow[j] < 0:
                    enter = j
                    break
            if enter is None:
                return zval, False
            leave = None
            best = None
            for r in range(len(self.rows)):
                a = self.rows[r][enter]
                if a > 0:
                    ratio = self.rhs[r] / a
                    key = (ratio, self.basis[r])
                    if best is None or key < best:
                        best = key
                        leave = r
            if leave is None:
                return zval, True  # unbounded in this phase
            zval = self._pivot(leave, enter, zrow, zval)

    # -- two phases -------------------------------------------------------

    def run(self, start=()):
        """Phase 1 from the identity basis, unless the pivots ``start``
        reach a basis without an artificial; then phase 2."""
        m = len(self.rows)
        ncols = self.ncols_real

        # seed basis with usable slacks, artificials elsewhere
        self.basis = [-1] * m
        art_cols = []
        for r in range(m):
            s = self.slack_of_row[r]
            if s is not None:
                coef = self.rows[r][s]
                if coef == ONE:
                    self.basis[r] = s
                    continue
            art_cols.append(r)
        art_of_row = {}
        for r in art_cols:
            col = len(self.cost)
            for i in range(m):
                self.rows[i].append(ONE if i == r else ZERO)
            self.cost.append(ZERO)
            self.var_map.append((-2, 0))
            self.basis[r] = col
            art_of_row[r] = col
        n_total = len(self.cost)
        artificial = set(art_of_row.values())
        for r, e in start:
            self._pivot(r, e, [ZERO] * n_total, ZERO)

        if artificial & set(self.basis):
            phase1_cost = [ZERO] * n_total
            for c in artificial:
                phase1_cost[c] = ONE
            # Artificials start basic and may leave, but never re-enter.
            # Re-entry would break the unit shape of the artificial
            # columns, and the redundant-row drop below relies on it.
            allowed = range(ncols)
            zval, unb = self._bland(phase1_cost, allowed)
            if unb:
                raise InternalCheckError("phase 1 cannot be unbounded")
            if zval != 0:
                return INFEASIBLE
            # drive artificials out of the basis
            for r in range(m):
                if self.basis[r] in artificial:
                    enter = None
                    for j in range(ncols):
                        if self.rows[r][j] != 0:
                            enter = j
                            break
                    if enter is not None:
                        dummy = [ZERO] * n_total
                        self._pivot(r, enter, dummy, ZERO)
            # drop rows still held by artificials: they are redundant
            keep = [r for r in range(m) if self.basis[r] not in artificial]
            if len(keep) < m:
                self.rows = [self.rows[r] for r in keep]
                self.rhs = [self.rhs[r] for r in keep]
                self.basis = [self.basis[r] for r in keep]
                self.row_orig = [self.row_orig[r] for r in keep]
                m = len(keep)

        phase2_cost = self.cost
        allowed = range(ncols)
        zval, unb = self._bland(phase2_cost, allowed)
        if unb:
            return UNBOUNDED
        return OPTIMAL

    # -- extraction -------------------------------------------------------

    def primal(self):
        lp = self.lp
        n = len(lp.objective)
        std = [ZERO] * len(self.cost)
        for r, bv in enumerate(self.basis):
            std[bv] = self.rhs[r]
        x = [lb if lb is not None else ZERO for lb in lp.lower_bounds]
        for k, (j, sign) in enumerate(self.var_map):
            if j >= 0 and std[k] != 0:
                x[j] += sign * std[k]
        return tuple(x)

    def dual(self):
        """Row prices from the final basis, mapped back to original rows."""
        live = self.row_orig
        mats = self.eq_matrix
        basis_cols = self.basis
        b_t = [[mats[orig][c] for orig in live] for c in basis_cols]  # B^T
        c_b = [self.cost[c] for c in basis_cols]
        y = solve_unique(b_t, c_b, len(live))
        if y is None:
            raise InternalCheckError("basis matrix is singular")
        full = [ZERO] * len(self.lp.rows)
        for k, orig in enumerate(live):
            # the integer row's price times d_i is the rational row's
            full[orig] = (-y[k] if self.flipped[orig] else y[k]) * self.scale[orig]
        return tuple(full)


def lp_solve(lp: LinearProgram, start=()) -> LpSolution:
    """Solve ``lp`` exactly, from the basis the pivots ``start`` reach.

    On ``optimal`` the returned primal/dual pair satisfies strong duality
    and complementary slackness exactly (verified before returning).
    Unlike the package, it keeps the answer from ``start`` whether or not
    that answer is unique.
    """
    tab = _Tableau(lp)
    status = tab.run(start)
    if status != OPTIMAL:
        return LpSolution(status=status, value=None, primal=None, dual=None)
    x = tab.primal()
    y = tab.dual()
    value = _verify_optimal(lp, common_denominator(x), common_denominator(y))
    return LpSolution(status=OPTIMAL, value=value, primal=x, dual=y)
