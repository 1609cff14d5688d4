"""The brute-force face enumerator in Fraction arithmetic, kept as a test oracle.

This is the enumerator ``credal.linprog`` used before its eliminations
moved to integers: every active set is solved by Gauss-Jordan in
``Fraction`` with the right-hand side shifted per candidate.  It takes
any LP (free variables, ``>=`` rows, nonzero lower bounds, unbounded
faces), so tests hand it the general LP equivalent to a block-game face
and compare the package's enumerator and elimination kernel against it.
It reads the package's integer LP back as fractions at its entry
(:func:`fraction_lp`), as the other oracles do.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from credal.linprog import (
    EQ,
    INFEASIBLE,
    LE,
    UNBOUNDED,
    LinearProgram,
    LpError,
    SizeLimitError,
    lp_solve,
)
from credal.rationals import common_denominator, rat, rat_seq

ZERO = Fraction(0)
ONE = Fraction(1)

GE = ">="  # the oracle still reads >= rows; the package builds none


class FractionLp(NamedTuple):
    """A :class:`LinearProgram` with its entries as fractions, the right-hand
    sides apart from the rows, as the package held it before its rows were
    scaled to integers when built."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    lower_bounds: tuple


def fraction_lp(lp: LinearProgram) -> FractionLp:
    """``lp``'s integer pairs read back as fractions."""
    cs, cd = lp.objective
    return FractionLp(
        objective=tuple(Fraction(c, cd) for c in cs),
        rows=tuple(tuple(Fraction(v, d) for v in nums[:-1]) for nums, d in lp.rows),
        senses=lp.senses,
        rhs=tuple(Fraction(nums[-1], d) for nums, d in lp.rows),
        lower_bounds=lp.lower_bounds,
    )


def make_lp(objective, rows, senses, rhs, lower_bounds=None) -> LinearProgram:
    """The :class:`LinearProgram` of rational entries, the inverse of
    :func:`fraction_lp`: the objective, and each row with its right-hand
    side, as :func:`common_denominator` pairs.  ``lower_bounds`` defaults to
    zero for every variable."""
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs must have equal length")
    if lower_bounds is None:
        lower_bounds = (0,) * len(objective)
    return LinearProgram(
        objective=common_denominator(rat_seq(objective)),
        rows=tuple(common_denominator(rat_seq((*row, b))) for row, b in zip(rows, rhs)),
        senses=tuple(senses),
        lower_bounds=tuple(None if b is None else rat(b) for b in lower_bounds),
    )


# The Fraction brute force keeps the 12-variable limit it had in the
# package.
FACE_DIMENSION_LIMIT = 12


class UnboundedFaceError(LpError):
    """The optimal face is unbounded, so it has no finite vertex list."""


def solve_unique(rows, rhs, n):
    """Solve a linear system with ``n`` unknowns.

    Returns the solution tuple when the system is consistent and has a
    unique solution, else None.  ``rows`` may contain redundant rows.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m = len(aug)
    pivot_cols = []
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, m):
            if aug[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        pv = aug[r][col]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None  # inconsistent
    if len(pivot_cols) < n:
        return None  # underdetermined
    x = [ZERO] * n
    for i, col in enumerate(pivot_cols):
        x[col] = aug[i][n]
    return tuple(x)


def matrix_rank(rows, n):
    mat = [list(r) for r in rows]
    m = len(mat)
    rank = 0
    for col in range(n):
        sel = None
        for i in range(rank, m):
            if mat[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        pv = mat[rank][col]
        for i in range(m):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def _bounded_by_rows(lp: FractionLp, j):
    """Cheap certificate that variable j is bounded above on the feasible set."""
    for i, row in enumerate(lp.rows):
        if lp.senses[i] == GE or row[j] <= 0:
            continue
        ok = True
        for k, a in enumerate(row):
            if k == j:
                continue
            if a < 0 or (a > 0 and lp.lower_bounds[k] is None):
                ok = False
                break
        if ok:
            return True
    return False


def optimal_face_vertices(lp: LinearProgram, optimum) -> list[tuple[Fraction, ...]]:
    """All vertices of ``{x feasible : objective.x = optimum}``.

    Brute force over active constraint sets; limited to
    ``FACE_DIMENSION_LIMIT`` variables.  Raises
    :class:`UnboundedFaceError` when the face is unbounded and returns
    ``[]`` when ``optimum`` is not attained.
    """
    optimum = rat(optimum)
    lp = fraction_lp(lp)
    n = len(lp.objective)
    if n > FACE_DIMENSION_LIMIT:
        raise SizeLimitError(
            "face enumeration limited to %d variables, got %d"
            % (FACE_DIMENSION_LIMIT, n)
        )

    face_rows = list(lp.rows) + [lp.objective]
    face_senses = list(lp.senses) + [EQ]
    face_rhs = list(lp.rhs) + [optimum]

    # boundedness probes (free vars always probed; bounded vars probed
    # unless a single row certifies an upper bound)
    for j in range(n):
        directions = [ONE, -ONE] if lp.lower_bounds[j] is None else [ONE]
        if lp.lower_bounds[j] is not None and _bounded_by_rows(lp, j):
            continue
        for sign in directions:
            probe_obj = [ZERO] * n
            probe_obj[j] = -sign  # maximize sign * x_j
            probe = make_lp(probe_obj, face_rows, face_senses, face_rhs, lp.lower_bounds)
            sol = lp_solve(probe)
            if sol.status == INFEASIBLE:
                return []
            if sol.status == UNBOUNDED:
                raise UnboundedFaceError("optimal face is unbounded")

    eq_rows = [list(r) for r, s in zip(face_rows, face_senses) if s == EQ]
    eq_rhs = [b for b, s in zip(face_rhs, face_senses) if s == EQ]
    ineq = [
        (list(r), b, s)
        for r, b, s in zip(face_rows, face_rhs, face_senses)
        if s != EQ
    ]
    bound_vars = [j for j in range(n) if lp.lower_bounds[j] is not None]

    base_rank = matrix_rank(eq_rows, n)
    need = n - base_rank

    vertices = set()

    def feasible(x):
        for row, b, s in ineq:
            act = sum((row[j] * x[j] for j in range(n)), ZERO)
            if s == LE and act > b:
                return False
            if s == GE and act < b:
                return False
        for r, b in zip(eq_rows, eq_rhs):
            if sum((r[j] * x[j] for j in range(n)), ZERO) != b:
                return False
        for j in bound_vars:
            if x[j] < lp.lower_bounds[j]:
                return False
        return True

    for t in range(0, min(need, len(ineq)) + 1):
        nb = need - t
        if nb > len(bound_vars):
            continue
        for rows_subset in itertools.combinations(range(len(ineq)), t):
            for bounds_subset in itertools.combinations(bound_vars, nb):
                fixed = {j: lp.lower_bounds[j] for j in bounds_subset}
                free_idx = [j for j in range(n) if j not in fixed]
                sys_rows = []
                sys_rhs = []
                for r, b in zip(eq_rows, eq_rhs):
                    sys_rows.append([r[j] for j in free_idx])
                    sys_rhs.append(b - sum((r[j] * fixed[j] for j in fixed), ZERO))
                for ri in rows_subset:
                    row, b, _s = ineq[ri]
                    sys_rows.append([row[j] for j in free_idx])
                    sys_rhs.append(b - sum((row[j] * fixed[j] for j in fixed), ZERO))
                sol = solve_unique(sys_rows, sys_rhs, len(free_idx))
                if sol is None:
                    continue
                x = [ZERO] * n
                for k, j in enumerate(free_idx):
                    x[j] = sol[k]
                for j, v in fixed.items():
                    x[j] = v
                x = tuple(x)
                if feasible(x):
                    vertices.add(x)

    return sorted(vertices)
