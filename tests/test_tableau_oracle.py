"""The integer simplex tableau against the Fraction tableau it replaced.

Both tableaus are run side by side, pivot by pivot: the same pivot
positions, the same entries after every pivot (each integer entry over the
common denominator), the same status and the same primal point, dual
prices and value.
"""

import random
from fractions import Fraction

import pytest

import credal.core
import credal.linprog
import credal.polytope
from credal.corpus import load_case, load_corpus, run_expectation
from credal.linprog import EQ, INFEASIBLE, LE, OPTIMAL, UNBOUNDED
from credal.minimax import solve_a_posteriori, solve_a_priori

import polytope_oracle
import structure_oracle
import tableau_oracle
from face_oracle import make_lp
from problems import random_games

F = Fraction
IntTableau = credal.linprog._Tableau


class _IntTrace(IntTableau):
    """Records each pivot with the tableau it leaves, as fractions."""

    def __init__(self, lp):
        super().__init__(lp)
        self.trace = []
        self.negated = False

    def _pivot(self, r, e, zrow):
        self.negated |= self.rows[r][e] < 0
        zrow = super()._pivot(r, e, zrow)
        assert self.den > 0
        entries = [[F(v, self.den) for v in row] for row in self.rows]
        self.trace.append((r, e, entries))
        return zrow


class _FractionTrace(tableau_oracle._Tableau):
    def __init__(self, lp):
        super().__init__(lp)
        self.trace = []

    def _pivot(self, r, e, zrow, zval):
        zval = super()._pivot(r, e, zrow, zval)
        entries = [row + [b] for row, b in zip(self.rows, self.rhs)]
        self.trace.append((r, e, entries))
        return zval


@pytest.fixture
def traced(monkeypatch):
    """Solve with both tableaus; returns the two tableaus and solutions."""
    made = []

    def recorder(cls):
        def make(lp):
            tab = cls(lp)
            made.append(tab)
            return tab

        return make

    monkeypatch.setattr(credal.linprog, "_Tableau", recorder(_IntTrace))
    monkeypatch.setattr(tableau_oracle, "_Tableau", recorder(_FractionTrace))

    def solve(lp, start=None):
        made.clear()
        got = credal.linprog.lp_solve(lp, start)
        want = tableau_oracle.lp_solve(lp, start or ())
        return made[0], made[-1], got, want

    return solve


def _assert_same(traced, lp, start=None):
    tab, oracle, got, want = traced(lp, start)
    assert got == want, lp
    steps = oracle.trace
    if start:
        # the integer tableau makes all the start's pivots but the last in
        # one pass, so its first step is the tableau that they all reach
        assert [(r, e) for r, e, _ in steps[: len(start)]] == list(start)
        steps = steps[len(start) - 1 :]
    assert [(r, e) for r, e, _ in tab.trace] == [(r, e) for r, e, _ in steps]
    for (r, e, entries), (_, _, expected) in zip(tab.trace, steps):
        assert entries == expected, (lp, r, e)
    assert tab.basis == oracle.basis and len(tab.rows) == len(oracle.rows)
    return tab, got


def _random_lp(rng):
    """A small LP of the shapes the package builds: ``<=`` and ``=`` rows
    over nonnegative or free variables.  A ``>=`` row is drawn as well and
    written as its negated ``<=`` row.

    Half the rows are aimed at a point, so the LP is often feasible; the
    other half, and the free or negative objective, make infeasible and
    unbounded LPs common too.  Some get a scaled duplicate row or a zero
    row.
    """
    n = rng.randint(1, 5)
    lower = [rng.choice([0, 0, None]) for _ in range(n)]
    point = [
        F(rng.randint(-2, 2)) if lb is None else F(rng.randint(0, 4), 2)
        for lb in lower
    ]
    rows, senses, rhs = [], [], []
    for _ in range(rng.randint(1, 5)):
        row = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        sense = rng.choice([LE, ">=", EQ])
        if rng.random() < 0.5:
            act = sum((a * x for a, x in zip(row, point)), F(0))
            slack = F(rng.randint(0, 2), rng.randint(1, 2))
            b = act + slack if sense == LE else act - slack if sense == ">=" else act
        else:
            b = F(rng.randint(-4, 4), rng.randint(1, 3))
        if sense == ">=":
            row, b, sense = [-a for a in row], -b, LE
        rows.append(row)
        senses.append(sense)
        rhs.append(b)
    if rng.random() < 0.3:
        i = rng.randrange(len(rows))
        scale = F(rng.choice([1, -2, 3]), rng.choice([1, 2]))
        if senses[i] == LE:
            scale = abs(scale)
        rows.append([scale * a for a in rows[i]])
        senses.append(senses[i])
        rhs.append(scale * rhs[i])
    if rng.random() < 0.2:
        rows.append([F(0)] * n)
        senses.append(rng.choice([LE, EQ]))
        rhs.append(F(0))
    objective = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    return make_lp(objective, rows, senses, rhs, lower)


def test_random_lps_pivot_like_the_fraction_tableau(traced, monkeypatch):
    verified = []
    check = credal.linprog._verify_infeasible

    def counted(lp, ys):
        verified.append(lp)
        return check(lp, ys)

    monkeypatch.setattr(credal.linprog, "_verify_infeasible", counted)
    rng = random.Random(6)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0, "negated": 0, "dropped": 0}
    # a pivot entry is negative only when an artificial is driven out, so
    # the negated-pivot floor takes this many draws
    for _ in range(3000):
        lp = _random_lp(rng)
        tab, sol = _assert_same(traced, lp)
        seen[sol.status] += 1
        seen["negated"] += tab.negated
        seen["dropped"] += len(tab.rows) < len(lp.rows) and sol.status != INFEASIBLE
    assert all(count >= 50 for count in seen.values()), seen
    # each infeasible verdict passed its Farkas check
    assert len(verified) == seen[INFEASIBLE] >= 700, seen


def test_corpus_lps_pivot_like_the_fraction_tableau(traced, monkeypatch):
    lps = []

    class Recording(IntTableau):
        def __init__(self, lp):
            lps.append(lp)
            super().__init__(lp)

    with monkeypatch.context() as m:
        m.setattr(credal.linprog, "_Tableau", Recording)
        # every membership question is asked of the LP-only oracle, so
        # the corpus builds the LPs it built before the box and segment
        # shortcuts answered most of them
        def in_hull(pair, hull):
            point = tuple(F(v, pair[1]) for v in pair[0])
            generators = tuple(tuple(F(v, hull.den) for v in g) for g in hull.nums)
            return polytope_oracle._in_hull(point, generators)

        m.setattr(credal.polytope, "_in_hull", in_hull)
        m.setattr(credal.polytope, "_in_box_hull", in_hull)
        # and each convex two-generator prune, which keeps both without a
        # question, is asked again of the oracle's prune
        prune = credal.polytope.prune

        def replayed(p):
            if p.convex and len(p.generators) == 2:
                polytope_oracle.prune(p)
            return prune(p)

        for mod in (credal.core, structure_oracle):  # the modules that prune
            m.setattr(mod, "prune", replayed)
        for case in load_corpus():
            # a fresh case per expectation builds every LP a lone query
            # builds, and then prunes each signal's conditioned points, as
            # ``hull`` and the calibration ids read them
            for exp in case.expectations:
                fresh = load_case(case.id)
                assert run_expectation(fresh, exp).ok, (case.id, exp.op)
                fresh.credal().conditionals
            # the hull and joint-space membership LPs the corpus built
            # before rectangularity was decided by one-signal swaps, and
            # the joint-space prune of the products that the hull dropped
            structure_oracle.is_rectangular(case.credal())
            structure_oracle.hull(case.credal())
    distinct = list(dict.fromkeys(lps))
    assert len(lps) >= 500 and len(distinct) >= 50
    for lp in distinct:
        _assert_same(traced, lp)


def _crash_games(monkeypatch):
    """The block-game LPs that the corpus games and the first 60 random
    games start at a crash basis, each with its start pivots."""
    games = []
    solve = credal.linprog.lp_solve

    def record(lp, start=None):
        if start is not None:
            games.append((lp, start))
        return solve(lp, start)

    problems = [case.problem() for case in load_corpus() if case.file.loss is not None]
    with monkeypatch.context() as m:
        m.setattr(credal.linprog, "lp_solve", record)
        for dp in [*problems, *random_games(60)]:
            solve_a_priori(dp, face=False)
            solve_a_posteriori(dp)
    return list(dict.fromkeys(games))


def _certified(lp, start):
    tab = IntTableau(lp)
    tab.crash(start)
    return tab.run() == OPTIMAL and tab.unique()


def test_block_games_pivot_like_the_fraction_tableau_from_their_start(traced, monkeypatch):
    # the tableau after the crash start, then each pivot of phase 2: the
    # same entries and pivots as the Fraction tableau replaying the same
    # start pivot by pivot, wherever the answer is kept
    seen = {"certified": 0, "t-": 0}
    for lp, start in _crash_games(monkeypatch):
        if _certified(lp, start):
            tab, _ = _assert_same(traced, lp, start)
            # t's pivot entry is -d on t+ and d on t-; phase 2 pivots on
            # positive entries only
            assert tab.negated == (start[-1][1] == 0)
            seen["certified"] += 1
            seen["t-"] += start[-1][1] == 1
    assert seen["certified"] >= 150 and seen["t-"] >= 50, seen


def _abs_det(matrix):
    """``|det matrix|`` of a square integer matrix, by Fraction elimination."""
    a = [[F(v) for v in row] for row in matrix]
    det = F(1)
    for c in range(len(a)):
        sel = next((i for i in range(c, len(a)) if a[i][c]), None)
        if sel is None:
            return 0
        a[c], a[sel] = a[sel], a[c]
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return abs(det)


def test_den_is_the_basis_determinant_of_the_integer_rows(monkeypatch):
    """Every tableau starts at ``den = 1`` and ends with ``den = |det B|`` of
    its final basis over the kept rows of the starting integer matrix.  A
    row is dropped as redundant exactly when its starting unit column is
    zero in every kept row of the final tableau.  A block game's tableau
    keeps that invariant through its crash pivots and after them."""
    rng = random.Random(6)
    seen = {"feasible": 0, "dropped": 0}
    for _ in range(3000):
        lp = _random_lp(rng)
        tab = IntTableau(lp)
        assert tab.den == 1, lp
        start = [list(row) for row in tab.rows]
        if tab.run() == INFEASIBLE:
            continue
        kept = [r for r, u in enumerate(tab.unit) if any(row[u] for row in tab.rows)]
        assert len(kept) == len(tab.rows), lp
        basis = [[start[r][c] for c in tab.basis] for r in kept]
        assert tab.den == _abs_det(basis), lp
        seen["feasible"] += 1
        seen["dropped"] += len(kept) < len(lp.rows)
    assert seen["feasible"] >= 2000 and seen["dropped"] >= 400, seen
    crashed = 0
    for lp, start in _crash_games(monkeypatch):
        tab = IntTableau(lp)
        rows = [list(row) for row in tab.rows]
        tab.crash(start)
        assert tab.den == _abs_det([[row[c] for c in tab.basis] for row in rows]), lp
        assert tab.run() == OPTIMAL and len(tab.rows) == len(lp.rows), lp
        assert tab.den == _abs_det([[row[c] for c in tab.basis] for row in rows]), lp
        crashed += 1
    assert crashed >= 150, crashed
