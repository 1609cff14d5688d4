"""The integer simplex tableau against the Fraction tableau it replaced.

Both tableaus are run side by side, pivot by pivot: the same pivot
positions, the same entries after every pivot (each integer entry over the
common denominator), the same status and the same primal point, dual
prices and value.
"""

import random
from fractions import Fraction

import pytest

import credal.linprog
from credal.corpus import load_corpus, run_case
from credal.linprog import EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, make_lp

import structure_oracle
import tableau_oracle

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

    def solve(lp):
        made.clear()
        got = credal.linprog.lp_solve(lp)
        want = tableau_oracle.lp_solve(lp)
        return made[0], made[1], got, want

    return solve


def _assert_same(traced, lp):
    tab, oracle, got, want = traced(lp)
    assert got == want, lp
    assert [(r, e) for r, e, _ in tab.trace] == [(r, e) for r, e, _ in oracle.trace]
    for (r, e, entries), (_, _, expected) in zip(tab.trace, oracle.trace):
        assert entries == expected, (lp, r, e)
    assert tab.basis == oracle.basis and tab.row_orig == oracle.row_orig
    return tab, got


def _random_lp(rng):
    """A small LP mixing every row sense and every kind of variable bound.

    Half the rows are aimed at a point, so the LP is often feasible; the
    other half, and the free or negative objective, make infeasible and
    unbounded LPs common too.  Some get a scaled duplicate row or a zero
    row.
    """
    n = rng.randint(1, 5)
    lower = [
        rng.choice([0, 0, None, F(rng.randint(-3, 3), rng.randint(1, 3))])
        for _ in range(n)
    ]
    point = [
        F(rng.randint(-2, 2)) if lb is None else lb + F(rng.randint(0, 4), 2)
        for lb in lower
    ]
    rows, senses, rhs = [], [], []
    for _ in range(rng.randint(1, 5)):
        row = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        sense = rng.choice([LE, GE, EQ])
        if rng.random() < 0.5:
            act = sum((a * x for a, x in zip(row, point)), F(0))
            slack = F(rng.randint(0, 2), rng.randint(1, 2))
            b = act + slack if sense == LE else act - slack if sense == GE else act
        else:
            b = F(rng.randint(-4, 4), rng.randint(1, 3))
        rows.append(row)
        senses.append(sense)
        rhs.append(b)
    if rng.random() < 0.3:
        i = rng.randrange(len(rows))
        scale = F(rng.choice([1, -2, 3]), rng.choice([1, 2]))
        sense = senses[i]
        if scale < 0 and sense != EQ:
            sense = GE if sense == LE else LE
        rows.append([scale * a for a in rows[i]])
        senses.append(sense)
        rhs.append(scale * rhs[i])
    if rng.random() < 0.2:
        rows.append([F(0)] * n)
        senses.append(rng.choice([LE, GE, EQ]))
        rhs.append(F(0))
    objective = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    return make_lp(objective, rows, senses, rhs, lower)


def test_random_lps_pivot_like_the_fraction_tableau(traced):
    rng = random.Random(6)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0, "negated": 0, "dropped": 0}
    for _ in range(1200):
        lp = _random_lp(rng)
        tab, sol = _assert_same(traced, lp)
        seen[sol.status] += 1
        seen["negated"] += tab.negated
        seen["dropped"] += len(tab.row_orig) < len(lp.rows) and sol.status != INFEASIBLE
    assert all(count >= 50 for count in seen.values()), seen


def test_corpus_lps_pivot_like_the_fraction_tableau(traced, monkeypatch):
    lps = []

    class Recording(IntTableau):
        def __init__(self, lp):
            lps.append(lp)
            super().__init__(lp)

    with monkeypatch.context() as m:
        m.setattr(credal.linprog, "_Tableau", Recording)
        for case in load_corpus():
            assert run_case(case).ok, case.id
            # the hull and joint-space membership LPs the corpus built
            # before rectangularity was decided by one-signal swaps
            structure_oracle.is_rectangular(case.credal())
    distinct = list(dict.fromkeys(lps))
    assert len(lps) >= 500 and len(distinct) >= 50
    for lp in distinct:
        _assert_same(traced, lp)
