"""The integer face enumerator against the Fraction brute force it replaced."""

import random
from fractions import Fraction

import credal.linprog
from credal.corpus import load_corpus, run_case
from credal.linprog import (
    EQ,
    GE,
    LE,
    OPTIMAL,
    LpError,
    UnboundedFaceError,
    lp_solve,
    make_lp,
    optimal_face_vertices,
)

import face_oracle

F = Fraction


def _outcome(enumerate_face, lp, optimum):
    try:
        return enumerate_face(lp, optimum)
    except LpError as e:
        return type(e)


def _random_face_lp(rng, bounded=True):
    """A feasible LP mixing every row sense and every kind of variable bound.

    With ``bounded`` a box on each free variable and a cap on the sum of
    the others keep the feasible set bounded; without it the set, and
    often the optimal face, is unbounded.
    """
    n = rng.randint(2, 5)
    lower = [
        rng.choice([0, 0, None, F(rng.randint(-3, 3), rng.randint(1, 3))])
        for _ in range(n)
    ]
    # a feasible point to aim the rows at
    point = [
        F(rng.randint(-2, 2)) if lb is None else lb + F(rng.randint(0, 4), 2)
        for lb in lower
    ]
    rows, senses, rhs = [], [], []

    def add(row, sense, slack):
        act = sum((a * x for a, x in zip(row, point)), F(0))
        rows.append(row)
        senses.append(sense)
        rhs.append(act + slack if sense == LE else act - slack if sense == GE else act)

    for _ in range(rng.randint(0, 3)):
        row = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        add(row, rng.choice([LE, GE, EQ]), F(rng.randint(0, 3), rng.randint(1, 2)))
    if bounded:
        for j, lb in enumerate(lower):
            if lb is None:
                add([F(k == j) for k in range(n)], LE, F(rng.randint(0, 2)))
                add([F(k == j) for k in range(n)], GE, F(rng.randint(0, 2)))
        add([F(lb is not None) for lb in lower], LE, F(rng.randint(0, 3)))
    eqs = [i for i, s in enumerate(senses) if s == EQ]
    if eqs and rng.random() < 0.5:
        i = rng.choice(eqs)
        scale = F(rng.choice([1, -2, 3]), rng.choice([1, 2]))
        rows.append([scale * a for a in rows[i]])
        senses.append(EQ)
        rhs.append(scale * rhs[i])
    if rng.random() < 0.3:
        rows.append([F(0)] * n)
        senses.append(EQ)
        rhs.append(F(0))
    objective = [F(rng.choice([0, 0, rng.randint(-2, 2)])) for _ in range(n)]
    return make_lp(objective, rows, senses, rhs, lower)


def test_random_faces_match_the_fraction_brute_force():
    rng = random.Random(2024)
    seen = {"several": 0, "empty": 0, "unbounded": 0}
    for trial in range(240):
        lp = _random_face_lp(rng, bounded=trial % 4 != 3)
        sol = lp_solve(lp)
        optima = [sol.value, sol.value - 1] if sol.status == OPTIMAL else [F(0)]
        for optimum in optima:
            want = _outcome(face_oracle.optimal_face_vertices, lp, optimum)
            assert _outcome(optimal_face_vertices, lp, optimum) == want, (lp, optimum)
            if want == []:
                seen["empty"] += 1
            elif isinstance(want, list) and len(want) > 1:
                seen["several"] += 1
            elif want is UnboundedFaceError:
                seen["unbounded"] += 1
    assert all(count >= 10 for count in seen.values()), seen


def test_corpus_faces_match_the_fraction_brute_force(monkeypatch):
    calls = []

    def record(lp, optimum):
        calls.append((lp, optimum))
        return optimal_face_vertices(lp, optimum)

    # every face LP of both games is built by linprog.block_game_face
    monkeypatch.setattr(credal.linprog, "optimal_face_vertices", record)
    for case in load_corpus():
        assert run_case(case).ok, case.id
    assert len(calls) >= 20
    for lp, optimum in calls:
        want = face_oracle.optimal_face_vertices(lp, optimum)
        assert optimal_face_vertices(lp, optimum) == want
