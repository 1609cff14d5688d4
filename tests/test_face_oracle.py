"""The face routine against the Fraction brute force it replaced.

``optimal_face_vertices`` enumerates only the columns that the bookie's
prices leave at zero reduced cost; the oracle enumerates every column of
the general LP.  The integer enumerator underneath is also checked on its
own, at values where the face is empty or larger than optimal.
"""

import random
from fractions import Fraction

import pytest

import credal.linprog
import credal.minimax
from credal.corpus import load_case, load_corpus, run_expectation
from credal.linprog import (
    EQ,
    LE,
    InternalCheckError,
    _face_vertices,
    block_game,
    optimal_face_vertices,
)
from credal.minimax import solve_ignoring
from credal.rationals import common_denominator

import face_oracle
from face_oracle import make_lp
from problems import random_games
from test_certificate_oracle import _solve_every_block_game_family, _tied_problems

F = Fraction


def _game(rows):
    """Game rows as the integer pairs that block_game and the face read."""
    return [common_denominator(row) for row in rows]


def _general_face(rows, widths, value):
    """The oracle's answer for the block-game face, asked as a general LP:
    zero objective, ``rows[i].w <= value`` and one ``= 1`` row per block."""
    n = sum(widths)
    blocks = []
    start = 0
    for width in widths:
        blocks.append([int(start <= j < start + width) for j in range(n)])
        start += width
    lp = make_lp(
        [0] * n,
        list(rows) + blocks,
        [LE] * len(rows) + [EQ] * len(blocks),
        [value] * len(rows) + [1] * len(blocks),
    )
    return face_oracle.optimal_face_vertices(lp, 0)


def _random_game(rng):
    """Loss rows over 1-3 blocks of width 1-3, with repeated rows, rows
    equal in every column, all-zero rows, and constant or repeated
    columns, so faces are often flat and prices often tie."""
    widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    n = sum(widths)
    rows = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.15:
            row = [F(0)] * n
        elif kind < 0.3:
            row = [F(rng.randint(-2, 2), rng.randint(1, 2))] * n
        else:
            row = [F(rng.choice([0, 0, 1, 2, -1, 3]), rng.randint(1, 3)) for _ in range(n)]
        rows.append(row)
    if rng.random() < 0.3:
        rows.append(list(rows[0]))
    kind = rng.random()
    if kind < 0.2:
        # one column costs the same under every row
        j = rng.randrange(n)
        c = F(rng.randint(-1, 2))
        for row in rows:
            row[j] = c
    elif kind < 0.4 and max(widths) > 1:
        # a column repeated inside its block
        b = next(k for k, w in enumerate(widths) if w > 1)
        start = sum(widths[:b])
        for row in rows:
            row[start + 1] = row[start]
    return rows, widths


def test_random_faces_match_the_fraction_brute_force():
    rng = random.Random(2024)
    seen = {"several": 0, "single": 0, "empty": 0, "two blocks": 0}
    for _ in range(120):
        rows, widths = _random_game(rng)
        game = _game(rows)
        value, _w, prices, _unique = block_game(game, widths)
        want = _general_face(rows, widths, value)
        assert optimal_face_vertices(game, widths, value, prices) == want, (rows, widths)
        assert _face_vertices(game, widths, value) == want
        seen["several" if len(want) > 1 else "single"] += 1
        seen["two blocks"] += len(want) > 1 and len(widths) > 1
        for v in (value - 1, value + F(1, 2)):
            want = _general_face(rows, widths, v)
            assert _face_vertices(game, widths, v) == want, (rows, widths, v)
            seen["empty"] += not want
            with pytest.raises(InternalCheckError, match="do not certify"):
                optimal_face_vertices(game, widths, v, prices)
    assert all(count >= 30 for count in seen.values()), seen


def test_prior_shaped_faces_match_the_fraction_brute_force():
    # generator-weighted loss rows as the prior game builds them, with a
    # repeated generator and a loss table whose actions may tie
    rng = random.Random(7)
    several = 0
    for _ in range(8):
        nx, na = rng.choice([(3, 2), (2, 3)])
        table = [[F(rng.randint(-2, 2)) for _ in range(na)] for _ in range(2)]
        gens = [[[F(rng.randint(0, 3)) for _ in range(2)] for _ in range(nx)] for _ in range(2)]
        gens.append(gens[0])
        rows = [
            [sum((g[x][y] * table[y][a] for y in range(2)), F(0)) for x in range(nx) for a in range(na)]
            for g in gens
        ]
        widths = [na] * nx
        game = _game(rows)
        value, _w, prices, _unique = block_game(game, widths)
        want = _general_face(rows, widths, value)
        assert optimal_face_vertices(game, widths, value, prices) == want, (rows, widths)
        several += len(want) > 1
    assert several >= 2


def test_corpus_faces_match_the_fraction_brute_force(monkeypatch):
    calls = []

    def record(rows, widths, value, prices):
        verts = optimal_face_vertices(rows, widths, value, prices)
        calls.append((rows, widths, value, verts))
        return verts

    # the games of minimax are the only callers of the face routine
    monkeypatch.setattr(credal.minimax, "optimal_face_vertices", record)
    for case in load_corpus():
        # a fresh case per expectation enumerates every face a lone query does
        for exp in case.expectations:
            assert run_expectation(load_case(case.id), exp).ok, (case.id, exp.op)
    assert len(calls) >= 20
    assert sum(len(verts) > 1 for *_args, verts in calls) >= 5
    for rows, widths, value, verts in calls:
        fractions = [[F(v, d) for v in nums] for nums, d in rows]
        assert verts == _general_face(fractions, widths, value)


def test_a_certified_optimum_is_its_whole_face(monkeypatch):
    # every prior, posterior, signal-blind and matrix game of every family:
    # where the final tableau certifies the optimum unique, the enumerated
    # face is that one point, which the games report without enumerating
    answers = {}
    solve = credal.linprog.block_game

    def record(rows, widths):
        answer = solve(rows, widths)
        answers[tuple(rows), tuple(widths)] = answer
        return answer

    monkeypatch.setattr(credal.linprog, "block_game", record)
    monkeypatch.setattr(credal.minimax, "block_game", record)
    _solve_every_block_game_family()
    for dp in [*random_games(200), *_tied_problems()]:
        solve_ignoring(dp)
    seen = {True: 0, False: 0}
    for (rows, widths), (value, w, prices, unique) in answers.items():
        if unique:
            assert optimal_face_vertices(list(rows), list(widths), value, prices) == [w]
        seen[unique] += 1
    # 1144 and 300 when the constant-rule game lost its marginal cross-check
    assert seen[True] >= 1000 and seen[False] >= 200, seen


@pytest.mark.parametrize(
    "value, prices, message",
    (
        (F(1, 2), (1, 0), "do not certify"),  # a mixture, but not optimal
        (0, (F(1, 2), F(1, 2)), "do not certify"),  # below the value
        (1, (F(1, 2), F(1, 2)), "do not certify"),  # above the value
        (F(1, 2), (F(3, 2), F(-1, 2)), "not a row mixture"),
        (F(1, 2), (1, 1), "not a row mixture"),
        (F(1, 2), (1,), "not a row mixture"),
    ),
)
def test_forged_face_certificate_is_refused(value, prices, message):
    # matching pennies: value 1/2, prices (1/2, 1/2)
    rows = _game([[1, 0], [0, 1]])
    assert optimal_face_vertices(rows, [2], F(1, 2), (F(1, 2), F(1, 2))) == [
        (F(1, 2), F(1, 2))
    ]
    with pytest.raises(InternalCheckError, match=message):
        optimal_face_vertices(rows, [2], value, prices)

