"""The integer face enumerator against the Fraction brute force it replaced."""

import random
from fractions import Fraction

import credal.minimax
from credal.corpus import load_corpus, run_case
from credal.linprog import EQ, LE, block_game, make_lp, optimal_face_vertices

import face_oracle

F = Fraction


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
    equal in every block and all-zero rows, so faces are often flat."""
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
    return rows, widths


def test_random_faces_match_the_fraction_brute_force():
    rng = random.Random(2024)
    seen = {"several": 0, "single": 0, "empty": 0, "two blocks": 0}
    for _ in range(120):
        rows, widths = _random_game(rng)
        value, _w, _prices = block_game(rows, widths)
        for v in (value, value - 1, value + F(1, 2)):
            want = _general_face(rows, widths, v)
            assert optimal_face_vertices(rows, widths, v) == want, (rows, widths, v)
            if not want:
                seen["empty"] += 1
            elif len(want) > 1:
                seen["several"] += 1
                seen["two blocks"] += len(widths) > 1
            else:
                seen["single"] += 1
    assert all(count >= 30 for count in seen.values()), seen


def test_corpus_faces_match_the_fraction_brute_force(monkeypatch):
    calls = []

    def record(rows, widths, value):
        calls.append((rows, widths, value))
        return optimal_face_vertices(rows, widths, value)

    # the games of minimax are the only callers of the face routine
    monkeypatch.setattr(credal.minimax, "optimal_face_vertices", record)
    for case in load_corpus():
        assert run_case(case).ok, case.id
    assert len(calls) >= 20
    for rows, widths, value in calls:
        assert optimal_face_vertices(rows, widths, value) == _general_face(
            rows, widths, value
        )
