"""Exact LP core: frozen small cases, duality invariants, face enumeration."""

import random
from fractions import Fraction

import pytest

import credal.linprog
from credal.linprog import (
    EQ,
    LE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    DimensionError,
    InternalCheckError,
    LinearProgram,
    SizeLimitError,
    block_game,
    lp_solve,
    _bareiss,
    _face_vertices,
    _solve_int,
    _verify_infeasible,
    _verify_optimal,
    optimal_face_vertices,
    refuse_above,
    zero_sum_value,
)
from credal.rationals import common_denominator

import certificate_oracle
import face_oracle
from face_oracle import make_lp

F = Fraction


def _game(rows):
    """Game rows as the integer pairs that block_game and the face read."""
    return [common_denominator(row) for row in rows]


def test_bound_attaining_minimum():
    # min x subject to x >= 0 only
    sol = lp_solve(make_lp([1], [], [], []))
    assert sol.status == OPTIMAL
    assert sol.value == 0
    assert sol.primal == (0,)


def test_simplex_corner():
    # min -x-y s.t. x+y <= 1, x,y >= 0
    sol = lp_solve(make_lp([-1, -1], [[1, 1]], [LE], [1]))
    assert sol.status == OPTIMAL
    assert sol.value == -1
    assert sum(sol.primal) == 1


def test_infeasible():
    sol = lp_solve(make_lp([1], [[1]], [LE], [-1]))
    assert sol.status == INFEASIBLE
    assert sol.value is None


@pytest.mark.parametrize(
    "rows, senses, rhs, lower_bounds",
    [
        ([[1]], [LE], [-1], None),
        ([[1, 1]], [EQ], [-1], None),
        # x >= 2, a row the tableau flips, and x <= 1
        ([[-1], [1]], [LE, LE], [-2, 1], None),
        # x + y = 1 and x + y <= 0, with a free t on a row of its own
        ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], [EQ, LE, LE], [1, 0, 3], [0, 0, None]),
    ],
)
def test_an_infeasible_verdict_carries_a_farkas_certificate(
    monkeypatch, rows, senses, rhs, lower_bounds
):
    certificates = []

    def kept(lp, ys):
        certificates.append(ys)
        return _verify_infeasible(lp, ys)

    monkeypatch.setattr(credal.linprog, "_verify_infeasible", kept)
    lp = make_lp([0] * len(rows[0]), rows, senses, rhs, lower_bounds)
    assert lp_solve(lp).status == INFEASIBLE
    [ys] = certificates
    for forged in ([0] * len(ys), [-y for y in ys]):
        with pytest.raises(InternalCheckError, match="Farkas"):
            _verify_infeasible(lp, forged)


def test_unbounded():
    sol = lp_solve(make_lp([-1], [], [], []))
    assert sol.status == UNBOUNDED


def test_equality_and_free_variable():
    # min t s.t. t = 5 with t free
    sol = lp_solve(make_lp([1], [[1]], [EQ], [5], lower_bounds=[None]))
    assert sol.status == OPTIMAL and sol.value == 5


def test_only_le_and_eq_rows_over_nonnegative_or_free_variables():
    # the package builds no >= row and no other lower bound
    with pytest.raises(DimensionError, match="unknown sense"):
        make_lp([1, 1], [[1, 1]], [">="], [3])
    with pytest.raises(DimensionError, match="lower bounds must be 0 or None"):
        make_lp([1, 1], [[1, 1]], [LE], [3], lower_bounds=[1, 0])


def test_dimension_mismatch():
    with pytest.raises(DimensionError, match="row length 2 != 3"):
        LinearProgram(((1, 2), 1), (((1, 0), 1),), (LE,), (0, 0))
    with pytest.raises(DimensionError, match="rows, senses and rhs"):
        LinearProgram(((1,), 1), (((1, 0), 1),), (LE, LE), (0,))
    with pytest.raises(DimensionError, match="one lower bound"):
        LinearProgram(((1,), 1), (((1, 0), 1),), (LE,), (0, 0))


def test_lp_rows_are_scaled_once_when_built():
    # the objective, and each row with its right-hand side, become integer
    # numerators over the lcm of their denominators
    lp = make_lp([F(1, 2), 1], [[F(1, 3), F(1, 6)], [2, 0]], [LE, EQ], [F(1, 4), -1])
    assert lp.objective == ((1, 2), 2)
    assert lp.rows == (((4, 2, 3), 12), ((2, 0, -1), 1))
    with pytest.raises(DimensionError, match="row denominator 0 is not positive"):
        LinearProgram(((1,), 1), (((1, 1), 0),), (LE,), (0,))
    with pytest.raises(DimensionError, match="row denominator -1 is not positive"):
        LinearProgram(((1,), -1), (), (), (0,))


def test_beale_cycling_instance_terminates():
    # classic cycling instance for naive pivoting; Bland's rule must finish
    lp = make_lp(
        [F(-3, 4), 150, F(-1, 50), 6],
        [
            [F(1, 4), -60, F(-1, 25), 9],
            [F(1, 2), -90, F(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        [LE, LE, LE],
        [0, 0, 1],
    )
    sol = lp_solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == F(-1, 20)


def test_prediction_rule_lp():
    # two-signal prediction game: 4 extreme scenarios, predict-1 is worth 1/3
    rows = []
    gens = [
        [F(2, 3), F(1, 3), 0, 0],
        [0, F(1, 3), F(2, 3), 0],
        [F(2, 3), 0, 0, F(1, 3)],
        [0, 0, F(2, 3), F(1, 3)],
    ]
    for g in gens:
        rows.append([-1] + g)
    rows.append([0, 1, 1, 0, 0])
    rows.append([0, 0, 0, 1, 1])
    lp = make_lp(
        [1, 0, 0, 0, 0],
        rows,
        [LE, LE, LE, LE, EQ, EQ],
        [0, 0, 0, 0, 1, 1],
        lower_bounds=[None, 0, 0, 0, 0],
    )
    sol = lp_solve(lp)
    assert sol.status == OPTIMAL
    assert sol.value == F(1, 3)
    # dual prices on the scenario rows form a probability mixture
    mix = [-sol.dual[i] for i in range(4)]
    assert all(m >= 0 for m in mix)
    assert sum(mix) == 1


def _random_feasible_lp(rng, n, m):
    rows = []
    rhs = []
    base = [F(1, n)] * n  # interior point of the simplex
    for _ in range(m):
        row = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        slackness = F(rng.randint(0, 6), rng.randint(1, 4))
        rows.append(row)
        rhs.append(sum(a * b for a, b in zip(row, base)) + slackness)
    rows.append([1] * n)
    rhs.append(1)
    senses = [LE] * m + [EQ]
    obj = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    return make_lp(obj, rows, senses, rhs)


def test_random_lps_have_exact_certificates():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(2, 5)
        m = rng.randint(1, 4)
        lp = _random_feasible_lp(rng, n, m)
        sol = lp_solve(lp)
        assert sol.status == OPTIMAL
        # independent re-check of duality from the returned certificates
        lp = face_oracle.fraction_lp(lp)
        primal_value = sum(c * x for c, x in zip(lp.objective, sol.primal))
        dual_value = sum(y * b for y, b in zip(sol.dual, lp.rhs))
        reduced = [
            c - sum(sol.dual[i] * lp.rows[i][j] for i in range(len(lp.rows)))
            for j, c in enumerate(lp.objective)
        ]
        assert primal_value == sol.value
        assert primal_value == dual_value  # all lower bounds are zero here
        assert all(r >= 0 for r in reduced)


def test_matching_pennies():
    value, p, q = zero_sum_value([[1, -1], [-1, 1]])
    assert value == 0
    assert p == (F(1, 2), F(1, 2))
    assert q == (F(1, 2), F(1, 2))


def test_single_entry_game():
    value, p, q = zero_sum_value([[5]])
    assert value == 5 and p == (1,) and q == (1,)


def test_binary_prediction_game():
    # actions vs two point-mass scenarios, 0/1 loss
    value, p, _ = zero_sum_value([[0, 1], [1, 0]])
    assert value == F(1, 2)
    assert p == (F(1, 2), F(1, 2))


def test_transpose_negation_identity():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = [
            [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)
        ]
        v1, _, _ = zero_sum_value(M)
        neg_t = [[-M[i][j] for i in range(m)] for j in range(n)]
        v2, _, _ = zero_sum_value(neg_t)
        assert v1 == -v2


def test_face_of_whole_simplex():
    verts = _face_vertices(_game([[0, 0]]), [2], 0)
    assert verts == [(0, 1), (1, 0)]


def test_face_single_vertex():
    verts = _face_vertices(_game([[1, 0]]), [2], 0)
    assert verts == [(0, 1)]


def test_face_with_inactive_row_constraint():
    # the whole 3-simplex is optimal when the row is tight everywhere
    verts = _face_vertices(_game([[F(2, 3), F(2, 3), F(2, 3)]]), [3], F(2, 3))
    assert verts == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_face_on_a_product_of_simplices():
    # matching pennies played twice: each block must mix evenly
    rows = _game([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
    value, _w, _prices, _unique = block_game(rows, [2, 2])
    assert value == 1
    verts = _face_vertices(rows, [2, 2], value)
    assert verts == [(F(1, 2), F(1, 2), F(1, 2), F(1, 2))]


def test_face_not_attained_returns_empty():
    # below the game value no candidate is feasible
    assert _face_vertices(_game([[1, 0]]), [2], -1) == []


def test_face_dimension_limit():
    # the 13-variable simplex has 13 candidate systems; the product of
    # four of them has C(52, 48) = 270725
    n = 13
    assert len(_face_vertices([], [n], 0)) == n
    with pytest.raises(SizeLimitError, match="candidate systems, got 270725$"):
        _face_vertices([], [n] * 4, 0)


def test_face_limit_counts_the_reduced_system():
    # four blocks of 13 and one game row, priced, so an equality: with
    # every column at the same price no column is dropped, and C(52, 48)
    # candidates remain; with one cheap column per block a single
    # candidate remains
    n = 13
    with pytest.raises(SizeLimitError, match="candidate systems, got 270725$"):
        optimal_face_vertices(_game([[0] * (4 * n)]), [n] * 4, 0, (1,))
    row = [0 if j % n == 5 else 1 for j in range(4 * n)]
    verts = optimal_face_vertices(_game([row]), [n] * 4, 0, (1,))
    assert verts == [tuple(int(j % n == 5) for j in range(4 * n))]


def test_face_puts_zeros_back_at_dropped_columns():
    # the third action costs 2 under the prices (1/2, 1/2), above the
    # block minimum 1/2, so it is 0 on the face and is not enumerated
    rows = _game([[1, 0, 2], [0, 1, 2]])
    value, _w, prices, _unique = block_game(rows, [3])
    assert (value, prices) == (F(1, 2), (F(1, 2), F(1, 2)))
    assert optimal_face_vertices(rows, [3], value, prices) == [(F(1, 2), F(1, 2), 0)]


def test_face_vertices_deterministic():
    a = _face_vertices(_game([[0, 0, 0]]), [3], 0)
    b = _face_vertices(_game([[0, 0, 0]]), [3], 0)
    assert a == b == sorted(b)


@pytest.mark.parametrize(
    "rows, message",
    (
        ([((0, 1, 5), 1), ((1, 0, 5), 1)], "row length 3 != 2"),  # a column too many
        ([((0, 1), 1), ((1,), 1)], "row length 1 != 2"),  # a column short
        ([((0, 1), 1), ((1, 0), 0)], "row denominator 0 is not positive"),
        ([((0, -1), -1), ((1, 0), 1)], "row denominator -1 is not positive"),
    ),
)
def test_game_rows_of_the_wrong_shape_are_refused(rows, message):
    # matching pennies over one block of width 2; each malformed row set
    # is refused before any LP is built or any column is read
    with pytest.raises(DimensionError, match=message):
        block_game(rows, [2])
    with pytest.raises(DimensionError, match=message):
        optimal_face_vertices(rows, [2], F(1, 2), (F(1, 2), F(1, 2)))


def test_game_value_matches_lp_duality_on_random_games():
    rng = random.Random(3)
    for _ in range(25):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        M = [
            [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        value, p, q = zero_sum_value(M)
        # saddle: no pure deviation helps either player
        for j in range(n):
            assert sum(p[i] * M[i][j] for i in range(m)) <= value
        for i in range(m):
            assert sum(q[j] * M[i][j] for j in range(n)) >= value


def test_rank_deficient_equalities_keep_duals():
    # Membership query whose equality rows have rank 4 out of 7 (the
    # columns span a 3-flat inside the simplex).  Degenerate phase-1
    # pivoting used to drop a dependent row set here and the dual
    # extraction then hit a singular basis.
    gens = [
        ("0", "0", "1/3", "1/3", "1/3", "0"),
        ("0", "0", "1/3", "0", "2/9", "4/9"),
        ("1/6", "1/18", "1/9", "1/3", "1/3", "0"),
        ("1/6", "1/18", "1/9", "0", "2/9", "4/9"),
        ("0", "0", "2/3", "1/6", "1/6", "0"),
        ("0", "0", "2/3", "0", "1/9", "2/9"),
        ("1/3", "1/9", "2/9", "1/6", "1/6", "0"),
        ("1/3", "1/9", "2/9", "0", "1/9", "2/9"),
    ]
    cols = [[F(v) for v in g] for g in gens]
    point = cols[4]
    rows = [[c[d] for c in cols] for d in range(6)] + [[1] * 8]
    lp = make_lp([0] * 8, rows, [EQ] * 7, list(point) + [1])
    sol = lp_solve(lp)
    # lp_solve verifies its certificate before returning, so reaching
    # optimal at all is the regression check
    assert sol.status == OPTIMAL
    assert sol.value == 0


# min t over w on the 2-simplex with w_0 <= t and w_1 <= t: the block-game
# shape, t free; its certificate is x = (t, w) = (1/2, 1/2, 1/2) and
# y = (-1/2, -1/2, 1/2)
_GAME_LP = make_lp(
    [1, 0, 0], [[-1, 1, 0], [-1, 0, 1], [0, 1, 1]], [LE, LE, EQ], [0, 0, 1],
    lower_bounds=[None, 0, 0],
)


def test_block_game_lp_certificate():
    sol = lp_solve(_GAME_LP)
    assert sol.primal == (F(1, 2), F(1, 2), F(1, 2))
    assert sol.dual == (F(-1, 2), F(-1, 2), F(1, 2))


@pytest.mark.parametrize(
    "x, y, message",
    [
        ((F(1, 2), F(-1, 2), F(3, 2)), None, "primal bound violated"),
        ((0, F(1, 2), F(1, 2)), None, "<= row violated"),
        ((1, 1, 1), None, "equality row violated"),
        (None, (F(1, 2), F(-3, 2), F(-1, 2)), "dual sign on <= row"),
        (None, (F(-1, 2), F(-1, 4), F(1, 2)), "free variable with nonzero reduced cost"),
        (None, (F(-1, 2), F(-1, 2), 1), "negative reduced cost at optimum"),
        ((1, F(1, 2), F(1, 2)), None, r"complementary slackness \(rows\)"),
        (None, (-1, 0, 0), r"complementary slackness \(bounds\)"),
    ],
)
def test_tampered_certificate_is_refused(x, y, message):
    # Each tampered half passes every check made before the one named.
    # Strong duality has no check of its own: once both slackness checks
    # pass, c.x - y.b is the sum of their terms, zero.
    # The Fraction verifier of the oracle refuses each with the same message;
    # the package's takes each half as its integer pair.
    sol = lp_solve(_GAME_LP)
    x = sol.primal if x is None else tuple(F(v) for v in x)
    y = sol.dual if y is None else tuple(F(v) for v in y)
    pairs = common_denominator(x), common_denominator(y)
    errors = []
    for verify, (a, b) in ((_verify_optimal, pairs), (certificate_oracle._verify_optimal, (x, y))):
        with pytest.raises(InternalCheckError, match=message) as info:
            verify(_GAME_LP, a, b)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


# ---------------------------------------------------------------------------
# fraction-free elimination kernel


def _det(rows):
    """Determinant by Fraction elimination, independent of the kernel."""
    mat = [[F(v) for v in r] for r in rows]
    det = F(1)
    for c in range(len(mat)):
        piv = next((i for i in range(c, len(mat)) if mat[i][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def _solve(rows, rhs, n):
    """The kernel's unique solution of ``rows.x = rhs`` as fractions, or None."""
    sol = _solve_int([common_denominator([*r, b])[0] for r, b in zip(rows, rhs)], n)
    if sol is None:
        return None
    nums, den = sol
    return tuple(F(v, den) for v in nums)


def _rank(rows, n):
    return len(_bareiss([common_denominator(r)[0] for r in rows], n)[0])


def _hilbert(n, shift=1):
    return [[F(1, i + j + shift) for j in range(n)] for i in range(n)]


def test_kernel_unique_system():
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    assert _solve(rows, [0, F(-9, 2), 0], 3) == (1, -2, F(1, 2))
    nums, den = _solve_int([[0, 2, 4], [3, 1, 5]], 2)  # swap needed; det < 0
    assert den > 0 and (F(nums[0], den), F(nums[1], den)) == (F(1), F(2))


def test_kernel_inconsistent_and_underdetermined_systems():
    assert _solve([[1, 1], [2, 2]], [1, 3], 2) is None
    assert _solve([[1, 1]], [1], 2) is None
    assert _solve([[1, 1, 0], [0, 0, 0]], [1, 0], 3) is None
    assert _solve([[0, 0]], [5], 2) is None
    assert _solve([], [], 0) == ()


def test_kernel_redundant_rows():
    rows = [[1, 0], [0, 1], [1, 1], [2, 2], [0, 0]]
    assert _solve(rows, [1, 2, 3, 6, 0], 2) == (1, 2)
    assert _solve(rows, [1, 2, 3, 7, 0], 2) is None


def test_kernel_rank_of_zero_and_duplicate_rows():
    assert _rank([], 3) == 0
    assert _rank([[0, 0, 0], [0, 0, 0]], 3) == 0
    assert _rank([[0, 0, 0], [1, 2, 3], [2, 4, 6], [F(1, 2), 1, F(3, 2)]], 3) == 1
    assert _rank([[1, 2, 3], [1, 2, 3], [0, 1, 1], [1, 3, 4]], 3) == 2
    assert _rank([[0, 1], [1, 0], [1, 1]], 2) == 2


def test_kernel_matches_fraction_gauss_jordan_on_hilbert_type_matrix():
    rng = random.Random(11)
    h = _hilbert(9)
    for _ in range(3):
        b = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)]
        x = _solve(h, b, 9)
        assert x == face_oracle.solve_unique(h, b, 9)
        assert all(sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(h, b))
    assert _rank(h, 9) == face_oracle.matrix_rank(h, 9) == 9
    singular = h[:8] + [[a + F(1, 3) * b for a, b in zip(h[0], h[1])]]
    assert _rank(singular, 9) == face_oracle.matrix_rank(singular, 9) == 8
    assert _solve(singular, [1] * 9, 9) is None
    assert face_oracle.solve_unique(singular, [1] * 9, 9) is None


def test_kernel_agrees_with_fraction_gauss_jordan_on_random_systems():
    rng = random.Random(5)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 4)
        rows = [
            [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.3:
            rows.append(list(rows[0]))
        rhs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in rows]
        assert _solve(rows, rhs, n) == face_oracle.solve_unique(rows, rhs, n)
        assert _rank(rows, n) == face_oracle.matrix_rank(rows, n)


def test_kernel_entries_are_the_sub_determinants():
    # Integer rows of a 7x7 Hilbert-type matrix with a right-hand side.
    # Its leading minors are nonzero, so no rows are swapped, and after k
    # steps every entry is a (k+1)-minor (non-pivot rows) or a k-minor
    # with one column replaced (pivot rows): never larger than those
    # determinants, unlike plain integer elimination, whose entries grow
    # with every step.
    n = 7
    a = [common_denominator(row + [F(i + 1, 2)])[0] for i, row in enumerate(_hilbert(n))]
    for k in range(1, n + 1):
        mat = [list(r) for r in a]
        pivots, den = _bareiss(mat, k)
        assert pivots == list(range(k))
        assert den == _det([r[:k] for r in a[:k]])
        for j in range(n + 1):
            for t in range(k):
                cols = [j if c == t else c for c in range(k)]
                assert mat[t][j] == _det([[r[c] for c in cols] for r in a[:k]])
            for i in range(k, n):
                cols = list(range(k)) + [j]
                assert mat[i][j] == _det([[r[c] for c in cols] for r in a[:k] + [a[i]]])


def test_refuse_above_passes_at_the_limit_and_refuses_one_past_it():
    refuse_above(10, 10, "things")
    with pytest.raises(SizeLimitError, match="^things limited to 10, got 11$"):
        refuse_above(10, 11, "things")
    with pytest.raises(
        SizeLimitError, match=r"^grid search limited to 5 row evaluations, got 6 \(3 x 2\)$"
    ):
        refuse_above(5, 6, "grid search", "row evaluations", "3 x 2")
