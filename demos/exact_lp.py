"""The exact simplex layer on its own.

Everything above it reduces to linear programs over the rationals, each
row scaled once to integers over a positive denominator when its LP is
built, so the solver never rounds: optimality is certified by an exact
dual, and ties are real ties rather than epsilon artifacts.  Three views:

* a zero-sum game (rock, paper, scissors with a doubled scissors-rock
  payoff) solved to its exact mixed equilibrium,
* a two-variable LP with its primal and dual solutions side by side,
* a game whose optimal mixtures form an edge, where the optimal face
  comes back as its two vertices instead of an arbitrary point on it.
"""

from fractions import Fraction

from credal.linprog import (
    LE,
    LinearProgram,
    block_game,
    lp_solve,
    optimal_face_vertices,
    zero_sum_value,
)
from credal.rationals import common_denominator


def main():
    print("-- rock paper scissors, scissors beats rock double --")
    payoff = [
        ["0", "-1", "2"],
        ["1", "0", "-1"],
        ["-2", "1", "0"],
    ]
    value, row_mix, col_mix = zero_sum_value(payoff)
    print("value:", value)
    print("row mixture:", ", ".join(str(w) for w in row_mix))
    print("col mixture:", ", ".join(str(w) for w in col_mix))

    print()
    print("-- minimize 2x + 3y subject to x + y >= 4, x - y <= 2 --")
    # rows are <= or =, so x + y >= 4 is written -x - y <= -4; the
    # objective, and each row with its right-hand side last, are integer
    # numerators over a positive denominator, all 1 here
    lp = LinearProgram(
        objective=common_denominator([2, 3]),
        rows=(common_denominator([-1, -1, -4]), common_denominator([1, -1, 2])),
        senses=(LE, LE),
        lower_bounds=(0, 0),
    )
    sol = lp_solve(lp)
    print("status:", sol.status)
    print("minimum:", sol.value, "at x,y =", ", ".join(str(v) for v in sol.primal))
    print("dual prices:", ", ".join(str(y) for y in sol.dual))
    # strong duality, checked by hand: b.y == c.x
    print("rhs . dual =", -4 * sol.dual[0] + 2 * sol.dual[1])

    print()
    print("-- bet on rain, bet on sun, or stay home (a flat edge) --")
    # one loss row per weather scenario, one column per action; the
    # mixtures form one simplex block of width 3.  A game row is handed
    # over as integer numerators over a positive denominator: 0, 1, 1/2
    # is (0, 2, 1) over 2.
    half = Fraction(1, 2)
    rows = [common_denominator(row) for row in ([0, 1, half], [1, 0, half])]
    print("game rows:", "; ".join("%s over %d" % (nums, d) for nums, d in rows))
    value, mix, prices, _unique = block_game(rows, [3])
    print("value:", value, "at mixture", ", ".join(str(w) for w in mix))
    # the scenario prices certify the value; every action they price
    # above the cheapest is 0 on the face and is never enumerated
    print("scenario prices:", ", ".join(str(q) for q in prices))
    for v in optimal_face_vertices(rows, [3], value, prices):
        print("  optimal vertex:", ", ".join(str(c) for c in v))


if __name__ == "__main__":
    main()
