"""The game layer's sums and exact checks in ``Fraction``, kept as test oracles.

These are the functions ``credal.linprog``, ``credal.minimax`` and
``credal.core`` used before those checks moved to integers over
positive common denominators: the LP certificate check, the block
game's LP built from ``Fraction`` rows and its best reply, a
generator's expected loss, the mixed joint of a bookie mixture, the
three-clause saddle check and the sum and sign check of a joint mass.
A rule's action loss, its worst prior and posterior losses, the
weak check's first violating posterior product and the dynamic
falsifier's pair scan are kept as they were summed and compared in
``Fraction`` too, and the block game's crash start as it was first
computed, from its own integer scaling.  Tests compare the package
against them: the same errors with the same messages, the same values,
witnesses and reports.
"""

from __future__ import annotations

import math
from fractions import Fraction

from credal.consistency import PairWitness
from credal.core import (
    CredalSet,
    DecisionProblem,
    DecisionRule,
    JointDistribution,
    LossFunction,
    support_x,
)
from credal.linprog import EQ, LE, InternalCheckError, LinearProgram
from credal.minimax import SaddleReport
from credal.rationals import rat, rat_matrix

from face_oracle import ONE, ZERO, fraction_lp, make_lp


def _verify_optimal(lp: LinearProgram, x, y):
    """Exact feasibility and complementary-slackness checks, which imply strong
    duality (``c.x - y.b = r.x + y.(A.x - b)`` exactly); returns ``c.x``."""
    lp = fraction_lp(lp)
    n = len(lp.objective)
    for j in range(n):
        if lp.lower_bounds[j] is not None and x[j] < 0:
            raise InternalCheckError("primal bound violated")
    reduced = []
    for j in range(n):
        r = lp.objective[j] - sum(
            (y[i] * lp.rows[i][j] for i in range(len(lp.rows))), ZERO
        )
        reduced.append(r)
        if lp.lower_bounds[j] is None:
            if r != 0:
                raise InternalCheckError("free variable with nonzero reduced cost")
        elif r < 0:
            raise InternalCheckError("negative reduced cost at optimum")
    for i, row in enumerate(lp.rows):
        act = sum((row[j] * x[j] for j in range(n)), ZERO)
        if lp.senses[i] == LE:
            if act > lp.rhs[i]:
                raise InternalCheckError("<= row violated")
            if y[i] > 0:
                raise InternalCheckError("dual sign on <= row")
        elif act != lp.rhs[i]:
            raise InternalCheckError("equality row violated")
        if y[i] * (act - lp.rhs[i]) != 0:
            raise InternalCheckError("complementary slackness (rows)")
    for j in range(n):
        if lp.lower_bounds[j] is not None and reduced[j] * x[j] != 0:
            raise InternalCheckError("complementary slackness (bounds)")
    return sum((lp.objective[j] * x[j] for j in range(n)), ZERO)


def block_game_lp(rows, widths) -> LinearProgram:
    """The LP of ``min_w max_i rows[i].w`` over a product of simplices, built
    from ``Fraction`` rows: ``min t`` subject to ``rows[i].w <= t``, then one
    ``= 1`` row per block, with ``t`` free and ``w >= 0``."""
    rows = rat_matrix(rows)
    n = sum(widths)
    blocks = []
    start = 0
    for width in widths:
        blocks.append([ONE if start <= j < start + width else ZERO for j in range(n)])
        start += width
    return make_lp(
        (ONE,) + (ZERO,) * n,
        [(-ONE, *row) for row in rows] + [(ZERO, *b) for b in blocks],
        (LE,) * len(rows) + (EQ,) * len(widths),
        (ZERO,) * len(rows) + (ONE,) * len(widths),
        (None,) + (ZERO,) * n,
    )


def _best_reply(rows, widths, prices):
    """Value of the best block-wise reply to the row mixture ``prices``, the
    columns that attain it (zero reduced cost) and their count per block."""
    if len(prices) != len(rows) or any(q < 0 for q in prices) or sum(prices) != 1:
        raise InternalCheckError("prices are not a row mixture")
    costs = [sum(q * row[j] for q, row in zip(prices, rows)) for j in range(sum(widths))]
    value, keep, kept_widths, start = ZERO, [], [], 0
    for width in widths:
        low = min(costs[start : start + width])
        value += low
        block = [j for j in range(start, start + width) if costs[j] == low]
        keep += block
        kept_widths.append(len(block))
        start += width
    return value, keep, kept_widths


def game_start(rows, widths):
    """The crash start of the block game LP as ``credal.linprog`` computed
    it from its own arithmetic: each row scaled to integers over the lcm of
    the denominators, column sums for the best pure reply to the uniform
    mixture of rows, then a scan for the worst row at that rule; None on
    a tie in any of the three."""
    if not rows:
        return None
    lcm = math.lcm(*[d for _, d in rows])
    scaled = [nums if d == lcm else [v * (lcm // d) for v in nums] for nums, d in rows]
    costs = list(map(sum, zip(*scaled)))
    rule, end = [], 0
    for width in widths:
        block = costs[end : end + width]
        if not block or block.count(min(block)) > 1:
            return None
        rule.append(end + block.index(min(block)))
        end += width
    vals = [sum([r[j] for j in rule]) for r in scaled]
    worst = max(vals)
    if vals.count(worst) > 1:
        return None
    i = vals.index(worst)
    row, end = scaled[i], 0
    for width, j in zip(widths, rule):
        if row[end : end + width].count(row[j]) > 1:
            return None
        end += width
    blocks = [(len(rows) + b, 2 + j) for b, j in enumerate(rule)]
    return (*blocks, (i, 0 if worst >= 0 else 1))


def _action_losses(loss: LossFunction, q) -> tuple[Fraction, ...]:
    """Expected loss of each action under the (unnormalised) Y-vector ``q``."""
    return tuple(
        sum((q[yi] * loss.table[yi][ai] for yi in range(loss.space.ny)), ZERO)
        for ai in range(loss.space.na)
    )


def _mixed_mass(gens, mixture):
    """Mass matrix of the joint ``sum_i mixture[i] * gens[i]``."""
    space = gens[0].space
    return tuple(
        tuple(
            sum((w * g.mass[xi][yi] for w, g in zip(mixture, gens)), ZERO)
            for yi in range(space.ny)
        )
        for xi in range(space.nx)
    )


def expected_loss(g: JointDistribution, rule: DecisionRule, loss: LossFunction) -> Fraction:
    total = ZERO
    for xi in range(g.space.nx):
        row = g.mass[xi]
        weights = rule.per_x[xi].weights
        for yi, mass in enumerate(row):
            if mass != 0:
                total += mass * sum(
                    (w * loss.table[yi][ai] for ai, w in enumerate(weights)), ZERO
                )
    return total


def worst_case_loss(p, rule: DecisionRule, loss: LossFunction):
    """Max expected loss over the generators, with the first witness index."""
    best = None
    witness = None
    for i, g in enumerate(p.generators):
        v = expected_loss(g, rule, loss)
        if best is None or v > best:
            best, witness = v, i
    return best, witness


def action_loss(loss: LossFunction, weights) -> tuple[Fraction, ...]:
    """Per-outcome expected loss of a randomized action."""
    return tuple(
        sum((w * loss.table[yi][ai] for ai, w in enumerate(weights)), ZERO)
        for yi in range(loss.space.ny)
    )


def worst_case_posterior_loss(
    p: CredalSet, rule: DecisionRule, loss: LossFunction, x
) -> Fraction:
    """Worst expected loss of ``rule`` under the conditioned set at ``x``.

    Zero when no generator gives ``x`` positive probability; such
    signals carry no posterior risk.
    """
    xi = p.space.x_index(x)
    losses = action_loss(loss, rule.per_x[xi].weights)
    best = None
    for g in p.generators:
        px = sum(g.mass[xi], ZERO)
        if px == 0:
            continue
        v = sum((g.mass[xi][yi] * losses[yi] for yi in range(p.space.ny)), ZERO) / px
        if best is None or v > best:
            best = v
    return ZERO if best is None else best


def _first_violating_product(dp: DecisionProblem, choices, bound) -> DecisionRule | None:
    """The lexicographically first rule of ``itertools.product(*choices)``
    whose prior worst-case loss exceeds ``bound``, or None.

    With L[i][x][k] generator i's expected loss at x under choice k, the
    largest prior worst case over all completions of a prefix is
    max_i (prefix_i + sum over the later x' of max_k L[i][x'][k]): the max
    over i commutes with the max over completions, and the sum splits by
    signal.  So the first choice at each signal, in order, whose bound
    still exceeds ``bound`` gives the first violating product.
    """
    per_y = [[action_loss(dp.loss, a.weights) for a in opts] for opts in choices]
    losses = [
        [
            [sum((m * v for m, v in zip(g.mass[xi], ly)), ZERO) for ly in opts]
            for xi, opts in enumerate(per_y)
        ]
        for g in dp.credal.generators
    ]
    # rest[i]: sum of max_k L[i][x'][k] over the signals x' after this one
    rest = [sum((max(row) for row in li), ZERO) for li in losses]
    prefix = [ZERO] * len(losses)
    picked = []
    for xi, opts in enumerate(choices):
        rest = [r - max(li[xi]) for r, li in zip(rest, losses)]
        for k, act in enumerate(opts):
            if max(p + li[xi][k] + r for p, li, r in zip(prefix, losses, rest)) > bound:
                break
        else:
            return None
        prefix = [p + li[xi][k] for p, li in zip(prefix, losses)]
        picked.append(act)
    return DecisionRule(space=dp.space, per_x=tuple(picked))


def _below(mi, mj):
    """One walk over two loss vectors: None when some loss of ``mi``
    exceeds ``mj``'s, else whether it is smaller everywhere and somewhere."""
    everywhere, somewhere = True, False
    for a, b in zip(mi, mj):
        if a > b:
            return None
        if a < b:
            somewhere = True
        else:
            everywhere = False
    return everywhere, somewhere


def dynamic_pair_scan(dp: DecisionProblem, candidates):
    """The dynamic falsifier's scan of the ordered pairs of ``candidates``,
    comparing ``Fraction`` losses: ``(result, witness, strict-variant
    witness)``, the witness not replayed."""
    live = support_x(dp.credal)
    big_m = [worst_case_loss(dp.credal, r, dp.loss)[0] for r in candidates]
    m_vec = [
        tuple(worst_case_posterior_loss(dp.credal, r, dp.loss, x) for x in live)
        for r in candidates
    ]
    strict_only = None
    n = len(candidates)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            mi, mj = m_vec[i], m_vec[j]
            below = _below(mi, mj)
            if below is None:
                continue
            strict_all, strict_some = below
            condition = None
            if big_m[i] > big_m[j]:
                condition = "condition-1"
            elif strict_all and big_m[i] >= big_m[j]:
                condition = "condition-2"
            is_strict_variant = strict_some and big_m[i] >= big_m[j]
            if condition is None and (strict_only is not None or not is_strict_variant):
                continue
            witness = PairWitness(
                delta=candidates[i],
                delta_prime=candidates[j],
                condition=condition or "strict-variant",
                posterior=tuple((x, a, b) for x, a, b in zip(live, mi, mj)),
                prior=(big_m[i], big_m[j]),
                strict_variant=is_strict_variant,
            )
            if condition is not None:
                return "inconsistent", witness, strict_only
            strict_only = witness
    return "unknown", None, strict_only


def verify_saddle(dp: DecisionProblem, mixture, rule: DecisionRule) -> SaddleReport:
    gens = dp.credal.generators
    mixture = tuple(rat(w) for w in mixture)
    if len(mixture) != len(gens):
        raise ValueError("mixture length != number of generators")
    if any(w < 0 for w in mixture) or sum(mixture, ZERO) != 1:
        raise ValueError("mixture must be a probability vector")

    per_gen = [expected_loss(g, rule, dp.loss) for g in gens]
    value = sum((w * v for w, v in zip(mixture, per_gen)), ZERO)

    agent_best = sum(
        (min(_action_losses(dp.loss, row)) for row in _mixed_mass(gens, mixture)),
        ZERO,
    )

    bookie_best = max(per_gen)

    failing = []
    if value != agent_best:
        failing.append("agent-deviation")
    if value != bookie_best:
        failing.append("bookie-deviation")
    if any(mixture[i] > 0 and per_gen[i] != bookie_best for i in range(len(gens))):
        failing.append("support-not-tight")
    return SaddleReport(
        holds=not failing,
        value=value,
        agent_best_response=agent_best,
        bookie_best_response=bookie_best,
        failing=tuple(failing),
    )


def check_mass(space, mass):
    """The shape, sign and sum checks of :func:`credal.core.joint` on ``mass``."""
    if len(mass) != space.nx:
        raise ValueError("mass needs one row per x label")
    total = ZERO
    for row in mass:
        if len(row) != space.ny:
            raise ValueError("mass row length != number of y labels")
        for v in row:
            if v < 0:
                raise ValueError("negative probability mass")
            total += v
    if total != 1:
        raise ValueError("mass must sum to exactly 1, got %s" % total)
