"""The integer checks of the game layer against their Fraction oracles.

``tests/certificate_oracle.py`` keeps the LP certificate check, the
block game's LP built from ``Fraction`` rows and its best reply, the
expected and worst-case losses (prior and posterior), the weak check's
first violating posterior product, the mixed joint, the saddle check
and the joint-mass check as they were computed in ``Fraction``.  On seeded
random inputs, sound and tampered, the package must raise the same
errors with the same messages and return equal values and reports.  The
package reads a worst posterior loss from the posterior game's rows over
the distinct conditionals; the oracle takes it generator by generator.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import credal.linprog
from credal.consistency import (
    _dynamic_candidates,
    _first_violating_product,
    falsify_dynamic_consistency,
)
from credal.corpus import load_case, load_corpus, run_expectation
from credal.core import (
    DecisionProblem,
    ProblemSpace,
    RandomizedAction,
    _action_losses,
    credal_set,
    joint,
    loss_function,
    posterior_y,
    support_x,
)
from credal.linprog import (
    EQ,
    LE,
    OPTIMAL,
    InternalCheckError,
    SizeLimitError,
    _best_reply,
    _verify_optimal,
    block_game,
    lp_solve,
    zero_sum_value,
)
from credal.minimax import (
    _rule_risks,
    expected_loss,
    solve_a_posteriori,
    solve_a_priori,
    verify_saddle,
    worst_case_loss,
    worst_case_posterior_loss,
)
from credal.rationals import common_denominator
from credal.sampling import (
    random_credal_set,
    random_joint,
    random_loss,
    random_rule,
    simplex_point,
)

import certificate_oracle as oracle
from face_oracle import make_lp
from problems import games_problem, random_games
import tableau_oracle

F = Fraction


def _labels(n):
    return tuple(str(i) for i in range(n))


def _space(rng):
    return ProblemSpace(
        _labels(rng.choice((1, 2, 3))), _labels(rng.choice((2, 3))), _labels(rng.choice((2, 3)))
    )


def _rational(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 6))


def _outcome(call, *args):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return "ok", call(*args)
    except (InternalCheckError, ValueError, TypeError) as e:
        return type(e), str(e)


def _tampered(rng, values):
    values = list(values)
    j = rng.randrange(len(values))
    values[j] = rng.choice((F(0), -values[j], values[j] + _rational(rng)))
    return tuple(values)


def test_random_certificates_and_their_tamperings_agree():
    rng = random.Random(1501)
    refused = 0
    for _ in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[_rational(rng) for _ in range(n)] for _ in range(m)]
        senses = [rng.choice((LE, LE, EQ)) for _ in range(m)]
        lower = [rng.choice((0, 0, None)) for _ in range(n)]
        # a bounded objective: nonnegative costs on nonnegative variables, 0 on free ones
        cost = [0 if b is None else abs(_rational(rng)) for b in lower]
        lp = make_lp(cost, rows, senses, [_rational(rng) for _ in range(m)], lower)
        sol = lp_solve(lp)
        if sol.status != OPTIMAL:
            continue
        assert oracle._verify_optimal(lp, sol.primal, sol.dual) == sol.value
        # the tableau's read-off is verified as it is, in any terms
        assert _verify_optimal(lp, *sol.pairs) == sol.value
        for _ in range(4):
            x, y = sol.primal, sol.dual
            if rng.random() < 0.5:
                x = _tampered(rng, x)
            else:
                y = _tampered(rng, y)
            got = _outcome(_verify_optimal, lp, common_denominator(x), common_denominator(y))
            assert got == _outcome(oracle._verify_optimal, lp, x, y)
            refused += got[0] != "ok"
    assert refused > 100


def test_best_reply_matches_the_oracle():
    rng = random.Random(1502)
    for _ in range(300):
        widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        rows = [[_rational(rng) for _ in range(sum(widths))] for _ in range(rng.randint(1, 4))]
        prices = simplex_point(rng, len(rows))
        if rng.random() < 0.2:
            prices = _tampered(rng, prices)
        scaled = [common_denominator(row) for row in rows]
        assert _outcome(_best_reply, scaled, widths, common_denominator(prices)) == _outcome(
            oracle._best_reply, rows, widths, prices
        )


def _problems(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        space = _space(rng)
        yield rng, DecisionProblem(random_credal_set(rng, space), random_loss(rng, space))


def _games(seed):
    """``(fraction rows, integer rows, widths)``: the prior and signal-blind
    games of random problems, their rows computed by minimax and by the
    ``Fraction`` oracle, and games of random rows."""
    for rng, dp in _problems(seed, 60):
        gens, live = dp.credal.generators, dp.credal.live
        yield [
            [c for xi in live for c in oracle._action_losses(dp.loss, g.mass[xi])]
            for g in gens
        ], dp.loss_rows, [dp.space.na] * len(live)
        qs = [g.y_marginal() for g in gens]
        pairs = [common_denominator(q) for q in qs]
        yield [oracle._action_losses(dp.loss, q) for q in qs], _action_losses(dp.loss, pairs), [
            dp.space.na
        ]
        widths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        rows = [[_rational(rng) for _ in range(sum(widths))] for _ in range(rng.randint(1, 4))]
        yield rows, [common_denominator(row) for row in rows], widths


def test_block_game_builds_and_solves_the_fraction_lp(monkeypatch):
    # The loss rows of minimax are the pairs common_denominator gives for
    # their Fraction values, and block_game builds from them the LP that
    # the Fraction construction builds, so it returns lp_solve's value,
    # point and prices there; equal prices mean the same pivots.
    built = []

    def record(lp, start=None):
        built.append(lp)
        return lp_solve(lp, start)

    monkeypatch.setattr(credal.linprog, "lp_solve", record)
    games = 0
    for fractions, rows, widths in _games(1601):
        assert rows == [common_denominator(row) for row in fractions]
        lp = oracle.block_game_lp(fractions, widths)
        built.clear()
        got = block_game(rows, widths)
        assert built == [lp]
        sol = lp_solve(lp)
        assert sol == tableau_oracle.lp_solve(lp)
        assert got[:3] == (sol.value, sol.primal[1:], tuple(-y for y in sol.dual[: len(rows)]))
        games += 1
    assert games >= 150


def _block_games(monkeypatch):
    """A list that grows by ``(lp, start)`` on each block game solved from
    now on."""
    games = []
    solve = credal.linprog.lp_solve

    def record(lp, start=None):
        games.append((lp, start))
        return solve(lp, start)

    monkeypatch.setattr(credal.linprog, "lp_solve", record)
    return games


def _branch(lp, start):
    """The path ``lp_solve(lp, start)`` takes."""
    if start is None:
        return "degenerate start"
    tab = credal.linprog._Tableau(lp)
    tab.crash(start)
    return "certified" if tab.run() == OPTIMAL and tab.unique() else "fell back"


def _tied_problems():
    """Games with ties: two signals of one outcome each, where every action
    ties at the first, and seeded games with losses in {-3, ..., 0}, so
    that the worst loss at the start is often negative."""
    space = ProblemSpace(("0", "1"), ("0", "1"), ("0", "1", "2"))
    p = credal_set(space, [[[F(1, 2), 0], [0, F(1, 2)]]], True)
    yield DecisionProblem(p, loss_function(space, [[0, 0, 0], [0, 1, 1]]))
    for s in range(60):
        rng = random.Random(4100 + s)
        dp = games_problem(rng, 2, 2, rng.choice([2, 3]), rng.choice([1, 2, 3]))
        table = [[rng.randint(-3, 0) for _ in range(dp.space.na)] for _ in range(2)]
        yield DecisionProblem(dp.credal, loss_function(dp.space, table))


def _solve_every_block_game_family():
    """Solve the block games that the corpus, the 200 random games, tied
    games and matrix games build."""
    for case in load_corpus():
        for exp in case.expectations:
            assert run_expectation(load_case(case.id), exp).ok, (case.id, exp.op)
    for dp in [*random_games(200), *_tied_problems()]:
        solve_a_priori(dp, face=False)
        solve_a_posteriori(dp)
    # small integer payoffs: ties, and degenerate optima behind a start
    # without ties, are common
    rng = random.Random(4102)
    for _ in range(300):
        nrows, ncols = rng.randint(2, 4), rng.randint(2, 4)
        zero_sum_value([[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)])


def test_a_block_game_from_its_start_answers_as_the_two_phases(monkeypatch):
    # every block game of every family: from its start, certified or not,
    # the LP answers what the two phases answer, to the last entry
    games = _block_games(monkeypatch)
    _solve_every_block_game_family()
    seen = dict.fromkeys(("certified", "fell back", "degenerate start", "t-"), 0)
    for lp, start in dict.fromkeys(games):
        assert lp_solve(lp, start) == lp_solve(lp), lp
        seen[_branch(lp, start)] += 1
        seen["t-"] += start is not None and start[-1][1] == 1
    # 880, 23, 285 and 610 when written
    assert seen["certified"] >= 600 and seen["fell back"] >= 15, seen
    assert seen["degenerate start"] >= 100 and seen["t-"] >= 300, seen


def test_a_block_game_starts_where_its_own_arithmetic_started(monkeypatch):
    # the start read from the game's best reply and worst row is the one
    # its own lcm scaling, column sums and worst-row scan gave, on every
    # block game of every family
    starts = {}
    start = credal.linprog._game_start

    def record(rows, widths):
        key = tuple((tuple(nums), d) for nums, d in rows), tuple(widths)
        starts[key] = start(rows, widths)
        return starts[key]

    monkeypatch.setattr(credal.linprog, "_game_start", record)
    _solve_every_block_game_family()
    for (rows, widths), got in starts.items():
        assert got == oracle.game_start(rows, widths), (rows, widths)
    none = sum(got is None for got in starts.values())
    on_t_minus = sum(got is not None and got[-1][1] == 1 for got in starts.values())
    counts = len(starts), none, on_t_minus
    # 1188, 285 and 610 when written
    assert counts[0] >= 1000 and none >= 200 and on_t_minus >= 400, counts


def test_saddle_reports_and_losses_match_the_oracle():
    failing = 0
    for rng, dp in _problems(1503, 120):
        gens = dp.credal.generators
        sol = solve_a_priori(dp, face=rng.random() < 0.3)
        assert sol.aggregate.mass == oracle._mixed_mass(gens, sol.bookie_mixture)
        mixtures = [sol.bookie_mixture, simplex_point(rng, len(gens))]
        rules = [sol.rule, random_rule(rng, dp.space)]
        for mixture in mixtures:
            for rule in rules:
                report = verify_saddle(dp, mixture, rule)
                assert report == oracle.verify_saddle(dp, mixture, rule)
                failing += not report.holds
        for rule in rules:
            assert worst_case_loss(dp.credal, rule, dp.loss) == oracle.worst_case_loss(
                dp.credal, rule, dp.loss
            )
            for g in gens:
                assert expected_loss(g, rule, dp.loss) == oracle.expected_loss(g, rule, dp.loss)
    assert failing > 100


def _loss_problems(seed, count):
    """Random problems whose losses tie or go negative, over finite and convex
    sets in which a signal may be dead (no generator reaches it) and a
    generator may give a live signal no mass."""
    rng = random.Random(seed)
    for _ in range(count):
        space = _space(rng)
        dead = rng.randrange(space.nx) if space.nx > 1 and rng.random() < 0.4 else None
        masses = []
        for _ in range(rng.randint(1, 4)):
            mass = [list(row) for row in random_joint(rng, space).mass]
            if dead is not None:
                spill, mass[dead] = sum(mass[dead]), [F(0)] * space.ny
                mass[(dead + 1) % space.nx][0] += spill
            masses.append(mass)
        if dead is None and space.nx > 1 and len(masses) > 1 and rng.random() < 0.3:
            xi = rng.randrange(space.nx)
            spill, masses[0][xi] = sum(masses[0][xi]), [F(0)] * space.ny
            masses[0][(xi + 1) % space.nx][0] += spill
        if rng.random() < 0.2:
            value = _rational(rng)
            loss = loss_function(space, [[value] * space.na] * space.ny)
        else:
            loss = random_loss(rng, space)
        yield rng, DecisionProblem(credal_set(space, masses, rng.random() < 0.5), loss)


def _deterministic_action(rng, na):
    a = rng.randrange(na)
    return RandomizedAction(tuple(F(int(k == a)) for k in range(na)))


def test_rule_losses_and_the_first_violating_product_match_the_oracle():
    # every loss of a rule is read from the prior game's rows over every
    # signal; values and witness indices must be those of the Fraction sums
    dead = zero_at_live = ties = found = 0
    for rng, dp in _loss_problems(1701, 200):
        p, loss, space = dp.credal, dp.loss, dp.space
        live = support_x(p)
        xis = [space.x_index(x) for x in live]
        dead += len(live) < space.nx
        zero_at_live += any(sum(g.mass[xi]) == 0 for g in p.generators for xi in xis)
        assert [[F(v, d) for v in r] for r, d in dp.loss_rows] == [
            [c for xi in xis for c in oracle._action_losses(loss, g.mass[xi])]
            for g in p.generators
        ]
        for _ in range(3):
            rule = random_rule(rng, space)
            if rng.random() < 0.3:
                rule = replace(rule, per_x=tuple(
                    _deterministic_action(rng, space.na) for _ in range(space.nx)
                ))
            worst = worst_case_loss(p, rule, loss)
            assert worst == oracle.worst_case_loss(p, rule, loss)
            ties += [oracle.expected_loss(g, rule, loss) for g in p.generators].count(worst[0]) > 1
            for g in p.generators:
                assert expected_loss(g, rule, loss) == oracle.expected_loss(g, rule, loss)
            posterior = [worst_case_posterior_loss(p, rule, loss, x) for x in space.x_labels]
            assert posterior == [
                oracle.worst_case_posterior_loss(p, rule, loss, x) for x in space.x_labels
            ]
            assert list(_rule_risks(dp, [rule])) == [
                (worst[0], tuple(posterior[xi] for xi in xis))
            ]
        choices = [
            [random_rule(rng, space).per_x[0] for _ in range(rng.randint(1, 3))]
            for _ in range(space.nx)
        ]
        # a bound that one of the products attains exactly
        attained = replace(rule, per_x=tuple(rng.choice(opts) for opts in choices))
        for bound in (_rational(rng), -abs(_rational(rng)), worst_case_loss(p, attained, loss)[0]):
            got = _first_violating_product(dp, choices, bound)
            assert got == oracle._first_violating_product(dp, choices, bound)
            found += got is not None
    assert min(dead, zero_at_live, ties) >= 20 and 100 <= found <= 500


def test_dynamic_pair_scan_matches_the_fraction_oracle():
    # the falsifier compares integer ranks of its losses; its verdict and its
    # first pair must be those of the scan that compared the Fractions
    problems = [(dp, rng.randrange(30)) for rng, dp in _loss_problems(1801, 250)]
    problems += [(c.problem(), 5) for c in load_corpus() if c.file.loss is not None]
    seen = {"inconsistent": 0, "unknown": 0, "strict": 0}
    for dp, budget in problems:
        try:
            verdict = falsify_dynamic_consistency(dp, budget)
        except SizeLimitError:
            continue
        want = oracle.dynamic_pair_scan(dp, _dynamic_candidates(dp, budget))
        assert (verdict.result, verdict.witness, verdict.strict_variant_witness) == want
        seen[verdict.result] += 1
        seen["strict"] += verdict.strict_variant_witness is not None
    assert min(seen.values()) >= 10, seen


def _posterior_problems(seed, count):
    """Random problems, convex or finite, in which a signal may be dead, a
    generator mixes two others (its conditional lies between theirs, so
    pruning a convex set drops it) and a generator shares its conditional
    at one signal with another (it has the other's row there, rescaled)."""
    rng = random.Random(seed)
    for _ in range(count):
        space = _space(rng)
        dead = rng.randrange(space.nx) if space.nx > 1 and rng.random() < 0.4 else None
        masses = []
        for _ in range(rng.randint(2, 3)):
            mass = [list(row) for row in random_joint(rng, space).mass]
            if dead is not None:
                spill, mass[dead] = sum(mass[dead]), [F(0)] * space.ny
                mass[(dead + 1) % space.nx][0] += spill
            masses.append(mass)
        if rng.random() < 0.6:
            t = F(rng.randint(1, 4), 5)
            masses.append([
                [t * u + (1 - t) * v for u, v in zip(ra, rb)]
                for ra, rb in zip(masses[0], masses[1])
            ])
        xi = rng.randrange(space.nx)
        others = [j for j in range(space.nx) if j not in (xi, dead)]
        if xi != dead and others and rng.random() < 0.6:
            shared = [list(row) for row in masses[1]]
            s = F(rng.randint(1, 3), 4)
            shared[others[0]][0] += sum(shared[xi]) * (1 - s)
            shared[xi] = [v * s for v in shared[xi]]
            masses.append(shared)
        p = credal_set(space, masses, rng.random() < 0.5)
        yield rng, DecisionProblem(p, random_loss(rng, space))


def test_posterior_rows_match_the_generator_wise_oracle():
    # every m_delta(x) is read from the posterior game's rows over the
    # distinct generator-wise conditionals at x, in generator order; it must
    # be the worst generator-wise posterior loss
    seen = dict.fromkeys(
        ("dead", "pruned", "shared", "convex", "finite", "inconsistent", "unknown"), 0
    )
    for rng, dp in _posterior_problems(1901, 150):
        p, loss, space = dp.credal, dp.loss, dp.space
        assert support_x(p) == tuple(space.x_labels[i] for i in p.live)
        seen["dead"] += len(p.live) < space.nx
        seen["convex" if p.convex else "finite"] += 1
        for xi, x in enumerate(space.x_labels):
            conditional = p.conditionals[xi]
            assert conditional == posterior_y(p, (x,))
            if conditional is None:
                assert dp.posterior_rows[xi] is None and xi not in p.live
                continue
            rows = [g.mass[xi] for g in p.generators if any(g.mass[xi])]
            qs = [tuple(v / sum(row) for v in row) for row in rows]
            seen["shared"] += len(set(qs)) < len(qs)
            seen["pruned"] += len(conditional.generators) < len(set(qs))
            assert [[F(v, d) for v in r] for r, d in dp.posterior_rows[xi]] == [
                list(oracle._action_losses(loss, q)) for q in dict.fromkeys(qs)
            ]
        rules = [random_rule(rng, space) for _ in range(3)]
        rules.append(replace(rules[0], per_x=tuple(
            _deterministic_action(rng, space.na) for _ in range(space.nx)
        )))
        for rule in rules:
            posterior = [
                oracle.worst_case_posterior_loss(p, rule, loss, x) for x in space.x_labels
            ]
            assert [
                worst_case_posterior_loss(p, rule, loss, x) for x in space.x_labels
            ] == posterior
            worst = oracle.worst_case_loss(p, rule, loss)[0]
            assert list(_rule_risks(dp, [rule])) == [
                (worst, tuple(posterior[xi] for xi in p.live))
            ]
        budget = rng.randrange(10)
        try:
            verdict = falsify_dynamic_consistency(dp, budget)
        except SizeLimitError:
            continue
        want = oracle.dynamic_pair_scan(dp, _dynamic_candidates(dp, budget))
        assert (verdict.result, verdict.witness, verdict.strict_variant_witness) == want
        seen[verdict.result] += 1
    assert min(seen.values()) >= 20, seen


def test_saddle_mixture_errors_match_the_oracle():
    for rng, dp in _problems(1504, 40):
        k = len(dp.credal.generators)
        rule = random_rule(rng, dp.space)
        point = simplex_point(rng, k)
        bad = [
            point[:-1],
            point + (F(0),),
            _tampered(rng, point),
            tuple(-w for w in point),
            (F(1, 2),) * k,
            (0.5,) * k,
        ]
        for mixture in bad:
            got = _outcome(verify_saddle, dp, mixture, rule)
            assert got[0] != "ok" or sum(mixture) == 1
            assert got == _outcome(oracle.verify_saddle, dp, mixture, rule)


def test_joint_mass_checks_match_the_oracle():
    rng = random.Random(1505)
    space = ProblemSpace(_labels(3), _labels(2), _labels(2))
    for _ in range(300):
        flat = list(simplex_point(rng, 6))
        if rng.random() < 0.5:
            flat[rng.randrange(6)] += rng.choice((F(-1), F(1, 7), -flat[0]))
        mass = [flat[0:2], flat[2:4], flat[4:6]]
        if rng.random() < 0.3:
            mass[rng.randrange(3)] = mass[0] + [F(0)]
        if rng.random() < 0.1:
            mass = mass[:2]
        got = _outcome(joint, space, tuple(tuple(r) for r in mass))
        want = _outcome(oracle.check_mass, space, mass)
        assert got[0] == want[0] and (got[0] == "ok" or got[1] == want[1])


@pytest.mark.parametrize(
    "mass, message",
    [
        ([[F(-1), 2], [0, 0]], "negative probability mass"),
        ([[F(-1), 2], [0]], "negative probability mass"),
        ([[1, 0, 0], [F(-1), 1]], "mass row length != number of y labels"),
        ([[F(1, 3), F(1, 3)], [F(1, 3), F(1, 6)]], "mass must sum to exactly 1, got 7/6"),
        ([[1, 1], [0, 0]], "mass must sum to exactly 1, got 2"),
    ],
)
def test_joint_mass_errors_keep_their_order_and_text(mass, message):
    space = ProblemSpace(_labels(2), _labels(2), _labels(2))
    rows = tuple(tuple(F(v) for v in row) for row in mass)
    with pytest.raises(ValueError) as info:
        joint(space, rows)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        oracle.check_mass(space, rows)
    assert str(info.value) == message
