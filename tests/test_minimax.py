import random
from fractions import Fraction

import pytest

import credal.core
import credal.linprog
from credal import minimax
from credal.consistency import check_time_consistency

from credal.core import (
    classification_loss,
    condition,
    credal_set,
    deterministic_rule,
    DecisionProblem,
    ProblemSpace,
    _action_losses,
    marginal_y,
    posterior_y,
    prune_credal,
    rule_from_weights,
)
from credal.corpus import load_case, load_corpus
from credal.linprog import (
    EQ,
    LE,
    InternalCheckError,
    SizeLimitError,
    _saddle,
    block_game,
    zero_sum_value,
)
from credal.minimax import (
    brute_force_value,
    expected_loss,
    solve_a_posteriori,
    solve_a_priori,
    solve_ignoring,
    verify_saddle,
    worst_case_loss,
    worst_case_posterior_loss,
)
from credal.polytope import set_equal

import face_oracle
from face_oracle import make_lp
from problems import (
    binary_space,
    dead_signal_problems,
    games_problem,
    half_dead_signal_problem,
    monty_problem,
    opposite_outcomes_problem,
    prediction_problem,
    prediction_problem_with_exit,
    random_games,
    random_set_with_dead_signals,
    segment_listing_problem,
)
from credal.sampling import random_loss, random_rule, simplex_point

F = Fraction


def flat(rule):
    return rule.flatten()


def test_expected_loss_prediction():
    dp = prediction_problem()
    g = dp.credal.generators[0]  # all mass on x=0
    predict1 = deterministic_rule(dp.space, {"0": "1", "1": "1"})
    predict0 = deterministic_rule(dp.space, {"0": "0", "1": "0"})
    assert expected_loss(g, predict1, dp.loss) == F(1, 3)
    assert expected_loss(g, predict0, dp.loss) == F(2, 3)


def test_worst_case_ties_pick_first_witness():
    dp = monty_problem()
    stick = deterministic_rule(dp.space, {"G2": "1", "G3": "1"})
    value, witness = worst_case_loss(dp.credal, stick, dp.loss)
    assert value == F(2, 3)
    assert witness == 0  # both generators give 2/3


def test_prediction_prior_game():
    dp = prediction_problem()
    sol = solve_a_priori(dp)
    assert sol.value == F(1, 3)
    assert sol.unique
    assert flat(sol.rule) == (F(0), F(1), F(0), F(1))  # always predict 1
    assert sol.unconstrained_x == ()
    assert len(sol.bookie_mixture) == 4
    assert sum(sol.bookie_mixture) == 1
    assert all(w >= 0 for w in sol.bookie_mixture)
    # every mixture of these generators keeps the outcome marginal fixed
    assert sol.aggregate.y_marginal() == (F(1, 3), F(2, 3))


def test_prediction_posterior_game():
    dp = prediction_problem()
    post = solve_a_posteriori(dp)
    assert [pt.x for pt in post.per_x] == ["0", "1"]
    for x in ("0", "1"):
        pt = post.point(x)
        assert pt.value == F(1, 2)
        assert len(pt.action_vertices) == 1
        assert pt.action_vertices[0].weights == (F(1, 2), F(1, 2))
    assert post.value("0") == F(1, 2)


def test_exit_action_dominates():
    dp = prediction_problem_with_exit()
    sol = solve_a_priori(dp)
    assert sol.value == F(-1)
    assert sol.unique
    assert flat(sol.rule) == (0, 0, 1, 0, 0, 1)
    post = solve_a_posteriori(dp)
    for pt in post.per_x:
        assert pt.value == F(-1)
        assert len(pt.action_vertices) == 1
        assert pt.action_vertices[0].weights == (0, 0, 1)


def test_half_dead_prior_face():
    dp = half_dead_signal_problem()
    sol = solve_a_priori(dp)
    assert sol.value == F(2, 3)
    # x=0 action is unconstrained on the face; x=1 action must keep the
    # informative generator below 2/3
    alphas = {(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))}
    betas = {
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(7, 12), F(0), F(5, 12)),
        (F(0), F(7, 9), F(2, 9)),
    }
    got = {(r.per_x[0].weights, r.per_x[1].weights) for r in sol.optimal_rule_vertices}
    assert got == {(a, b) for a in alphas for b in betas}
    assert not sol.unique


def test_half_dead_posterior():
    dp = half_dead_signal_problem()
    post = solve_a_posteriori(dp)
    pt0 = post.point("0")
    assert pt0.value == F(2, 3)
    assert len(pt0.action_vertices) == 3  # uniform posterior: any action ties
    assert pt0.bookie_mixture == (F(1),)  # both generators condition to one point
    pt1 = post.point("1")
    assert pt1.value == F(1, 2)
    assert len(pt1.action_vertices) == 1
    assert pt1.action_vertices[0].weights == (1, 0, 0)


def test_monty_classification():
    dp = monty_problem()
    sol = solve_a_priori(dp)
    assert sol.value == F(1, 3)
    assert sol.unique
    assert sol.rule == deterministic_rule(dp.space, {"G2": "3", "G3": "2"})


def test_monty_with_switch_cost():
    dp = monty_problem(switch_cost=F(1, 10))
    sol = solve_a_priori(dp)
    assert sol.value == F(11, 30)
    assert sol.unique
    assert sol.rule == deterministic_rule(dp.space, {"G2": "3", "G3": "2"})
    post = solve_a_posteriori(dp)
    pt2 = post.point("G2")
    assert pt2.value == F(11, 21)
    assert len(pt2.action_vertices) == 1
    assert pt2.action_vertices[0].weights == (F(11, 21), F(0), F(10, 21))
    pt3 = post.point("G3")
    assert pt3.value == F(11, 21)
    assert pt3.action_vertices[0].weights == (F(11, 21), F(10, 21), F(0))


def test_opposite_outcomes_two_optimal_corners():
    dp = opposite_outcomes_problem()
    sol = solve_a_priori(dp)
    assert sol.value == F(1, 2)
    assert len(sol.optimal_rule_vertices) == 2
    assert all(r.is_deterministic() for r in sol.optimal_rule_vertices)
    post = solve_a_posteriori(dp)
    for x in ("0", "1"):
        pt = post.point(x)
        assert pt.value == F(1, 2)
        assert pt.action_vertices[0].weights == (F(1, 2), F(1, 2))


def test_dead_signal_gets_uniform_rule():
    space = binary_space()
    p = credal_set(
        space,
        [[[F(1, 2), F(1, 2)], [0, 0]], [[F(1, 3), F(2, 3)], [0, 0]]],
        convex=True,
    )
    dp = DecisionProblem(p, classification_loss(space))
    sol = solve_a_priori(dp)
    assert sol.value == F(1, 2)
    assert sol.unconstrained_x == ("1",)
    assert all(r.per_x[1].weights == (F(1, 2), F(1, 2)) for r in sol.optimal_rule_vertices)
    assert {r.per_x[0].weights for r in sol.optimal_rule_vertices} == {
        (F(0), F(1)),
        (F(1, 2), F(1, 2)),
    }
    assert worst_case_posterior_loss(p, sol.rule, dp.loss, "1") == 0
    post = solve_a_posteriori(dp)
    assert [pt.x for pt in post.per_x] == ["0"]


def test_saddle_rejects_non_equilibrium_pair():
    dp = monty_problem()
    stick = deterministic_rule(dp.space, {"G2": "1", "G3": "1"})
    report = verify_saddle(dp, (F(1, 2), F(1, 2)), stick)
    assert not report.holds
    assert report.failing == ("agent-deviation",)
    assert report.value == F(2, 3)
    assert report.agent_best_response == F(1, 3)


@pytest.mark.parametrize(
    "solve",
    (
        lambda dp: solve_a_priori(dp),
        lambda dp: solve_a_priori(dp, face=False),
        check_time_consistency,
    ),
)
def test_every_prior_solve_runs_the_saddle_check(monkeypatch, solve):
    # block_game and verify_saddle make the one saddle check; made to fail,
    # it must stop each of them
    dp = monty_problem()
    _patch_saddle(monkeypatch, _failing_saddle)
    with pytest.raises(InternalCheckError, match="saddle (point )?check failed"):
        solve(dp)


def test_a_face_solve_checks_its_reported_vertex(monkeypatch):
    # with the LP answer kept, the face's vertex is what is left to check
    dp = monty_problem()
    solve_a_priori(dp, face=False)
    _patch_saddle(monkeypatch, _failing_saddle)
    with pytest.raises(InternalCheckError, match="saddle check failed"):
        solve_a_priori(dp)


def test_each_prior_answer_is_saddle_checked_once(monkeypatch):
    # on every corpus game, block_game checks the LP's answer and a face
    # solve adds its reported vertex
    calls = []

    def counted(*args):
        calls.append(args)
        return _saddle(*args)

    _patch_saddle(monkeypatch, counted)
    games = [case for case in load_corpus() if case.file.loss is not None]
    assert len(games) == 6
    for case in games:
        for face, want in ((False, 1), (True, 2)):
            calls.clear()
            solve_a_priori(load_case(case.id).problem(), face=face)
            assert len(calls) == want, (case.id, face)


def _patch_saddle(monkeypatch, check):
    """``check`` in place of the one saddle check, where each module reads it."""
    monkeypatch.setattr(credal.linprog, "_saddle", check)
    monkeypatch.setattr(minimax, "_saddle", check)


def _failing_saddle(*args):
    return (*_saddle(*args)[:3], ("agent-deviation",))


def _counting_lp_solves(monkeypatch):
    """A list that grows by one on each ``lp_solve`` call from now on."""
    calls = []
    lp_solve = credal.linprog.lp_solve

    def counted(lp, start=None):
        calls.append(lp)
        return lp_solve(lp, start)

    monkeypatch.setattr(credal.linprog, "lp_solve", counted)
    return calls


def test_face_is_enumerated_from_the_kept_lp(monkeypatch):
    dp = monty_problem()
    calls = _counting_lp_solves(monkeypatch)
    lp = solve_a_priori(dp, face=False)
    assert len(calls) == 1
    sol = solve_a_priori(dp)
    assert len(calls) == 1
    assert sol.value == lp.value and sol.bookie_mixture == lp.bookie_mixture
    assert solve_a_priori(dp) is sol and solve_a_priori(dp, face=False) is lp


def test_a_refused_face_is_not_kept(monkeypatch):
    dp = monty_problem()
    calls = _counting_lp_solves(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(credal.linprog, "FACE_CANDIDATE_LIMIT", 0)
        for _ in range(2):
            with pytest.raises(SizeLimitError, match="face enumeration limited to 0"):
                solve_a_priori(dp)
    # the LP was solved once and kept; the face is enumerated once allowed
    assert len(calls) == 1
    assert solve_a_priori(dp).value == solve_a_priori(dp, face=False).value == F(1, 3)
    assert len(calls) == 1


def test_bookie_deviation_and_untight_support_fail_together():
    # sum_i q_i v_i equals max v only when every row in the support of q
    # reaches that max, so the two clauses always appear together
    rng = random.Random(2001)
    together = {True: 0, False: 0}
    for _ in range(80):
        p, _dead = random_set_with_dead_signals(rng, rng.random() < 0.5)
        dp = DecisionProblem(p, random_loss(rng, p.space))
        sol = solve_a_priori(dp, face=rng.random() < 0.5)
        k = len(dp.credal.generators)
        for mixture in (sol.bookie_mixture, simplex_point(rng, k)):
            for rule in (sol.rule, random_rule(rng, dp.space)):
                failing = verify_saddle(dp, mixture, rule).failing
                both = "bookie-deviation" in failing
                assert both == ("support-not-tight" in failing), failing
                together[both] += 1
    assert min(together.values()) >= 50, together


def test_saddle_validates_mixture():
    dp = monty_problem()
    rule = deterministic_rule(dp.space, {"G2": "3", "G3": "2"})
    with pytest.raises(ValueError):
        verify_saddle(dp, (F(1, 2),), rule)
    with pytest.raises(ValueError):
        verify_saddle(dp, (F(3, 2), F(-1, 2)), rule)


def _marginal_game_value(dp):
    """The constant-rule game's value re-derived on the pruned Y-marginals."""
    return block_game(_action_losses(dp.loss, marginal_y(dp.credal).points), [dp.space.na])[0]


def test_ignoring_worthless_signal():
    dp = prediction_problem()
    sol = solve_ignoring(dp)
    assert sol.value == F(1, 3)
    assert sol.matches_a_priori
    assert _marginal_game_value(dp) == F(1, 3)
    assert sol.rule.per_x[0].weights == (F(0), F(1))
    assert sol.rule.per_x[0] == sol.rule.per_x[1]
    assert sum(sol.bookie_mixture) == 1


def test_ignoring_costs_in_door_game():
    dp = monty_problem(switch_cost=F(1, 10))
    sol = solve_ignoring(dp)
    assert sol.value == F(2, 3)
    assert not sol.matches_a_priori
    assert sol.a_priori_value == F(11, 30)
    assert len(sol.action_vertices) == 1
    assert sol.action_vertices[0].weights == (1, 0, 0)  # stay put


def test_the_constant_rule_game_matches_the_marginal_game():
    # the game on the whole signal set, over the Y-marginals as listed, has
    # the value of the same game over their pruned set
    problems = [
        *(case.problem() for case in load_corpus() if case.file.loss is not None),
        *random_games(200),
        *(dp for pair in dead_signal_problems(300) for dp in pair),
        segment_listing_problem(),
    ]
    assert len(problems) == 6 + 200 + 600 + 1
    for s, dp in enumerate(problems):
        assert solve_ignoring(dp).value == _marginal_game_value(dp), s


def _counted_prunes(monkeypatch):
    calls = []
    prune = credal.core.prune

    def counted(poly):
        calls.append(len(poly.points))
        return prune(poly)

    monkeypatch.setattr(credal.core, "prune", counted)
    return calls


def test_a_certified_constant_rule_game_prunes_nothing(monkeypatch):
    # the 60-generator file: its constant-rule game over the 60 listed
    # Y-marginals is certified, so its face is its optimum and no event is
    # pruned
    dp = games_problem(random.Random(9), 8, 5, 6, 60)
    calls = _counted_prunes(monkeypatch)
    sol = solve_ignoring(dp)
    assert len(dp.credal._events.points(dp.credal, 2**8 - 1)) == 60
    assert len(sol.action_vertices) == 1
    assert calls == []


def test_the_posterior_games_read_the_conditioned_points_as_listed():
    # each posterior game is played over the distinct conditioned points at
    # its signal, in generator order: its projection is that list, the same
    # set as the pruned one, its bookie weights each point, and its value is
    # the value of the game over the pruned points
    problems = [*random_games(200), *(dp for pair in dead_signal_problems(300) for dp in pair)]
    for s, dp in enumerate(problems):
        p = dp.credal
        for pt in solve_a_posteriori(dp).per_x:
            xi = dp.space.x_index(pt.x)
            listed = dict.fromkeys(c for g in p.generators if (c := g.conditional_y(xi)))
            pruned = posterior_y(p, (pt.x,))
            assert pt.projection.generators == tuple(listed), s
            assert set_equal(pt.projection, pruned), s
            assert len(pt.bookie_mixture) == len(listed), s
            rows = _action_losses(dp.loss, pruned.points)
            assert block_game(rows, [dp.space.na])[0] == pt.value, s


def test_the_posterior_games_of_a_listing_answer_as_its_pruned_listing():
    # 60 generators listing a set with 2 extreme points: each posterior
    # game reads the 60 points, and its uncertified face is enumerated over
    # its priced rows and the pruned set's rows, so the listing answers as
    # its 2 extreme points do
    dp = segment_listing_problem()
    pruned = DecisionProblem(prune_credal(dp.credal), dp.loss)
    assert len(dp.credal.generators) == 60 and len(pruned.credal.generators) == 2
    answers = [
        [(pt.x, pt.value, pt.action_vertices) for pt in solve_a_posteriori(d).per_x]
        for d in (dp, pruned)
    ]
    assert answers[0] == answers[1]
    assert [(x, value, len(verts)) for x, value, verts in answers[0]] == [
        ("0", F(1, 2), 9),
        ("1", F(1, 2), 6),
    ]


def test_the_constant_rule_game_of_a_listing_answers_as_its_pruned_listing(monkeypatch):
    # the constant-rule game reads the 60 Y-marginals as listed, and its
    # uncertified face is enumerated over its priced rows and the rows of
    # the 2 extreme marginals, not over all 60: the face prunes the
    # whole-signal event, once for every call
    dp = segment_listing_problem()
    pruned = DecisionProblem(prune_credal(dp.credal), dp.loss)
    calls = _counted_prunes(monkeypatch)
    got = solve_ignoring(dp)
    assert solve_ignoring(dp) == got
    assert calls == [60] and list(dp.credal._events.posteriors) == [0b11]
    want = solve_ignoring(pruned)
    assert (got.value, got.action_vertices, got.rule) == (want.value, want.action_vertices, want.rule)
    assert got.value == F(1, 2) and len(got.action_vertices) == 9
    assert len(got.bookie_mixture) == 60


def test_brute_force_sandwich():
    dp = prediction_problem()
    lower, upper = brute_force_value(dp, 3)
    assert upper == F(1, 3)  # the optimum happens to sit on the grid
    assert lower == F(1, 3) - F(2, 3)
    sol = solve_a_priori(dp, face=False)
    assert lower <= sol.value <= upper

    dp = monty_problem()
    lower, upper = brute_force_value(dp, 1)
    assert upper == F(1, 3)
    assert lower <= F(1, 3) <= upper


def test_brute_force_guard():
    dp = monty_problem()
    with pytest.raises(SizeLimitError):
        brute_force_value(dp, 56)  # comb(58, 2)**2 rules, times the rows, refused
    with pytest.raises(ValueError):
        brute_force_value(dp, 0)


def test_brute_force_counts_grid_points_at_live_signals():
    # three actions at two live signals, one dead: comb(44 + 2, 2)**2 rules,
    # not 45**(3 * 2) rules over every signal
    space = ProblemSpace(("0", "1", "2"), ("0", "1", "2"), ("0", "1", "2"))
    third = [F(1, 6)] * 3
    p = credal_set(space, [[third, third, [0, 0, 0]]], False)
    dp = DecisionProblem(p, classification_loss(space))
    with pytest.raises(SizeLimitError) as info:
        brute_force_value(dp, 44)
    assert str(info.value) == (
        "grid search limited to 1000000 row evaluations, got 1071225 (1071225 rules x 1 rows)"
    )
    assert brute_force_value(dp, 2)[1] == solve_a_priori(dp, face=False).value


def test_solver_is_deterministic():
    dp = half_dead_signal_problem()
    a = solve_a_priori(dp)
    b = solve_a_priori(dp)
    assert a == b
    assert solve_a_posteriori(dp) == solve_a_posteriori(dp)


def test_face_flag_skips_enumeration():
    dp = prediction_problem()
    sol = solve_a_priori(dp, face=False)
    assert sol.value == F(1, 3)
    assert sol.optimal_rule_vertices is None
    with pytest.raises(ValueError):
        sol.unique
    # the rule the simplex lands on is still optimal
    wc, _ = worst_case_loss(dp.credal, sol.rule, dp.loss)
    assert wc == F(1, 3)


def test_posterior_game_matches_a_matrix_game_on_the_conditioned_joint():
    # oracle: project the joint-space conditioned set, solve the matrix
    # game with zero_sum_value and enumerate its optimal face, asked as
    # a general LP, with the Fraction brute force
    for seed in range(40):
        rng = random.Random(seed)
        p, _dead = random_set_with_dead_signals(rng, convex=seed % 2 == 0)
        dp = DecisionProblem(p, random_loss(rng, p.space))
        table = dp.loss.table
        ny, na = p.space.ny, p.space.na
        post = solve_a_posteriori(dp)
        for x in p.space.x_labels:
            pt = post.point(x)
            if pt is None:
                assert all(sum(g.mass[p.space.x_index(x)]) == 0 for g in p.generators)
                continue
            proj = marginal_y(condition(p, [x])).generators
            losses = [[sum(q[y] * table[y][a] for y in range(ny)) for a in range(na)] for q in proj]
            value, _rows, _cols = zero_sum_value([[r[a] for r in losses] for a in range(na)])
            face = make_lp(
                [0] * na,
                losses + [[1] * na],
                [LE] * len(losses) + [EQ],
                [value] * len(losses) + [1],
            )
            assert pt.value == value, (seed, x)
            assert sorted(a.weights for a in pt.action_vertices) == sorted(
                face_oracle.optimal_face_vertices(face, 0)
            ), (seed, x)
