import io
import json
from fractions import Fraction

import pytest

import credal.consistency
import credal.core
from credal.cli import run
from credal.consistency import (
    PairWitness,
    SignalWitness,
    check_time_consistency,
    check_weak_time_consistency,
    falsify_dynamic_consistency,
    sufficient_conditions,
)
from credal.core import (
    DecisionProblem,
    classification_loss,
    constant_rule,
    deterministic_rule,
    hull,
    is_rectangular,
    marginal_y,
)
from credal.corpus import load_case
from credal.linprog import InternalCheckError
from credal.minimax import solve_a_posteriori, solve_ignoring, worst_case_loss
from credal.polytope import VPolytope, prune, subset

from problems import (
    coin_pair_set,
    dead_signal_problems,
    half_dead_signal_problem,
    monty_problem,
    opposite_outcomes_problem,
    prediction_problem,
    prediction_problem_with_exit,
    product_form_problems,
    quadruple_set,
    random_games,
)
from structure_oracle import PRODUCT_LIMIT

F = Fraction


def test_weak_time_prediction_inconsistent():
    dp = prediction_problem()
    v = check_weak_time_consistency(dp)
    assert v.kind == "weak-time"
    assert v.result == "inconsistent"
    assert v.witness == constant_rule(dp.space, (F(1, 2), F(1, 2)))
    wc, _ = worst_case_loss(dp.credal, v.witness, dp.loss)
    assert wc == F(1, 2)  # > a priori value 1/3


def test_weak_time_consistent_cases():
    assert check_weak_time_consistency(half_dead_signal_problem()).result == "consistent"
    assert check_weak_time_consistency(opposite_outcomes_problem()).result == "consistent"
    assert check_weak_time_consistency(prediction_problem_with_exit()).result == "consistent"


def test_weak_time_door_game():
    # the posterior faces admit mixtures over the two live doors; pairing
    # the switch vertex at one signal with a mixture at the other costs
    # 1/2 a priori, so even the plain door game is weakly inconsistent
    dp = monty_problem()
    v = check_weak_time_consistency(dp)
    assert v.result == "inconsistent"
    assert v.witness.per_x[0].weights == (F(0), F(0), F(1))
    assert v.witness.per_x[1].weights == (F(1, 2), F(1, 2), F(0))
    wc, _ = worst_case_loss(dp.credal, v.witness, dp.loss)
    assert wc == F(1, 2)


def test_weak_time_door_game_with_switch_cost():
    dp = monty_problem(switch_cost=F(1, 10))
    v = check_weak_time_consistency(dp)
    assert v.result == "inconsistent"
    # the conditioning-based rule pays the posterior value a priori
    wc, _ = worst_case_loss(dp.credal, v.witness, dp.loss)
    assert wc == F(11, 21)
    assert v.witness.per_x[0].weights == (F(11, 21), F(0), F(10, 21))
    assert v.witness.per_x[1].weights == (F(11, 21), F(10, 21), F(0))


def test_time_half_dead_witness():
    dp = half_dead_signal_problem()
    v = check_time_consistency(dp)
    assert v.result == "inconsistent"
    assert isinstance(v.witness, SignalWitness)
    assert v.witness.x == "1"
    assert v.witness.posterior_loss == F(3, 5)
    assert v.witness.posterior_value == F(1, 2)
    # deterministic witness preferred: top action at 0, second action at 1
    assert v.witness.rule == deterministic_rule(dp.space, {"0": "2", "1": "1"})


def test_time_consistent_cases():
    assert check_time_consistency(prediction_problem_with_exit()).result == "consistent"


def test_time_inherits_weak_witness():
    dp = prediction_problem()
    v = check_time_consistency(dp)
    assert v.result == "inconsistent"
    assert v.witness == constant_rule(dp.space, (F(1, 2), F(1, 2)))


def test_opposite_outcomes_time_inconsistent():
    dp = opposite_outcomes_problem()
    v = check_time_consistency(dp)
    assert v.result == "inconsistent"
    assert isinstance(v.witness, SignalWitness)
    assert v.witness.x == "0"
    assert v.witness.posterior_loss == F(1)
    assert v.witness.posterior_value == F(1, 2)


def test_dynamic_prediction_witness_pair():
    dp = prediction_problem()
    v = falsify_dynamic_consistency(dp, budget=0)
    assert v.result == "inconsistent"
    w = v.witness
    assert isinstance(w, PairWitness)
    assert w.condition == "condition-1"
    assert w.delta == constant_rule(dp.space, (F(1, 2), F(1, 2)))
    assert w.delta_prime == deterministic_rule(dp.space, {"0": "1", "1": "1"})
    assert w.prior == (F(1, 2), F(1, 3))
    assert w.posterior == (("0", F(1, 2), F(1)), ("1", F(1, 2), F(1)))
    assert w.strict_variant


def test_dynamic_exit_problem_still_inconsistent():
    dp = prediction_problem_with_exit()
    v = falsify_dynamic_consistency(dp, budget=0)
    assert v.result == "inconsistent"
    w = v.witness
    assert w.condition == "condition-1"
    # equal posterior losses everywhere, strictly worse a priori
    assert w.delta == deterministic_rule(dp.space, {"0": "2", "1": "0"})
    assert w.delta_prime == deterministic_rule(dp.space, {"0": "2", "1": "1"})
    assert w.prior == (F(2, 3), F(1, 3))
    assert not w.strict_variant
    # the strict "for some x" variant fails earlier in the scan
    assert v.strict_variant_witness is not None
    assert v.strict_variant_witness.prior == (F(1, 3), F(1, 3))


def test_dynamic_half_dead_unknown_but_strict_variant_fails():
    dp = half_dead_signal_problem()
    v = falsify_dynamic_consistency(dp, budget=5)
    assert v.result == "unknown"
    assert v.witness is None
    w = v.strict_variant_witness
    assert w is not None
    assert w.prior[0] >= w.prior[1]
    assert any(a < b for _x, a, b in w.posterior)
    assert all(a <= b for _x, a, b in w.posterior)


def test_dynamic_guaranteed_set_yields_no_witness():
    space = coin_pair_set().space
    p = hull(coin_pair_set())
    dp = DecisionProblem(p, classification_loss(space))
    v = falsify_dynamic_consistency(dp, budget=10)
    assert v.result == "unknown"
    assert v.notes.dynamic_guaranteed


def test_sufficiency_reports():
    r = sufficient_conditions(half_dead_signal_problem())
    assert r.rectangular and not r.conservative
    assert r.weak_time_guaranteed and not r.time_guaranteed
    assert "time consistency not guaranteed" in r.summary()

    r = sufficient_conditions(opposite_outcomes_problem())
    assert not r.rectangular and r.conservative
    assert "no guarantee" in r.summary()

    r = sufficient_conditions(monty_problem())
    assert not r.rectangular
    assert "no guarantee" in r.summary()

    space = quadruple_set().space
    r = sufficient_conditions(DecisionProblem(quadruple_set(), classification_loss(space)))
    assert r.rectangular and r.conservative and r.time_guaranteed


def test_guaranteed_implies_verdicts():
    space = quadruple_set().space
    dp = DecisionProblem(quadruple_set(), classification_loss(space))
    assert check_weak_time_consistency(dp).result == "consistent"
    assert check_time_consistency(dp).result == "consistent"


def test_weak_check_answers_beyond_the_product_limit(tmp_path, capsys):
    # zero loss: both actions are optimal at each of 17 signals, so there
    # are 2**17 posterior vertex products, more than PRODUCT_LIMIT
    nx = 17
    assert 2**nx > PRODUCT_LIMIT
    path = tmp_path / "zero-loss.json"
    path.write_text(json.dumps({
        "x_labels": [str(i) for i in range(nx)],
        "y_labels": ["0", "1"],
        "actions": ["a", "b"],
        "convex": True,
        "generators": [[["1/%d" % (2 * nx)] * 2 for _ in range(nx)]],
        "loss": [["0", "0"], ["0", "0"]],
    }))
    out = io.StringIO()
    assert run(["consistency", "weak", str(path)], stdout=out) == 0
    assert "weak time consistency: consistent" in out.getvalue().splitlines()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "check, problem",
    (
        (check_weak_time_consistency, prediction_problem),
        (check_time_consistency, lambda: load_case("example-4.6").problem()),
        (lambda dp: falsify_dynamic_consistency(dp, budget=0), prediction_problem),
    ),
)
def test_every_witness_is_replayed_before_its_verdict(monkeypatch, check, problem):
    # each check finds a witness here; a stale posterior loss in the replay
    # must stop it before the verdict accuses the problem
    dp = problem()
    assert check(dp).result == "inconsistent"
    real = credal.consistency.worst_case_posterior_loss
    monkeypatch.setattr(
        credal.consistency, "worst_case_posterior_loss", lambda *args: real(*args) + 1
    )
    with pytest.raises(InternalCheckError):
        check(problem())


def test_a_faulty_prune_changes_no_answer_silently(monkeypatch):
    # the games and the checks read each event's conditioned points as
    # listed, and only an uncertified face reads the pruned set: a prune
    # that drops its last kept point may stop an answer with an internal
    # error, but may not change a posterior answer or a verdict
    def answers(dp):
        post = [(pt.x, pt.value, pt.action_vertices) for pt in solve_a_posteriori(dp).per_x]
        return post, check_weak_time_consistency(dp), check_time_consistency(dp)

    def faulty(s):
        kept = prune(s)
        return VPolytope(kept.dimension, kept.points[:-1] or kept.points, kept.convex)

    truth = [answers(dp) for dp in random_games(200)]
    monkeypatch.setattr(credal.core, "prune", faulty)
    unchanged = 0
    for s, (want, dp) in enumerate(zip(truth, random_games(200))):
        try:
            got = answers(dp)
        except InternalCheckError:
            continue
        assert got == want, s
        unchanged += 1
    assert unchanged >= 190, unchanged


# ---------------------------------------------------------------------------
# the paper's structure results, as properties of the seeded random games


def test_the_hulls_of_random_games_are_consistent():
    # every cell of a random game is positive, so its hull is rectangular
    # and conservative: time and weak-time consistent, and dynamically
    # consistent (Epstein & Schneider), so no falsifier may succeed
    for s, dp in enumerate(random_games(200)):
        h = DecisionProblem(hull(dp.credal), dp.loss)
        notes = sufficient_conditions(h)
        assert notes.rectangular and notes.conservative, s
        assert check_time_consistency(h).result == "consistent", s
        assert check_weak_time_consistency(h).result == "consistent", s
        assert falsify_dynamic_consistency(h, 0).result != "inconsistent", s


def test_time_consistency_implies_weak_time_consistency_on_random_games():
    consistent = 0
    for s, dp in enumerate(random_games(200)):
        if check_time_consistency(dp).result == "consistent":
            assert check_weak_time_consistency(dp).result == "consistent", s
            consistent += 1
    assert consistent >= 100, consistent


def test_an_ignoring_rule_that_matches_the_prior_game_attains_its_value():
    matched = 0
    for s, dp in enumerate(random_games(200)):
        ignoring = solve_ignoring(dp)
        if ignoring.matches_a_priori:
            worst = worst_case_loss(dp.credal, ignoring.rule, dp.loss)[0]
            assert worst == ignoring.a_priori_value, s
            matched += 1
    assert matched >= 100, matched


def test_rectangular_sets_with_dead_signals_are_weakly_time_consistent():
    # a rectangular set is time consistent (Epstein & Schneider), so weakly
    # too, also where some generators give a signal no mass
    rectangular = 0
    for s, pair in enumerate(dead_signal_problems(300)):
        for dp in pair:
            if is_rectangular(dp.credal):
                assert check_weak_time_consistency(dp).result == "consistent", s
                rectangular += 1
    assert rectangular >= 340, rectangular


def test_ignoring_is_optimal_where_every_conditional_set_holds_the_marginal():
    # on a rectangular set whose conditional sets all contain P_Y, the
    # bookie can answer each signal's action from P_Y, so the prior game
    # is worth at least the constant rule's game
    held = 0
    for s, dp in enumerate(product_form_problems(200)):
        p = dp.credal
        if is_rectangular(p) and all(subset(marginal_y(p), p.conditionals[x]) for x in p.live):
            assert solve_ignoring(dp).matches_a_priori, s
            held += 1
    assert held >= 200, held
