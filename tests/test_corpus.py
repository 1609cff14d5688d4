import io
import json
import sys
from fractions import Fraction

import pytest

import credal.core
import credal.minimax
from credal.cli import run
from credal.core import is_rectangular
from credal.corpus import (
    CorpusError,
    Expectation,
    _parse_case,
    corpus_ids,
    load_case,
    load_corpus,
    run_case,
    run_expectation,
)
from credal.minimax import solve_a_posteriori
from credal.problemfile import (
    ProblemFileError,
    parse_problem_file,
    render_problem_file,
)

F = Fraction

EXPECTED_IDS = {
    "example-2.1",
    "example-2.1-ext",
    "example-4.2",
    "example-4.3",
    "example-4.5",
    "example-4.6",
    "monty-hall",
    "monty-hall-eps",
    "walley-two-coins",
    "example-6.5",
    "example-6.6",
    "example-6.7",
}


def test_corpus_ids():
    assert set(corpus_ids()) == EXPECTED_IDS
    assert len(load_corpus()) == len(EXPECTED_IDS)


def test_door_game_vertices_exact():
    case = load_case("monty-hall")
    assert case.file.x_labels == ("G2", "G3")
    assert case.file.generators == (
        ((F(1, 3), F(0), F(1, 3)), (F(0), F(1, 3), F(0))),
        ((F(0), F(0), F(1, 3)), (F(1, 3), F(1, 3), F(0))),
    )
    assert case.file.convex


def test_mirror_pair_generators_exact():
    case = load_case("example-4.2")
    assert case.file.generators == (
        ((F(1, 3), F(1, 6)), (F(1, 3), F(1, 6))),
        ((F(1, 6), F(1, 3)), (F(1, 6), F(1, 3))),
    )
    assert not case.file.convex
    assert case.file.loss is None


def test_quadruple_generators_exact():
    case = load_case("example-6.5")
    assert case.file.generators == (
        ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4))),
        ((F(1, 8), F(3, 8)), (F(1, 8), F(3, 8))),
        ((F(1, 4), F(1, 4)), (F(1, 8), F(3, 8))),
        ((F(1, 8), F(3, 8)), (F(1, 4), F(1, 4))),
    )


@pytest.mark.parametrize("case_id", sorted(EXPECTED_IDS))
def test_expectations_replay(case_id):
    case = load_case(case_id)
    result = run_case(case)
    bad = [
        "%s %s: expected %r, got %r" % (r.op, dict(r.args), r.expected, r.actual)
        for r in result.results
        if not r.ok
    ]
    assert not bad, "\n".join(bad)


def test_run_case_solves_each_game_once(monkeypatch):
    # the games a case asks about are those its expectations ask on fresh
    # cases; on the shared case each is solved once: the prior LP, one
    # posterior game per live signal, the constant-rule and marginal games
    calls = []
    block_game = credal.minimax.block_game

    def record(rows, widths):
        calls.append(sys._getframe(1).f_code.co_name)
        return block_game(rows, widths)

    monkeypatch.setattr(credal.minimax, "block_game", record)
    for case in load_corpus():
        asked = set()
        for exp in case.expectations:
            calls.clear()
            run_expectation(load_case(case.id), exp)
            asked.update(calls)
        calls.clear()
        assert run_case(case).ok, case.id
        per_game = {
            "solve_a_priori": 1,
            "solve_a_posteriori": len(case.credal().live),
            "solve_ignoring": 2,
        }
        assert sorted(calls) == sorted(n for n in asked for _ in range(per_game[n])), case.id


def test_a_shared_case_answers_as_a_fresh_case_per_expectation():
    shared = [r for case in load_corpus() for r in run_case(case).results]
    fresh = [
        run_expectation(load_case(case.id), exp)
        for case in load_corpus()
        for exp in case.expectations
    ]
    assert len(shared) == 121
    assert shared == fresh


def test_a_case_builds_one_set_and_one_problem():
    case = load_case("monty-hall")
    assert case.credal() is case.credal() is case.problem().credal
    assert case.problem() is case.problem()
    # the problem file itself still builds new objects
    assert case.file.credal() is not case.credal()
    assert case.file.problem() is not case.problem()


def test_corpus_run_decides_rectangularity_once_per_set(monkeypatch):
    # rectangularity is kept on the set: `credal corpus run` makes the
    # membership tests of one decision per case, as fresh sets decided once
    points = []
    member = credal.core.member

    def counted(point, target):
        points.append(point)
        return member(point, target)

    monkeypatch.setattr(credal.core, "member", counted)
    assert run(["corpus", "run"], stdout=io.StringIO()) == 0
    in_run = len(points)
    points.clear()
    for case in load_corpus():
        p = load_case(case.id).credal()
        is_rectangular(p)
        once = len(points)
        is_rectangular(p)
        assert len(points) == once, case.id
    assert in_run == len(points) > 0


def test_every_expectation_documents_its_oracle():
    for case in load_corpus():
        for exp in case.expectations:
            assert exp.note, "%s: %s lacks a note" % (case.id, exp.op)


def test_unknown_case_is_named():
    with pytest.raises(CorpusError, match="no-such-case"):
        load_case("no-such-case")


def test_id_mismatch_is_rejected():
    import credal.corpus as corpus_mod

    raw = corpus_mod.corpus_text("example-4.2").replace(
        '"id": "example-4.2"', '"id": "other"'
    )
    with pytest.raises(CorpusError, match="example-4.2"):
        _parse_case("example-4.2", raw)


def test_problem_file_roundtrip_on_corpus():
    for case in load_corpus():
        text = render_problem_file(case.file)
        assert parse_problem_file(text) == case.file


def test_credal_only_case_refuses_problem():
    with pytest.raises(ProblemFileError, match="loss"):
        load_case("example-6.7").problem()


def test_unobserved_signal_has_no_posterior_game():
    # Every generator puts all its mass on signal "a"; "b" is never observed.
    raw = json.dumps(
        {
            "id": "dead-signal",
            "note": "2x2 set with no mass on signal b",
            "x_labels": ["a", "b"],
            "y_labels": ["0", "1"],
            "actions": ["0", "1"],
            "convex": True,
            "generators": [
                [["1/2", "1/2"], ["0", "0"]],
                [["1/4", "3/4"], ["0", "0"]],
            ],
            "loss": [["0", "1"], ["1", "0"]],
            "expectations": [
                {
                    "op": "posterior_rule_worst_case",
                    "expect": "1/2",
                    "note": "action 1 at a (loss Pr(Y=0) <= 1/2); b has no mass",
                },
                {
                    "op": "posterior_value",
                    "args": {"x": "a"},
                    "expect": "1/2",
                    "note": "by hand: the action-1 loss is at most 1/2",
                },
            ],
        }
    )
    case = _parse_case("dead-signal", raw)
    post = solve_a_posteriori(case.problem())
    assert post.point("b") is None
    assert post.value("a") == F(1, 2)
    with pytest.raises(KeyError):
        post.value("b")
    assert run_case(case).ok
    bad = Expectation(op="posterior_value", args=(("x", "b"),), expect="0", note="")
    with pytest.raises(CorpusError, match="'b' has no posterior game"):
        run_expectation(case, bad)
