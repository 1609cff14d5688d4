import io
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

import credal.core
import credal.minimax
from credal.cli import run
from credal.core import is_rectangular
from credal.corpus import (
    CorpusError,
    Expectation,
    _freeze,
    _parse_case,
    corpus_ids,
    load_case,
    load_corpus,
    run_case,
    run_expectation,
)
from credal.minimax import solve_a_posteriori, solve_ignoring
from credal.problemfile import (
    ProblemFileError,
    parse_problem_file,
    render_problem_file,
)

from problems import games_problem

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
    assert case.file.space().x_labels == ("G2", "G3")
    assert tuple(g.mass for g in case.file.generators) == (
        ((F(1, 3), F(0), F(1, 3)), (F(0), F(1, 3), F(0))),
        ((F(0), F(0), F(1, 3)), (F(1, 3), F(1, 3), F(0))),
    )
    assert case.file.convex


def test_mirror_pair_generators_exact():
    case = load_case("example-4.2")
    assert tuple(g.mass for g in case.file.generators) == (
        ((F(1, 3), F(1, 6)), (F(1, 3), F(1, 6))),
        ((F(1, 6), F(1, 3)), (F(1, 6), F(1, 3))),
    )
    assert not case.file.convex
    assert case.file.loss is None


def test_quadruple_generators_exact():
    case = load_case("example-6.5")
    assert tuple(g.mass for g in case.file.generators) == (
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


def _record_games(monkeypatch):
    """Each game minimax hands to ``block_game``: its caller's name and,
    for an event game, the event's mask (None for the prior LP)."""
    calls = []
    block_game = credal.minimax.block_game

    def record(rows, widths):
        caller = sys._getframe(1)
        calls.append((caller.f_code.co_name, caller.f_locals.get("mask")))
        return block_game(rows, widths)

    monkeypatch.setattr(credal.minimax, "block_game", record)
    return calls


def test_run_case_solves_each_game_once(monkeypatch):
    # the games a case asks about are those its expectations ask on fresh
    # cases, one per event: the prior LP, the game at each live signal and
    # the game on the whole signal set; on the shared case each is solved once
    calls = _record_games(monkeypatch)
    for case in load_corpus():
        asked = set()
        for exp in case.expectations:
            calls.clear()
            run_expectation(load_case(case.id), exp)
            asked.update(calls)
        calls.clear()
        assert run_case(case).ok, case.id
        p = case.credal()
        events = {1 << xi for xi in p.live} | {(1 << p.space.nx) - 1}
        assert asked <= {("solve_a_priori", None)} | {("_event_game", m) for m in events}
        assert sorted(calls, key=str) == sorted(asked, key=str), case.id


def test_one_signal_is_one_event_game(monkeypatch):
    # with one signal, the whole signal set is that signal: the posterior
    # game and the constant-rule game are one kept game, and the
    # constant-rule game adds only the prior LP it is compared with
    calls = _record_games(monkeypatch)
    dp = games_problem(random.Random(5), 1, 3, 3, 4)
    post = solve_a_posteriori(dp).per_x[0]
    ignoring = solve_ignoring(dp)
    assert calls == [("_event_game", 1), ("solve_a_priori", None)]
    assert (post.value, post.action_vertices, post.bookie_mixture) == (
        ignoring.value,
        ignoring.action_vertices,
        ignoring.bookie_mixture,
    )


def test_run_case_conditions_each_event_once_per_set(monkeypatch):
    # the maxima (dilation intervals, the constant-rule game, the witness
    # replays) and the vertex lists (games, hulls, rectangularity) of a case
    # read one table: each (set, event) is conditioned once
    calls = []
    compute = credal.core._cell_points

    def counted(p, idx):
        calls.append((p, tuple(idx)))  # holds p, so no id is reused
        return compute(p, idx)

    monkeypatch.setattr(credal.core, "_cell_points", counted)
    for case in load_corpus():
        calls.clear()
        assert run_case(case).ok, case.id
        events = Counter((id(p), idx) for p, idx in calls)
        assert events and max(events.values()) == 1, case.id


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
    member = credal.core._member

    def counted(pair, target):
        points.append(pair)
        return member(pair, target)

    monkeypatch.setattr(credal.core, "_member", counted)
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


def test_each_case_is_decoded_once(monkeypatch):
    # every decoder's decode, json.loads' own among them
    calls = []
    decode = json.JSONDecoder.decode

    def counted(self, *args, **kwargs):
        calls.append(1)
        return decode(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONDecoder, "decode", counted)
    cases = load_corpus()
    assert len(calls) == len(cases) == len(corpus_ids())


def test_corpus_run_checks_each_label_set_once_per_parse(monkeypatch):
    # a problem file's space is the one its joints were checked on, so each
    # parse checks the x labels, y labels and actions once, and no later call
    calls = []
    check = credal.core._check_labels

    def counted(labels, what):
        calls.append(what)
        return check(labels, what)

    monkeypatch.setattr(credal.core, "_check_labels", counted)
    assert run(["corpus", "run"], stdout=io.StringIO()) == 0
    assert len(calls) == 3 * len(corpus_ids()) == 36


def test_a_case_that_is_not_json_is_named():
    with pytest.raises(CorpusError, match="^case example-4.2: not valid JSON: "):
        _parse_case("example-4.2", "{nope")


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


@pytest.mark.parametrize("text", ["1.5", "1e3", " 1/2 "])
def test_a_mass_argument_reads_its_numbers_as_the_generators_do(text):
    # one number reader per file: a form the generators refuse is refused
    # in an expectation's mass too, naming the field
    doc = {
        "id": "uniform",
        "x_labels": ["a", "b"],
        "y_labels": ["0", "1"],
        "actions": ["0", "1"],
        "convex": True,
        "generators": [[["1/4", "1/4"], ["1/4", "1/4"]]],
        "expectations": [
            {"op": "member", "args": {"mass": [["1/4", "1/4"], ["1/4", 1]]}, "expect": False},
            {"op": "member", "args": {"mass": [[text, "1/4"], ["1/4", "1/4"]]}, "expect": False},
        ],
    }
    case = _parse_case("uniform", json.dumps(doc))
    assert run_expectation(case, case.expectations[0]).ok
    message = "field 'mass': not a rational: %r" % text
    with pytest.raises(ProblemFileError, match=re.escape(message)):
        run_expectation(case, case.expectations[1])
    doc["generators"][0][0][0] = text
    with pytest.raises(CorpusError, match=re.escape("not a rational: %r" % text)):
        _parse_case("uniform", json.dumps(doc))


@pytest.mark.parametrize(
    "op, args",
    [
        ("dynamic", {"budget": 1.5}),
        ("dynamic", {"budget": True}),
        ("dynamic", {"budget": -1}),
        ("dynamic", {"budget": "two"}),
        ("dilates", {"event": ["zz"]}),
        ("dilates", {"event": "10"}),
        ("member", {"mass": [["1/2"]]}),
        ("calibrated", {"rule": "bogus"}),
        ("calibrated", {"rule": "partition:0,1|"}),
        ("posterior_value", {"x": 0}),
        ("posterior_interval", {"x": 0}),
    ],
)
def test_a_malformed_argument_is_a_corpus_error_naming_op_and_argument(op, args):
    # each is read strictly: no float or bool read as an integer, no string
    # iterated by character, and no ValueError or KeyError from below; the
    # arguments are frozen as a case file's are
    exp = Expectation(op=op, args=_freeze(args), expect=None, note="")
    ((key, value),) = exp.args
    message = "op %r: argument %r must be " % (op, key)
    with pytest.raises(CorpusError, match=re.escape(message)) as info:
        run_expectation(load_case("example-2.1"), exp)
    assert str(info.value).endswith(", got %r" % (value,))
