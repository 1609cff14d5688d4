"""End-to-end tests for the command line interface.

Every golden here is the byte-exact output of the command; the CLI
promises deterministic output, so these are plain string equalities.
"""

import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import credal
from credal import (
    ProblemSpace,
    credal_set,
    load_problem_file,
    problem_file_from,
    render_problem_file,
    rule_from_weights,
    verify_saddle,
    worst_case_loss,
)
from credal.cli import run
from credal.consistency import DYNAMIC_CANDIDATE_LIMIT
from credal.core import HULL_PRODUCT_LIMIT
from credal.linprog import FACE_CANDIDATE_LIMIT


def cli(*argv):
    buf = io.StringIO()
    code = run(list(argv), stdout=buf)
    return code, buf.getvalue()


def lines(*argv):
    code, text = cli(*argv)
    assert code == 0, text
    return text.splitlines()


# -- solve ---------------------------------------------------------------

def test_solve_golden_bytes():
    code, text = cli("solve", "corpus/example-2.1")
    assert code == 0
    assert text == (
        "value: 1/3\n"
        "rule: 0->1, 1->1\n"
        "unique: yes\n"
        "face vertices: 1\n"
        "bookie mixture: 0, 0, 0, 1\n"
        "aggregate:\n"
        "  0: 0 0\n"
        "  1: 1/3 2/3\n"
    )


def test_solve_is_deterministic():
    first = cli("solve", "corpus/monty-hall")
    second = cli("solve", "corpus/monty-hall")
    assert first == second


def test_solve_door_game():
    out = lines("solve", "corpus/monty-hall")
    assert out[0] == "value: 1/3"
    assert out[1] == "rule: G2->3, G3->2"
    assert "bookie mixture: 0, 1" in out


def test_corpus_id_spellings_agree():
    bare = cli("solve", "example-2.1")
    prefixed = cli("solve", "corpus/example-2.1")
    suffixed = cli("solve", "corpus/example-2.1.json")
    assert bare == prefixed == suffixed


# -- posterior -----------------------------------------------------------

def test_posterior_door_game():
    out = lines("posterior", "corpus/monty-hall")
    assert out == [
        "support: G2, G3",
        "G2: value 1/2, actions (0, 0, 1) | (1/2, 0, 1/2)",
        "G3: value 1/2, actions (0, 1, 0) | (1/2, 1/2, 0)",
    ]


def test_posterior_dead_signal(tmp_path):
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({
        "x_labels": ["0", "1"],
        "y_labels": ["0", "1"],
        "actions": ["a", "b"],
        "convex": False,
        "generators": [[["1/2", "1/2"], ["0", "0"]]],
        "loss": [["0", "1"], ["1", "0"]],
    }))
    out = lines("posterior", str(path))
    assert out[0] == "support: 0"
    assert out[2] == "1: never observed"


def _ten_by_five(tmp_path, generators=3, loss=None):
    """A valid problem file: 10 signals, 5 outcomes, 2 actions and
    ``generators`` convex generators with every cell positive."""
    nx, ny = 10, 5
    gens = []
    for k in range(generators):
        w = [[(i * 7 + j * 3 + k * 5) % 11 + 1 for j in range(ny)] for i in range(nx)]
        total = sum(map(sum, w))
        gens.append([["%d/%d" % (v, total) for v in row] for row in w])
    path = tmp_path / "ten-by-five.json"
    path.write_text(json.dumps({
        "x_labels": [str(i) for i in range(nx)],
        "y_labels": [str(j) for j in range(ny)],
        "actions": ["a", "b"],
        "convex": True,
        "generators": gens,
        "loss": loss or [[str(j % 2), str((j + 1) % 2)] for j in range(ny)],
    }))
    return path


@pytest.mark.parametrize(
    "argv",
    (("posterior", "{}"), ("check", "dilation", "{}"), ("calibrate", "{}", "--rule", "standard")),
)
def test_outcome_space_commands_run_on_a_ten_by_five_problem(tmp_path, capsys, argv):
    # these commands work in the 5 outcome coordinates only
    path = _ten_by_five(tmp_path)
    code, text = cli(*(a.format(path) for a in argv))
    assert code == 0
    assert text
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv", (("hull", "{}"), ("check", "rect", "{}"), ("consistency", "weak", "{}"))
)
def test_hull_commands_refuse_a_ten_by_five_problem(tmp_path, capsys, argv):
    # 3 X-marginals times 3 conditionals at each of 10 signals: only
    # ``hull`` builds them; the structure checks go one signal at a time
    path = _ten_by_five(tmp_path)
    start = time.perf_counter()
    code, text = cli(*(a.format(path) for a in argv))
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    if argv[0] == "hull":
        assert code == 3
        assert text == ""
        assert err == "refused: hull products limited to %d, got 177147\n" % HULL_PRODUCT_LIMIT
    else:
        assert code == 0
        assert err == ""
        verdict = {"check": "rectangular: no", "consistency": "weak time consistency: inconsistent"}
        assert verdict[argv[0]] in text.splitlines()


@pytest.mark.parametrize(
    "argv", (("hull", "{}"), ("check", "rect", "{}"), ("consistency", "weak", "{}"))
)
def test_structure_commands_run_on_a_single_ten_by_five_generator(tmp_path, capsys, argv):
    # one product, but 50 joint coordinates
    path = _ten_by_five(tmp_path, generators=1)
    code, text = cli(*(a.format(path) for a in argv))
    assert code == 0
    verdict = "weak time consistency: consistent" if argv[0] == "consistency" else "rectangular: yes"
    assert verdict in text.splitlines()
    assert capsys.readouterr().err == ""


def _finite_file(tmp_path, rows):
    """A valid finite problem file over 2 outcomes, one generator per
    entry of ``rows``, each a list of (weight, weight) pairs, one pair
    per signal."""
    gens = []
    for w in rows:
        total = sum(map(sum, w))
        gens.append([["%d/%d" % (v, total) for v in pair] for pair in w])
    path = tmp_path / "finite.json"
    path.write_text(json.dumps({
        "x_labels": [str(i) for i in range(len(rows[0]))],
        "y_labels": ["0", "1"],
        "actions": ["a", "b"],
        "convex": False,
        "generators": gens,
    }))
    return path


def test_hull_answers_at_its_limit(tmp_path, capsys):
    # 10 generators over 3 signals, with distinct X-marginals and distinct
    # conditionals at every signal: 10 * 10^3 products
    assert HULL_PRODUCT_LIMIT == 10**4
    path = _finite_file(tmp_path, [[(g + 1, 11 + i) for i in range(3)] for g in range(10)])
    start = time.perf_counter()
    code, text = cli("hull", str(path))
    assert time.perf_counter() - start < 10
    assert code == 0
    assert capsys.readouterr().err == ""
    out = text.splitlines()
    assert out[0] == "generators: %d" % HULL_PRODUCT_LIMIT
    assert len(out) == HULL_PRODUCT_LIMIT + 3
    assert out[-2:] == ["convex: no", "rectangular: no"]


def test_hull_refuses_one_product_over_its_limit(tmp_path, capsys):
    # one signal: each distinct generator is one conditional, one product
    rows = [[(g, HULL_PRODUCT_LIMIT - g)] for g in range(HULL_PRODUCT_LIMIT + 1)]
    start = time.perf_counter()
    code, text = cli("hull", str(_finite_file(tmp_path, rows)))
    assert time.perf_counter() - start < 10
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == "refused: hull products limited to %d, got %d\n" % (
        HULL_PRODUCT_LIMIT,
        HULL_PRODUCT_LIMIT + 1,
    )


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # 12 signals x 2 outcomes, 2 generators: 8,192 hull products, far more
    # output than a pipe holds, so the writer outlives a reader of one line
    rng = random.Random(5)
    space = ProblemSpace(tuple(map(str, range(12))), ("0", "1"), ("0", "1"))
    counts = [[[rng.randint(1, 9) for _ in range(2)] for _ in range(12)] for _ in range(2)]
    masses = [[[Fraction(c, sum(map(sum, g))) for c in row] for row in g] for g in counts]
    p = credal_set(space, masses, True)
    path = tmp_path / "twelve-by-two.json"
    path.write_text(render_problem_file(problem_file_from(p)), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(credal.__file__).parent.parent)] + [v for v in [env.get("PYTHONPATH")] if v]
    )
    # the context manager closes both pipes, so no file is left open
    with subprocess.Popen(
        [sys.executable, "-m", "credal.cli", "hull", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline() == b"generators: 8192\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and err == ""


_RULE = re.compile(r"([^\s,:]+)(?:->([^\s,]+)|: \(([^)]*)\))")


def _assert_solve_replays(path, text):
    """The printed ``rule:``, replayed through ``worst_case_loss`` and,
    with the printed bookie mixture, through ``verify_saddle``, gives the
    printed value."""
    fields = dict(ln.split(": ", 1) for ln in text.splitlines() if ": " in ln and ln[0] != " ")
    pf = load_problem_file(path)
    dp = pf.problem()
    weights = [
        [Fraction(int(a == act)) for a in pf.actions] if act else [Fraction(w) for w in ws.split(", ")]
        for _x, act, ws in _RULE.findall(fields["rule"])
    ]
    rule = rule_from_weights(dp.space, weights)
    index = {g.mass: k for k, g in enumerate(dp.credal.generators)}
    mixture = [Fraction(0)] * len(index)
    for g, w in zip(pf.generators, fields["bookie mixture"].split(", ")):
        mixture[index[g]] += Fraction(w)
    value = Fraction(fields["value"])
    assert worst_case_loss(dp.credal, rule, dp.loss)[0] == value
    report = verify_saddle(dp, mixture, rule)
    assert report.holds and report.value == value


def test_solve_answers_a_ten_by_five_file(tmp_path, capsys):
    # the bookie's prices leave 12 of the 20 rule columns at zero reduced
    # cost, and the face is enumerated over those alone
    path = _ten_by_five(tmp_path)
    code, text = cli("solve", str(path))
    assert code == 0
    assert capsys.readouterr().err == ""
    assert "unique: yes" in text.splitlines()
    _assert_solve_replays(path, text)


def test_solve_refuses_a_constant_loss_ten_by_five_face(tmp_path, capsys):
    # every column costs the same under any prices, so no column is
    # dropped; only the priced rows become equalities
    path = _ten_by_five(tmp_path, loss=[["1", "1"]] * 5)
    code, _ = cli("solve", str(path))
    assert code == 3
    err = capsys.readouterr().err
    assert err == (
        "refused: face enumeration limited to %d candidate systems, got 646646\n"
        % FACE_CANDIDATE_LIMIT
    )


def _games_file(tmp_path, seed, nx, ny, na, k):
    """A seeded convex file: ``k`` joints with every cell positive, over
    denominators of two to three times the cell count, and losses in
    [-12, 12] over denominators 1-4."""
    rng = random.Random(seed)
    space = ProblemSpace(*(tuple(map(str, range(n))) for n in (nx, ny, na)))
    masses = []
    for _ in range(k):
        denom = rng.randint(2 * nx * ny, max(24, 3 * nx * ny))
        counts = [1] * (nx * ny)
        for _ in range(denom - nx * ny):
            counts[rng.randrange(nx * ny)] += 1
        masses.append([[Fraction(c, denom) for c in counts[i * ny : (i + 1) * ny]] for i in range(nx)])
    loss = [[Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(na)] for _ in range(ny)]
    pf = problem_file_from(credal_set(space, masses, True), credal.loss_function(space, loss))
    path = tmp_path / ("games-%dx%dx%dx%d.json" % (nx, ny, na, k))
    path.write_text(render_problem_file(pf), encoding="utf-8")
    return path


def test_solve_answers_a_face_of_one_point_by_its_priced_rows(tmp_path, capsys):
    # 20 signals, 5 outcomes, 4 actions, 8 generators: the block rows and
    # the 7 priced rows, as equalities, have rank 26, the number of kept
    # columns, so one candidate system remains
    path = _games_file(tmp_path, 2008, 20, 5, 4, 8)
    start = time.perf_counter()
    code, text = cli("solve", str(path))
    assert time.perf_counter() - start < 5
    assert code == 0
    assert capsys.readouterr().err == ""
    assert text.splitlines()[2:4] == ["unique: yes", "face vertices: 1"]
    _assert_solve_replays(path, text)
    assert "time consistency: inconsistent" in lines("consistency", "time", str(path))


def _tied_actions_file(tmp_path, na):
    """Two signals, each with one outcome: every action ties at the
    first, only the first action is best at the second.  With one
    generator, priced and zero on the kept columns, the face has ``na``
    vertices and C(na + 1, 2) candidate systems."""
    path = tmp_path / ("tied-%d.json" % na)
    path.write_text(json.dumps({
        "x_labels": ["0", "1"],
        "y_labels": ["0", "1"],
        "actions": [str(a) for a in range(na)],
        "convex": True,
        "generators": [[["1/2", "0"], ["0", "1/2"]]],
        "loss": [["0"] * na, ["0"] + ["1"] * (na - 1)],
    }))
    return path


def test_face_limit_answers_just_under_it(tmp_path, capsys, monkeypatch):
    # C(141, 2) = 9,870 candidate systems; within 5 s
    assert FACE_CANDIDATE_LIMIT == 10_000
    path = _tied_actions_file(tmp_path, 140)
    start = time.perf_counter()
    code, text = cli("solve", str(path))
    assert time.perf_counter() - start < 5
    assert code == 0
    assert capsys.readouterr().err == ""
    assert text.splitlines()[2:4] == ["unique: no", "face vertices: 140"]
    _assert_solve_replays(path, text)
    monkeypatch.setattr(credal.linprog, "FACE_CANDIDATE_LIMIT", 9869)
    assert cli("solve", str(path)) == (3, "")
    assert capsys.readouterr().err.endswith("got 9870\n")


def test_face_limit_refuses_just_over_it(tmp_path, capsys):
    # C(142, 2) = 10,011 candidate systems, counted before any is solved
    path = _tied_actions_file(tmp_path, 141)
    start = time.perf_counter()
    assert cli("solve", str(path)) == (3, "")
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == (
        "refused: face enumeration limited to %d candidate systems, got 10011\n"
        % FACE_CANDIDATE_LIMIT
    )


def _random_file(tmp_path, seed, nx, ny, na, k):
    """A seeded convex file: ``k`` joints with every cell positive and
    losses in [-6, 6] over denominators 1-3."""
    rng = random.Random(seed)
    gens = []
    for _ in range(k):
        counts = [[rng.randint(1, 9) for _ in range(ny)] for _ in range(nx)]
        total = sum(map(sum, counts))
        gens.append([["%d/%d" % (c, total) for c in row] for row in counts])
    path = tmp_path / ("random-%dx%dx%d.json" % (nx, ny, na))
    path.write_text(json.dumps({
        "x_labels": [str(i) for i in range(nx)],
        "y_labels": [str(j) for j in range(ny)],
        "actions": [str(a) for a in range(na)],
        "convex": True,
        "generators": gens,
        "loss": [["%d/%d" % (rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(na)]
                 for _ in range(ny)],
    }))
    return path


@pytest.mark.parametrize("shape", ((4, 3, 3, 4), (5, 2, 3, 3), (5, 3, 3, 4), (7, 2, 2, 3)))
def test_prior_face_answers_beyond_the_full_candidate_count(tmp_path, capsys, shape):
    # over every rule coordinate these faces need 12,870 to 92,378
    # candidate systems; over the zero-reduced-cost columns, far fewer
    path = _random_file(tmp_path, 11, *shape)
    for argv in (("solve",), ("consistency", "time")):
        start = time.perf_counter()
        code, text = cli(*argv, str(path))
        assert time.perf_counter() - start < 10
        assert code == 0, argv
        assert capsys.readouterr().err == ""
        if argv == ("solve",):
            _assert_solve_replays(path, text)
        else:
            assert text.splitlines()[1].startswith("time consistency: ")


def test_dynamic_falsifier_refuses_ten_signals_and_three_actions(tmp_path, capsys):
    # 3**10 deterministic rules would be paired with each other; the
    # candidates are counted before any is built, and at every size, so
    # 11 signals are refused like 10, not searched with fewer rules
    for nx in (10, 11):
        path = _random_file(tmp_path, 11, nx, 2, 3, 2)
        start = time.perf_counter()
        code, text = cli("consistency", "dynamic", str(path))
        assert time.perf_counter() - start < 10
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        got = re.fullmatch(
            r"refused: dynamic consistency candidates limited to (\d+), got (\d+)\n", err
        )
        assert got, err
        assert int(got[1]) == DYNAMIC_CANDIDATE_LIMIT
        assert 3**nx <= int(got[2]) <= 3**nx + DYNAMIC_CANDIDATE_LIMIT


def test_dynamic_falsifier_answers_at_its_limit_and_refuses_one_above(capsys):
    # example-4.5 has 24 candidates before the random rules: 3 posterior
    # products, 12 face vertices and 9 deterministic rules; its verdict is
    # unknown, so every ordered pair of the distinct ones is scanned
    start = time.perf_counter()
    code, text = cli("consistency", "dynamic", "corpus/example-4.5", "--budget", "476")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert text.splitlines()[1] == "dynamic consistency: unknown"
    assert capsys.readouterr().err == ""
    start = time.perf_counter()
    code, text = cli("consistency", "dynamic", "corpus/example-4.5", "--budget", "477")
    assert time.perf_counter() - start < 5
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == (
        "refused: dynamic consistency candidates limited to %d, got 501\n"
        % DYNAMIC_CANDIDATE_LIMIT
    )


@pytest.mark.parametrize("argv", (("posterior",), ("consistency", "weak")))
def test_thirteen_actions_get_a_posterior_face(tmp_path, capsys, argv):
    # each posterior face has 13 action weights, one simplex row and 2
    # conditioned generators: 455 candidate systems
    path = tmp_path / "thirteen-actions.json"
    path.write_text(json.dumps({
        "x_labels": ["0", "1"],
        "y_labels": ["0", "1"],
        "actions": ["a%d" % a for a in range(13)],
        "convex": True,
        "generators": [[["1/4", "1/4"], ["1/4", "1/4"]], [["1/2", "1/6"], ["1/6", "1/6"]]],
        "loss": [["%d/%d" % ((a * 5 + y * 3) % 7, a % 3 + 1) for a in range(13)] for y in range(2)],
    }))
    code, text = cli(*argv, str(path))
    assert code == 0
    assert capsys.readouterr().err == ""
    expected = {
        "posterior": "1: value 2/3, actions (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)",
        "consistency": "weak time consistency: inconsistent",
    }
    assert expected[argv[0]] in text.splitlines()


def test_time_check_conditions_each_live_signal_once(monkeypatch):
    # the rectangularity check, the posterior game and the posterior losses
    # all read the set's conditionals, computed once per signal
    calls = []
    posterior_y = credal.core.posterior_y

    def counted(p, cell):
        calls.append(tuple(cell))
        return posterior_y(p, cell)

    monkeypatch.setattr(credal.core, "posterior_y", counted)
    assert lines("consistency", "time", "corpus/example-4.5")
    assert calls == [("0",), ("1",)]


def test_oracle_refuses_an_oversized_grid(capsys):
    code, _ = cli("oracle", "corpus/example-2.1", "--grid", "5000")
    assert code == 3
    err = capsys.readouterr().err
    assert err == (
        "refused: grid search limited to 1000000 row evaluations, "
        "got 100040004 (25010001 rules x 4 rows)\n"
    )


def test_oracle_counts_rules_times_rows(capsys):
    # 501**2 rules are under the limit, but each is read against 4 rows
    code, _ = cli("oracle", "corpus/example-2.1", "--grid", "500")
    assert code == 3
    err = capsys.readouterr().err
    assert err == (
        "refused: grid search limited to 1000000 row evaluations, "
        "got 1004004 (251001 rules x 4 rows)\n"
    )


def _nine_signals(tmp_path):
    """A valid convex file with 9 signals, 2 outcomes and 2 actions."""
    gens = []
    for k in range(2):
        w = [[(i * 3 + j + k * 2) % 5 + 1 for j in range(2)] for i in range(9)]
        total = sum(map(sum, w))
        gens.append([["%d/%d" % (v, total) for v in row] for row in w])
    path = tmp_path / "nine-signals.json"
    path.write_text(json.dumps({
        "x_labels": [str(i) for i in range(9)],
        "y_labels": ["0", "1"],
        "actions": ["a", "b"],
        "convex": True,
        "generators": gens,
        "loss": [["0", "1"], ["1", "0"]],
    }))
    return path


@pytest.mark.parametrize(
    "argv, refusal",
    (
        (
            ("calibrate", "{}", "--rule", "ignore", "--sharp"),
            "sharpness search limited to 8 signals, got 9 (21147 partitions)",
        ),
        (
            ("oracle", "{}", "--grid", "10"),
            "grid search limited to 1000000 row evaluations, got %d (%d rules x 2 rows)"
            % (2 * 11**9, 11**9),
        ),
    ),
)
def test_nine_signals_are_refused_by_the_enumerations(tmp_path, capsys, argv, refusal):
    path = _nine_signals(tmp_path)
    code, _ = cli(*(a.format(path) for a in argv))
    assert code == 3
    assert capsys.readouterr().err == "refused: %s\n" % refusal


# -- saddle --------------------------------------------------------------

def test_saddle_accepts_equilibrium():
    out = lines("saddle", "corpus/monty-hall",
                "--rule", "0,0,1/0,1,0", "--mixture", "0,1")
    assert out == [
        "value: 1/3",
        "agent best response: 1/3",
        "bookie best response: 1/3",
        "saddle: yes",
    ]


def test_saddle_rejects_stick_rule():
    code, text = cli("saddle", "corpus/monty-hall",
                     "--rule", "1,0,0/1,0,0", "--mixture", "1/2,1/2")
    assert code == 0
    assert text.splitlines()[-1] == "saddle: no (agent-deviation)"
    code, _ = cli("saddle", "corpus/monty-hall",
                  "--rule", "1,0,0/1,0,0", "--mixture", "1/2,1/2", "--strict")
    assert code == 1


@pytest.mark.parametrize(
    "mixture, message",
    (
        ("1", "mixture length != number of generators"),
        ("3/2,-1/2", "mixture must be a probability vector"),
        ("1/2,1/3", "mixture must be a probability vector"),
    ),
)
def test_saddle_refuses_a_bad_mixture(capsys, mixture, message):
    code, text = cli("saddle", "corpus/monty-hall",
                     "--rule", "0,0,1/0,1,0", "--mixture", mixture)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: %s\n" % message


def test_mixtures_are_indexed_by_the_file_generators(tmp_path):
    # the first generator is listed twice; the credal set keeps one copy
    half, other = [["1/2", "0"], ["0", "1/2"]], [["0", "1/2"], ["1/2", "0"]]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({
        "x_labels": ["0", "1"],
        "y_labels": ["0", "1"],
        "actions": ["a", "b"],
        "convex": True,
        "generators": [half, half, other],
        "loss": [["0", "1"], ["1", "0"]],
    }))
    out = lines("solve", str(path))
    assert "rule: 0->b, 1->b" in out
    assert "bookie mixture: 1/2, 0, 1/2" in out
    assert lines("saddle", str(path), "--rule", "0,1/0,1", "--mixture", "1/2,0,1/2")[-1] == (
        "saddle: yes"
    )
    # 2/3 on the first generator: accepted, though not an equilibrium
    assert lines("saddle", str(path), "--rule", "0,1/0,1", "--mixture", "1/3,1/3,1/3") == [
        "value: 1/2",
        "agent best response: 1/3",
        "bookie best response: 1/2",
        "saddle: no (agent-deviation)",
    ]


# -- hull and check ------------------------------------------------------

def test_hull_of_mirror_pair():
    out = lines("hull", "corpus/example-4.2")
    assert out[0] == "generators: 4"
    assert out[1:5] == [
        "  1/3 1/6 / 1/3 1/6",
        "  1/3 1/6 / 1/6 1/3",
        "  1/6 1/3 / 1/3 1/6",
        "  1/6 1/3 / 1/6 1/3",
    ]
    assert out[5] == "convex: no"
    assert out[6] == "rectangular: no"


def test_check_rect_and_conservative():
    assert lines("check", "rect", "corpus/example-4.5") == ["rectangular: yes"]
    assert lines("check", "conservative", "corpus/example-4.5") == [
        "conservative: no"
    ]


def test_check_dilation_two_coins():
    out = lines("check", "dilation", "corpus/walley-two-coins")
    assert out == [
        "event H: prior [1/2, 1/2]  H [0, 1]  T [0, 1]  dilation yes",
        "event T: prior [1/2, 1/2]  H [0, 1]  T [0, 1]  dilation yes",
    ]


# -- consistency ---------------------------------------------------------

def test_weak_consistency_witness():
    out = lines("consistency", "weak", "corpus/example-2.1")
    assert out == [
        "structure: not rectangular; not conservative; convex -> no guarantee",
        "weak time consistency: inconsistent",
        "witness rule: 0: (1/2, 1/2), 1: (1/2, 1/2)",
        "witness prior worst case: 1/2",
    ]
    code, _ = cli("consistency", "weak", "corpus/example-2.1", "--strict")
    assert code == 1


def test_time_check_solves_the_prior_game_once(monkeypatch):
    # the weak check's prior LP is kept: the time check adds only its face
    games, faces = [], []
    block_game = credal.minimax.block_game
    face_vertices = credal.minimax.optimal_face_vertices

    def game(rows, widths):
        games.append(len(widths))
        return block_game(rows, widths)

    def face(rows, widths, value, prices):
        faces.append(len(widths))
        return face_vertices(rows, widths, value, prices)

    monkeypatch.setattr(credal.minimax, "block_game", game)
    monkeypatch.setattr(credal.minimax, "optimal_face_vertices", face)
    assert lines("consistency", "time", "corpus/example-4.5")[1] == (
        "time consistency: inconsistent"
    )
    # one prior game over the two live signals, one posterior game at each
    assert sorted(games) == sorted(faces) == [1, 1, 2]


def test_time_consistency_signal_witness():
    out = lines("consistency", "time", "corpus/example-4.6")
    assert out[1] == "time consistency: inconsistent"
    assert out[2] == "witness rule: 0->1, 1->0"
    assert out[3] == "at signal: 0"
    assert out[4] == "posterior loss: 1"
    assert out[5] == "posterior value: 1/2"


def test_dynamic_consistency_pair_witness():
    out = lines("consistency", "dynamic", "corpus/example-2.1-ext")
    assert out[1] == "dynamic consistency: inconsistent"
    assert out[2] == "condition: condition-1"
    assert out[3] == "delta: 0->2, 1->0"
    assert out[4] == "delta prime: 0->2, 1->1"
    assert out[7] == "prior worst case: 2/3 vs 1/3"


def test_dynamic_unknown_reports_strict_variant():
    out = lines("consistency", "dynamic", "corpus/example-4.5",
                "--budget", "0")
    assert out[1] == "dynamic consistency: unknown"
    assert out[2] == "strict-variant pair (reported only):"
    assert out[3] == "  condition: strict-variant"
    # strict exit only fires on a hard inconsistent verdict
    code, _ = cli("consistency", "dynamic", "corpus/example-4.5",
                  "--budget", "0", "--strict")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    (
        ("solve", "corpus/monty-hall"),
        ("posterior", "corpus/monty-hall"),
        ("hull", "corpus/monty-hall"),
        ("oracle", "corpus/monty-hall", "--grid", "2"),
        ("check", "rect", "corpus/monty-hall"),
        ("corpus", "run"),
    ),
)
def test_strict_is_refused_where_no_verdict_can_fail(capsys, argv):
    # only saddle, consistency and calibrate have a failing verdict
    assert cli(*argv, "--strict") == (2, "")
    assert "unrecognized arguments: --strict" in capsys.readouterr().err


# -- calibrate -----------------------------------------------------------

def test_calibrate_standard_not_calibrated():
    code, text = cli("calibrate", "corpus/example-6.6", "--rule", "standard")
    assert code == 0
    assert text.splitlines() == [
        "rule: standard",
        "classes: 0,1",
        "class 0,1: forward yes, backward no",
        "verdict: not calibrated",
        "failing classes: 0,1",
        "semi-calibrated: yes",
    ]
    code, _ = cli("calibrate", "corpus/example-6.6", "--rule", "standard",
                  "--strict")
    assert code == 1


def test_calibrate_sharpness_witness():
    out = lines("calibrate", "corpus/example-6.7", "--rule", "ignore",
                "--sharp")
    assert out[-2] == "sharp: no"
    assert out[-1] == "narrower partition: 0|1"


def test_calibrate_partition_rule_sharp():
    out = lines("calibrate", "corpus/example-6.7", "--rule", "partition:0|1",
                "--sharp")
    assert out[0] == "rule: partition:0|1"
    assert "verdict: calibrated" in out
    assert out[-1] == "sharp: yes"


# -- oracle and corpus ---------------------------------------------------

def test_oracle_sandwich():
    assert lines("oracle", "corpus/example-2.1", "--grid", "3") == [
        "grid: 3",
        "lower bound: -1/3",
        "upper bound: 1/3",
        "lp value: 1/3",
        "within bounds: yes",
    ]


def test_corpus_run_all_green():
    code, text = cli("corpus", "run")
    assert code == 0
    assert text.splitlines()[-1] == "corpus: 121 expectations, all passed"
    assert "example-2.1: 21 ok" in text


# -- error paths ---------------------------------------------------------

def test_missing_file_is_an_input_error(capsys):
    code, _ = cli("solve", "/no/such/file")
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_directory_as_file_is_an_input_error(tmp_path, capsys):
    code, text = cli("solve", str(tmp_path))
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: cannot read %s: Is a directory\n" % tmp_path


def test_malformed_file_names_the_field(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "x_labels": ["0", "1"],
        "y_labels": ["0", "1"],
        "actions": ["a", "b"],
        "convex": False,
        "generators": [[["1/2", "1/3"], ["0", "0"]]],
        "loss": [["0", "1"], ["1", "0"]],
    }))
    code, _ = cli("solve", str(path))
    assert code == 2
    assert "generators[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["hull"], ["check", "rect"], ["calibrate", "--rule", "standard"]],
    ids=lambda a: " ".join(a),
)
def test_one_action_file_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "one-action.json"
    path.write_text(json.dumps({
        "x_labels": ["0", "1"],
        "y_labels": ["0", "1"],
        "actions": ["go"],
        "convex": True,
        "generators": [[["1/2", "0"], ["0", "1/2"]]],
        "loss": [["0"], ["1"]],
    }))
    code, out = cli(*argv, str(path))
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: field 'actions'"), err


def test_unknown_subcommand(capsys):
    code, _ = cli("frobnicate", "x")
    assert code == 2


def test_unknown_corpus_id(capsys):
    code, _ = cli("solve", "corpus/example-99")
    assert code == 2
    assert "example-99" in capsys.readouterr().err


def test_solve_needs_a_loss(capsys):
    code, _ = cli("solve", "corpus/example-6.7")
    assert code == 2
    assert "loss" in capsys.readouterr().err


def test_bad_rule_spec(capsys):
    code, _ = cli("calibrate", "corpus/example-6.7", "--rule", "bogus")
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_help_exits_zero():
    code, _ = cli("--help")
    assert code == 0
    code, _ = cli("solve", "--help")
    assert code == 0


def test_oracle_grid_must_be_positive(capsys):
    code, _ = cli("oracle", "corpus/example-2.1", "--grid", "0")
    assert code == 2


def test_dynamic_budget_must_not_be_negative(capsys):
    code, text = cli("consistency", "dynamic", "corpus/example-2.1", "--budget", "-1")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == "error: --budget must be at least 0\n"
