"""End-to-end tests for the command line interface.

Every golden here is the byte-exact output of the command; the CLI
promises deterministic output, so these are plain string equalities.
"""

import io
import json
import time

import pytest

from credal.cli import run
from credal.core import HULL_PRODUCT_LIMIT


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


def _ten_by_five(tmp_path, generators=3):
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
        "loss": [[str(j % 2), str((j + 1) % 2)] for j in range(ny)],
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


def test_solve_refuses_more_than_twelve_rule_variables(tmp_path, capsys):
    code, _ = cli("solve", str(_ten_by_five(tmp_path)))
    assert code == 3
    err = capsys.readouterr().err
    assert err == "refused: face enumeration limited to 12 variables, got 20\n"


def test_oracle_refuses_an_oversized_grid(capsys):
    code, _ = cli("oracle", "corpus/example-2.1", "--grid", "5000")
    assert code == 3
    err = capsys.readouterr().err
    assert err == "refused: grid search limited to 10000000 rules, got 25010001\n"


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


def test_dynamic_unknown_reports_strict_variant(monkeypatch):
    monkeypatch.setenv("CREDAL_SEED", "7")
    out = lines("consistency", "dynamic", "corpus/example-4.5",
                "--budget", "0")
    assert out[1] == "dynamic consistency: unknown"
    assert out[2] == "strict-variant pair (reported only):"
    assert out[3] == "  condition: strict-variant"
    # strict exit only fires on a hard inconsistent verdict
    code, _ = cli("consistency", "dynamic", "corpus/example-4.5",
                  "--budget", "0", "--strict")
    assert code == 0


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
