"""Tests of the benchmark itself (not part of the package's suite).

    PYTHONPATH=src:perfbench python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import credal  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import FUNCTIONS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ smoke runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for name, unit in want.items():
        assert res["metrics"][name]["value"] > 0
        assert "%s %s = " % (workload, name) in proc.stdout
    assert "analysis_tail_ms is p" in proc.stdout
    assert "%s unscaled: " % workload in proc.stdout


@pytest.mark.parametrize("workload,seconds", (("games", "1"), ("structure", "1"), ("corpus-cli", "7")))
def test_traced_counts_repeat_exactly(workload, seconds):
    runs = [_result(_bench("--workload", workload, "--seed", "4", "--seconds", seconds, "--trace", "1")) for _ in range(2)]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for res in runs:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert all(v["value"] >= 0 for k, v in res["metrics"].items() if k.endswith(".self_s"))
    counts = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] in ("count", "ratio")} for res in runs]
    assert counts[0] == counts[1]


def test_trace_confirms_the_layer_split():
    games, structure = (
        _result(_bench("--workload", w, "--seed", "5", "--seconds", "1", "--trace", "1"))["metrics"]
        for w in ("games", "structure")
    )
    assert structure["linprog.optimal_face_vertices.calls"]["value"] == 0
    self_times = {k: v["value"] for k, v in games.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "linprog.optimal_face_vertices.self_s"
    assert structure["polytope.prune.self_s"]["value"] > games["polytope.prune.self_s"]["value"]


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "games", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------- inputs


def test_same_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.make_plans(workload, 7, 2)
        assert json.dumps(a) == json.dumps(workloads.make_plans(workload, 7, 2))
        assert json.dumps(a) != json.dumps(workloads.make_plans(workload, 8, 2))


def test_no_input_repeats_within_a_plan():
    for workload in ("games", "structure"):
        (plan,) = workloads.make_plans(workload, 9, 3)
        texts = list(plan["inputs"].values())
        assert len(set(texts)) == len(texts)


def test_benchmark_json_lists_the_traced_functions():
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for fn in FUNCTIONS:
        assert {fn + ".calls", fn + ".self_s"} <= names
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_speed_factor_undoes_a_uniformly_slower_machine():
    assert speed.factor([speed.REF_SECONDS] * 3) == 1
    assert speed.factor([speed.REF_SECONDS, 2 * speed.REF_SECONDS, 9]) == 0.5
    assert speed.sample() > 0


def test_local_factors_follow_a_speed_change_within_a_run():
    r = speed.REF_SECONDS
    # three samples before the first analysis, then one after each; the
    # machine runs at half speed from the fifth analysis on
    samples = [r] * 5 + [2 * r] * 5
    at = [0, 0, 0, 1, 2, 3, 4, 5, 6, 7]
    f = speed.local_factors(8, samples, at, width=3)
    assert f[0] == 1 and f[-1] == 0.5


def test_tail_percentile_leaves_ten_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(168) == 94
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(5) == 50


# ------------------------------------------------- checks reject tampering


@pytest.fixture(scope="module")
def games_plan():
    (plan,) = workloads.make_plans("games", 11, 1)
    return plan


@pytest.fixture(scope="module")
def structure_plan():
    (plan,) = workloads.make_plans("structure", 11, 1)
    return plan


def _first(plan, kind, built_rectangular=None):
    for a in plan["analyses"]:
        if a["kind"] == kind and built_rectangular in (None, a.get("built_rectangular")):
            pf = credal.parse_problem_file(plan["inputs"][a["input"]])
            return a, pf, workloads.run_analysis(a, pf, None)
    raise LookupError(kind)


def _check(a, result, pf, goldens=None, problems=None):
    return workloads.check_analysis(a, result, pf, goldens, problems)


@pytest.mark.parametrize("kind", ("prior_face", "prior_lp"))
def test_prior_checks_reject_a_shifted_value(games_plan, kind):
    a, pf, sol = _first(games_plan, kind)
    assert _check(a, sol, pf) == []
    assert _check(a, dataclasses.replace(sol, value=sol.value + Fraction(1, 1000)), pf)


def test_prior_check_rejects_a_foreign_face_vertex(games_plan):
    a, pf, sol = _first(games_plan, "prior_face")
    space = pf.space()
    worst = credal.constant_rule(space, [Fraction(int(i == 0)) for i in range(space.na)])
    if credal.worst_case_loss(pf.credal(), worst, pf.problem().loss)[0] == sol.value:
        pytest.skip("the constant rule happens to be optimal")
    tampered = dataclasses.replace(sol, optimal_rule_vertices=sol.optimal_rule_vertices + (worst,))
    assert _check(a, tampered, pf)


def test_posterior_check_rejects_a_shifted_value(games_plan):
    a, pf, post = _first(games_plan, "posterior")
    assert _check(a, post, pf) == []
    pt = post.per_x[0]
    bad = dataclasses.replace(pt, value=pt.value + Fraction(1, 1000))
    assert _check(a, dataclasses.replace(post, per_x=(bad,) + post.per_x[1:]), pf)


@pytest.mark.parametrize("built", (True, False))
def test_rect_check_rejects_a_flipped_verdict(structure_plan, built):
    a, pf, verdict = _first(structure_plan, "rect", built_rectangular=built)
    assert _check(a, verdict, pf) == []
    assert _check(a, not verdict, pf)


def test_dilation_check_rejects_a_shifted_interval(structure_plan):
    a, pf, rep = _first(structure_plan, "dilation")
    assert _check(a, rep, pf) == []
    row = rep.rows[0]
    bad = dataclasses.replace(row, prior=(row.prior[0], row.prior[1] + Fraction(1, 1000)))
    assert _check(a, dataclasses.replace(rep, rows=(bad,) + rep.rows[1:]), pf)


def test_calibration_check_rejects_a_flipped_verdict(structure_plan):
    a, pf, rep = _first(structure_plan, "calibration")
    assert _check(a, rep, pf) == []
    assert _check(a, dataclasses.replace(rep, calibrated=not rep.calibrated), pf)


def test_sharp_check_rejects_a_non_minimal_partition(structure_plan):
    from credal.partitions import all_partitions

    for a in structure_plan["analyses"]:
        if a["kind"] != "sharp":
            continue
        pf = credal.parse_problem_file(structure_plan["inputs"][a["input"]])
        part, cert = workloads.run_analysis(a, pf, None)
        assert _check(a, (part, cert), pf) == []
        others = [c for c in all_partitions(pf.x_labels) if c not in cert.minimal]
        if others:
            assert _check(a, (others[0], cert), pf)
            return
    pytest.fail("every partition of every sharp input is minimal")


@pytest.fixture(scope="module")
def cli_setup():
    goldens = workloads.load_goldens()
    problems = {cid: credal.parse_problem_file(credal.corpus.corpus_text(cid)) for cid in credal.corpus_ids()}
    return goldens, problems


def _cli(goldens, *argv):
    i = next(i for i, g in enumerate(goldens) if g["argv"][: len(argv)] == list(argv))
    a = {"kind": "cli", "golden": i, "id": 0}
    return a, workloads.run_analysis(a, None, goldens)


@pytest.mark.parametrize("command", ("solve", "posterior", "corpus"))
def test_cli_check_rejects_changed_stdout(cli_setup, command):
    goldens, problems = cli_setup
    a, (code, text) = _cli(goldens, command)
    assert _check(a, (code, text), None, goldens, problems) == []
    assert _check(a, (code, text.replace("1", "2", 1)), None, goldens, problems)
    assert _check(a, (1, text), None, goldens, problems)


def test_cli_check_replays_the_bookie_mixture(cli_setup):
    goldens, problems = cli_setup
    a, (code, text) = _cli(goldens, "solve", "corpus/example-2.1")
    dp = problems["example-2.1"].problem()
    rule = credal.solve_a_priori(dp).rule
    k = len(dp.credal.generators)
    unit = [[Fraction(int(j == i)) for j in range(k)] for i in range(k)]
    wrong = next(m for m in unit if not credal.verify_saddle(dp, m, rule).holds)
    lines = [
        "bookie mixture: " + ", ".join(str(w) for w in wrong) if ln.startswith("bookie mixture: ") else ln
        for ln in text.splitlines()
    ]
    assert _check(a, (code, "\n".join(lines) + "\n"), None, goldens, problems)
