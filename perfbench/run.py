"""Run the credal benchmark on one workload, or on all of them.

    python3 perfbench/run.py --workload games --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ``src``.
Each workload is a closed loop with one client: one analysis at a
time, in one process with one thread.  Human-readable lines go first;
the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median, over several fresh processes, of the wall time
  from process start to ready (``import credal`` plus
  ``parse_problem_file`` on every input of the workload);
* ``analyses_per_s``: analyses over the analysis-phase wall time;
* ``analysis_p50_ms``: median wall time of one analysis;
* ``analysis_tail_ms``: wall time at the highest whole percentile with
  at least ten analyses beyond it; the percentile and the sample count
  are printed with it;
* ``peak_rss_mb``: peak resident memory of a workload process;
* ``failed_share`` (printed, and carried in ``failed``/``attempted``):
  analyses that raised, hit a size refusal or failed their check.

``--trace 1`` runs the same analyses untraced and then traced, each in
fresh processes, and reports calls, self time and exact counts per
traced function (see ``tracer.py``) plus the tracing overhead: the
scaled analysis time of the traced run minus that of the untraced one.

Every timing is scaled by the machine's speed, measured alongside with
the reference kernel of ``speed.py``: each analysis time by the median
of the worker's reference samples taken nearest to it, each set-up time
by the median of the samples taken in this process right after it.
``analyses_per_s`` is then analyses over the sum of the scaled analysis
times.  The unscaled figures are printed as well.

The work of a run is fixed by its arguments: ``--seconds`` sets the
number of rounds through ``ROUND_SECONDS``, so every commit is measured
on the same analyses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

# Wall seconds of one round (one pass for corpus-cli) at the commit that
# introduced the benchmark, on a shared 2-core x86-64 sandbox with
# Python 3.11.7.  A run does round(seconds / ROUND_SECONDS) rounds.
ROUND_SECONDS = {"corpus-cli": 3.5, "games": 3.0, "structure": 1.75}
SETUP_SAMPLES = 9
# Reference samples taken in this process after each set-up run.
SETUP_REF = 5
# A run is stopped, without a result, once it has taken this long.
RUN_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("analyses_per_s", "1/s"),
    ("analysis_p50_ms", "ms"),
    ("analysis_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """A worker process failed; the run has no result."""


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond
    its nearest rank; 50 when there are too few samples for that."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def nearest_rank(sorted_values, p: int):
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


def _worker(plan: Path, out: Path, deadline: float, setup_only=False, spans: Path | None = None):
    """Run one worker process; returns (seconds to ready, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan), str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # a fixed hash seed keeps the traced counts exactly repeatable
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))), PYTHONHASHSEED="0")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError("worker %s exited %s" % (plan.name, code))
    if setup_only:
        return ready, None
    with open(out, encoding="utf-8") as fh:
        return ready, json.load(fh)


def _prepare(workload: str, seed: int, seconds: float, work: Path) -> list[Path]:
    import workloads

    paths = []
    for i, plan in enumerate(workloads.make_plans(workload, seed, rounds_for(workload, seconds))):
        path = work / ("plan%03d.json" % i)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        paths.append(path)
    return paths


def _run_all(plans: list[Path], deadline: float, traced: bool) -> list[dict]:
    results = []
    for plan in plans:
        stem = plan.with_suffix("")
        spans = Path(str(stem) + ".spans.jsonl") if traced else None
        out = Path(str(stem) + (".traced" if traced else "") + ".out.json")
        _, res = _worker(plan, out, deadline, spans=spans)
        res["spans"] = spans
        results.append(res)
    return results


def _scaled_times(result) -> list[float]:
    """A worker's analysis times, each scaled by the machine's speed
    around it."""
    times = result["times"]
    factors = speed.local_factors(len(times), result["ref"], result["ref_at"])
    return [t * f for t, f in zip(times, factors)]


def _failures(results) -> list[dict]:
    return [dict(f, plan=i) for i, r in enumerate(results) for f in r["failures"]]


def measure(workload: str, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    plans = _prepare(workload, seed, seconds, work)
    setup, setup_scaled, setup_ref = [], [], []
    for _ in range(SETUP_SAMPLES + 1):
        setup.append(_worker(plans[0], plans[0].with_suffix(".setup"), deadline, setup_only=True)[0])
        ref = [speed.sample() for _ in range(SETUP_REF)]
        setup_scaled.append(setup[-1] * speed.factor(ref))
        setup_ref += ref
    results = _run_all(plans, deadline, traced=False)
    raw = sorted(t for r in results for t in r["times"])
    times = sorted(t for r in results for t in _scaled_times(r))
    failures = _failures(results)
    attempted, failed = len(times), len(failures)
    p = tail_percentile(len(times))
    metrics = {
        # the first set-up warms the bytecode and file caches, as an installed package has them
        "setup_s": statistics.median(setup_scaled[1:]),
        "analyses_per_s": len(times) / sum(times),
        "analysis_p50_ms": statistics.median(times) * 1000,
        "analysis_tail_ms": nearest_rank(times, p) * 1000,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024,
    }
    return {
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "notes": [
            "analysis_tail_ms is p%d of %d analyses (%d beyond)"
            % (p, len(times), len(times) - math.ceil(p * len(times) / 100)),
            "failed_share %.4f (%d of %d)" % (failed / attempted, failed, attempted),
            "unscaled: setup %.4f s, %.4f analyses/s, p50 %.4f ms, p%d %.4f ms; "
            "reference kernel median %.3f ms (%.3f ms in set-up)" % (
                statistics.median(setup[1:]), len(raw) / sum(r["wall"] for r in results),
                statistics.median(raw) * 1000, p, nearest_rank(raw, p) * 1000,
                statistics.median(s for r in results for s in r["ref"]) * 1000,
                statistics.median(setup_ref) * 1000),
        ],
    }


def trace(workload: str, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    from tracer import per_layer

    plans = _prepare(workload, seed, seconds, work)
    untraced = _run_all(plans, deadline, traced=False)
    traced = _run_all(plans, deadline, traced=True)
    spans = []
    for r in traced:
        # span ids count from 0 in each process; make them unique
        base = len(spans)
        with open(r["spans"], encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                span[0] += base
                if span[4] is not None:
                    span[4] += base
                spans.append(span)
    metrics = per_layer(spans)
    traced_s, untraced_s = (sum(sum(_scaled_times(r)) for r in rs) for rs in (traced, untraced))
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    # an analysis that fails in either process counts once
    failures = _failures(untraced) + _failures(traced)
    return {
        "metrics": metrics,
        "attempted": sum(len(r["times"]) for r in traced),
        "failed": len({(f["plan"], f["id"]) for f in failures}),
        "failures": failures,
        "notes": ["%d spans; scaled analysis time traced %.3f s, untraced %.3f s; "
                  "unscaled wall traced %.3f s, untraced %.3f s" % (
            len(spans), traced_s, untraced_s,
            sum(r["wall"] for r in traced), sum(r["wall"] for r in untraced))],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus-cli", "games", "structure", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "credal" / "__init__.py").is_file():
        print("error: no package at %s; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = ("corpus-cli", "games", "structure") if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        deadline = perf_counter() + RUN_TIMEOUT
        WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=name + "-", dir=WORK))
        try:
            rep = (trace if args.trace else measure)(name, args.seed, args.seconds, work, deadline)
        except BenchError as e:
            print("error: %s: %s" % (name, e), file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work)
        for f in rep["failures"]:
            print("FAIL %s plan %d analysis %d (%s): %s" % (name, f["plan"], f["id"], f["kind"], f["why"]))
        for metric, (value, unit) in rep["metrics"].items():
            print("%s %s = %.6g %s" % (name, metric, value, unit))
        for note in rep["notes"]:
            print("%s %s" % (name, note))
        prefix = name + "." if len(names) > 1 else ""
        total["metrics"].update(
            {prefix + m: {"value": v, "unit": u} for m, (v, u) in rep["metrics"].items()}
        )
        total["attempted"] += rep["attempted"]
        total["failed"] += rep["failed"]
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
