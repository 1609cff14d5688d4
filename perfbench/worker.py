"""The measured process: one closed-loop client, one thread.

    python3 perfbench/worker.py PLAN OUT [--setup-only] [--spans PATH]

Set-up is ``import credal`` plus ``parse_problem_file`` on every input
of the plan; the worker prints ``ready`` when it is done.  It then runs
the plan's analyses one at a time, timing each, and afterwards, outside
the timed region, checks every result.  Between analyses, at least
every ``REF_EVERY`` seconds, it times the reference kernel of
``speed.py``, so the timings can be scaled by the machine's speed at
the time.  OUT receives the timings, the reference samples with the
number of analyses done before each, the failures and the peak
resident memory as JSON.  With ``--spans`` the analyses run traced
and the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from time import perf_counter

import speed

# Seconds of analyses between two reference samples.
REF_EVERY = 0.25
# Reference samples taken before the first analysis.
REF_FIRST = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import credal

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    problems = {name: credal.parse_problem_file(text) for name, text in plan["inputs"].items()}
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import workloads

    goldens = workloads.load_goldens() if plan["workload"] == "corpus-cli" else None
    times = []
    results = []
    ref = [speed.sample() for _ in range(REF_FIRST)]
    ref_at = [0] * REF_FIRST
    paused = 0.0
    start = last_ref = perf_counter()
    for a in plan["analyses"]:
        if tracer is not None:
            tracer.analysis = a["id"]
        pf = problems.get(a.get("input"))
        t0 = perf_counter()
        try:
            result, error = workloads.run_analysis(a, pf, goldens), None
        except Exception as e:  # a raise or a size refusal counts as a failed analysis
            result, error = None, "%s: %s" % (type(e).__name__, e)
        t1 = perf_counter()
        times.append(t1 - t0)
        results.append((result, error))
        if t1 - last_ref >= REF_EVERY:
            ref.append(speed.sample())
            ref_at.append(len(times))
            last_ref = perf_counter()
            paused += last_ref - t1
    wall = perf_counter() - start - paused
    if tracer is not None:
        tracer.analysis = None
        tracer.uninstall()

    failures = []
    for a, (result, error) in zip(plan["analyses"], results):
        if error is None:
            try:
                why = workloads.check_analysis(a, result, problems.get(a.get("input")), goldens, problems)
            except Exception:
                why = ["check raised: " + traceback.format_exc(limit=3)]
            error = "; ".join(why) or None
        if error is not None:
            failures.append({"id": a["id"], "kind": a["kind"], "why": error})

    if tracer is not None:
        tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "times": times,
                "wall": wall,
                "ref": ref,
                "ref_at": ref_at,
                "failures": failures,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
