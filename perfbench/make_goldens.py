"""Write ``goldens/corpus-cli.json``: the corpus-cli invocations and their stdout.

The committed file was taken at the commit that introduced the
benchmark; regenerate it only when a change is meant to alter CLI
output.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_goldens.py

"Applicable" subcommands: commands that need a loss are skipped on
loss-free cases, ``--sharp`` is skipped on finite sets, ``dynamic``
runs with ``--budget 0`` and ``oracle`` with ``--grid 4``.  ``saddle``
is given the rule and bookie mixture that ``solve`` finds, when that
rule is deterministic: ``--rule`` separates signals with ``/``, so it
cannot carry a fractional weight.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

import credal
import credal.cli
import credal.corpus

from workloads import GOLDENS


def _weights(ws) -> str:
    return ",".join(str(Fraction(w)) for w in ws)


def invocations() -> list[list[str]]:
    out = []
    for cid in credal.corpus_ids():
        pf = credal.parse_problem_file(credal.corpus.corpus_text(cid))
        path = "corpus/" + cid
        out.append(["hull", path])
        for what in ("rect", "conservative", "dilation"):
            out.append(["check", what, path])
        for rule in ("standard", "ignore"):
            out.append(["calibrate", path, "--rule", rule])
            if pf.convex:
                out.append(["calibrate", path, "--rule", rule, "--sharp"])
        if pf.loss is None:
            continue
        out.append(["solve", path])
        sol = credal.solve_a_priori(pf.problem())
        if sol.rule.is_deterministic():
            out.append([
                "saddle", path,
                "--rule", "/".join(_weights(a.weights) for a in sol.rule.per_x),
                "--mixture", _weights(sol.bookie_mixture),
            ])
        out.append(["posterior", path])
        for what in ("weak", "time"):
            out.append(["consistency", what, path])
        out.append(["consistency", "dynamic", path, "--budget", "0"])
        out.append(["oracle", path, "--grid", "4"])
    out.append(["corpus", "run"])
    return out


def main() -> None:
    records = []
    for argv in invocations():
        buf = io.StringIO()
        code = credal.cli.run(argv, stdout=buf)
        if code != 0:
            raise SystemExit("%s exited %d" % (" ".join(argv), code))
        records.append({"argv": argv, "stdout": buf.getvalue()})
    GOLDENS.parent.mkdir(exist_ok=True)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({"invocations": records}, fh, indent=1)
        fh.write("\n")
    print("%d invocations written to %s" % (len(records), GOLDENS))


if __name__ == "__main__":
    main()
