"""Every CLI invocation recorded in the benchmark's goldens, replayed.

``perfbench/goldens/corpus-cli.json`` holds the stdout of 128
invocations on the bundled cases.  Each must exit 0 and print the same
bytes, except ``solve``'s ``bookie mixture:`` line: the mixture depends
on the simplex's pivot path, so it is replayed through ``verify_saddle``
against the printed rule instead.
"""

import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from credal.cli import run
from credal.core import rule_from_weights
from credal.corpus import load_case
from credal.minimax import verify_saddle

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens" / "corpus-cli.json"
INVOCATIONS = json.loads(GOLDENS.read_text(encoding="utf-8"))["invocations"]

MIXTURE = "bookie mixture: "
# one "x->action" or "x: (w, w, ...)" entry of the ``rule:`` line
RULE_ENTRY = re.compile(r"([^\s,:]+)(?:->([^\s,]+)|: \(([^)]*)\))")


def _printed_rule(text, space):
    weights = []
    for _, act, ws in RULE_ENTRY.findall(text):
        if act:
            weights.append([Fraction(int(a == act)) for a in space.actions])
        else:
            weights.append([Fraction(w) for w in ws.split(", ")])
    return rule_from_weights(space, weights)


def test_the_goldens_cover_every_recorded_invocation():
    assert len(INVOCATIONS) == 128


@pytest.mark.parametrize("golden", INVOCATIONS, ids=[" ".join(g["argv"]) for g in INVOCATIONS])
def test_invocation_prints_its_golden(golden):
    buf = io.StringIO()
    assert run(list(golden["argv"]), stdout=buf) == 0
    got, want = buf.getvalue(), golden["stdout"]
    if golden["argv"][0] != "solve":
        assert got == want
        return
    keep = lambda text: [ln for ln in text.splitlines() if not ln.startswith(MIXTURE)]
    assert keep(got) == keep(want)
    (mixture,) = [ln[len(MIXTURE):] for ln in got.splitlines() if ln.startswith(MIXTURE)]
    (rule,) = [ln[len("rule: "):] for ln in got.splitlines() if ln.startswith("rule: ")]
    dp = load_case(golden["argv"][1].split("/", 1)[1]).problem()
    weights = [Fraction(w) for w in mixture.split(", ")]
    assert verify_saddle(dp, weights, _printed_rule(rule, dp.space)).holds
