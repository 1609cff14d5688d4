"""Workloads of the credal benchmark: seeded inputs, analyses and checks.

An *analysis* is one public call (or one ``credal.cli.run`` invocation)
on one problem, the unit of work a researcher waits for.  A workload is
a fixed list of analyses made from ``--seed``:

* ``games``: a priori solves with the optimal face enumerated (6-9
  rule variables), a posteriori solves on the same problems, and large
  LP-only a priori solves.  Face enumeration dominates; a few large
  simplex LPs run, and little is pruned.
* ``structure``: rectangularity, dilation, calibration and sharpness on
  random convex sets, a third of them rectangular by construction.
  Thousands of tiny membership LPs run through ``prune`` and ``member``
  and no face is enumerated, so the simplex is used the opposite way
  from ``games``.
* ``corpus-cli``: every applicable subcommand on every bundled corpus
  case through ``credal.cli.run``, plus one ``corpus run``: the user's
  real path of argument parsing, file parsing, the layers and
  formatting, on hand-sized problems.

Every library call goes through ``credal.<name>`` attribute lookups at
call time, so the tracer can rebind those names.  The checks replay
each result through independent public primitives; they run outside
the timed region and return a list of failure reasons.
"""

from __future__ import annotations

import io
import json
import random
import re
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import credal
import credal.cli
import credal.corpus

WORKLOADS = ("corpus-cli", "games", "structure")

GOLDENS = Path(__file__).resolve().parent / "goldens" / "corpus-cli.json"

# One round of ``games``: (kind, nx, ny, na, k).  Face enumeration cost
# is set by the shape (it tries every active-constraint set), and every
# joint has full support, so each round does about the same work.  The
# two 9-variable face solves are the slowest and steadiest analyses and
# the LP-only solves stay below them, so the tail percentile falls
# inside one tight cluster rather than between two.
GAMES_ROUND = (
    ("prior_face", 2, 3, 3, 3),
    ("prior_face", 3, 3, 2, 4),
    ("prior_face", 2, 4, 3, 6),
    ("prior_face", 4, 3, 2, 4),
    ("prior_face", 2, 3, 4, 3),
    ("prior_face", 3, 3, 3, 3),
    ("prior_face", 3, 3, 3, 3),
    ("prior_lp", 6, 4, 3, 12),
    ("prior_lp", 8, 4, 3, 10),
)

# One round of ``structure``: (set kind, nx, ny, k, analyses).  A
# "hull" set is the hull of k random joints, rectangular by
# construction; two of the six sets in a round are.  The two sharpness
# searches at nx=5 are the slowest and steadiest analyses, so the tail
# percentile falls inside their cluster.
STRUCTURE_ROUND = (
    ("random", 3, 2, 3, ("rect", "dilation", "calibration")),
    ("random", 2, 4, 3, ("rect", "dilation", "calibration")),
    ("hull", 3, 2, 2, ("rect", "sharp", "dilation", "calibration")),
    ("random", 5, 2, 2, ("sharp", "dilation", "calibration")),
    ("random", 5, 2, 2, ("sharp", "dilation", "calibration")),
    ("hull", 2, 3, 2, ("rect", "dilation", "calibration")),
)


# ---------------------------------------------------------------- inputs


def _space(nx, ny, na):
    return credal.ProblemSpace(
        tuple(str(i) for i in range(nx)),
        tuple(str(i) for i in range(ny)),
        tuple(str(i) for i in range(na)),
    )


def _joint(rng: random.Random, nx: int, ny: int):
    """Random joint with every cell positive, so every signal is live.

    The denominator is at least twice the cell count, so draws rarely
    coincide (a repeated generator would shrink the problem)."""
    n = nx * ny
    denom = rng.randint(2 * n, max(24, 3 * n))
    counts = [1] * n
    for _ in range(denom - n):
        counts[rng.randrange(n)] += 1
    return [[Fraction(counts[i * ny + j], denom) for j in range(ny)] for i in range(nx)]


def _loss(rng: random.Random, space):
    table = [
        [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(space.na)]
        for _ in range(space.ny)
    ]
    return credal.loss_function(space, table)


def _games_text(rng, nx, ny, na, k):
    space = _space(nx, ny, na)
    p = credal.credal_set(space, [_joint(rng, nx, ny) for _ in range(k)], True)
    return credal.render_problem_file(credal.problem_file_from(p, _loss(rng, space)))


def _structure_text(rng, kind, nx, ny, k):
    space = _space(nx, ny, 2)
    p = credal.credal_set(space, [_joint(rng, nx, ny) for _ in range(k)], True)
    if kind == "hull":
        p = credal.hull(p)
    return credal.render_problem_file(credal.problem_file_from(p))


def make_plans(workload: str, seed: int, rounds: int) -> list[dict]:
    """The plans of one run: inputs (problem-file text by name) and analyses.

    Each plan is run by its own process.  ``games`` and ``structure``
    have one plan of ``rounds`` rounds; ``corpus-cli`` has one plan per
    round (a pass over its fixed invocations, in a seeded order), since
    its inputs are the bundled cases and must not repeat in a process.
    The same arguments give byte-identical plans.  No input repeats in
    a plan, so a memo cache cannot show a gain that a user asking new
    questions would not see.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "corpus-cli":
        inputs = {cid: credal.corpus.corpus_text(cid) for cid in credal.corpus_ids()}
        count = len(load_goldens())
        plans = []
        for _ in range(rounds):
            order = list(range(count))
            rng.shuffle(order)
            plans.append(_plan(workload, seed, inputs, [{"kind": "cli", "golden": i} for i in order]))
        return plans

    inputs: dict[str, str] = {}
    analyses: list[dict] = []

    def add_input(draw):
        text = draw()
        while text in inputs.values():
            text = draw()
        name = "p%04d" % len(inputs)
        inputs[name] = text
        return name

    if workload == "games":
        for _ in range(rounds):
            faces = []
            for kind, nx, ny, na, k in GAMES_ROUND:
                name = add_input(lambda: _games_text(rng, nx, ny, na, k))
                analyses.append({"kind": kind, "input": name})
                if kind == "prior_face":
                    faces.append(name)
            analyses.extend({"kind": "posterior", "input": n} for n in faces)
    elif workload == "structure":
        for _ in range(rounds):
            for kind, nx, ny, k, kinds in STRUCTURE_ROUND:
                name = add_input(lambda: _structure_text(rng, kind, nx, ny, k))
                analyses.extend(
                    {"kind": a, "input": name, "built_rectangular": kind == "hull"}
                    for a in kinds
                )
    else:
        raise ValueError("unknown workload %r" % workload)
    return [_plan(workload, seed, inputs, analyses)]


def _plan(workload, seed, inputs, analyses) -> dict:
    for i, a in enumerate(analyses):
        a["id"] = i
    return {"workload": workload, "seed": seed, "inputs": inputs, "analyses": analyses}


def load_goldens() -> list[dict]:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)["invocations"]


# -------------------------------------------------------------- analyses


def run_analysis(a: dict, pf, goldens):
    """Run one analysis; returns the result the check needs."""
    kind = a["kind"]
    if kind == "prior_face":
        return credal.solve_a_priori(pf.problem())
    if kind == "prior_lp":
        return credal.solve_a_priori(pf.problem(), face=False)
    if kind == "posterior":
        return credal.solve_a_posteriori(pf.problem())
    if kind == "rect":
        return credal.is_rectangular(pf.credal())
    if kind == "dilation":
        return credal.dilation_report(pf.credal())
    if kind == "calibration":
        return credal.check_calibration(credal.standard_conditioning(), pf.credal())
    if kind == "sharp":
        return credal.sharp_partition(pf.credal())
    if kind == "cli":
        buf = io.StringIO()
        code = credal.cli.run(list(goldens[a["golden"]]["argv"]), stdout=buf)
        return code, buf.getvalue()
    raise ValueError("unknown analysis kind %r" % kind)


# ---------------------------------------------------------------- checks


def _worst(p, rule, loss):
    return credal.worst_case_loss(p, rule, loss)[0]


def check_prior(sol, dp, face: bool) -> list[str]:
    why = []
    if _worst(dp.credal, sol.rule, dp.loss) != sol.value:
        why.append("worst-case loss of the rule != value")
    if not credal.verify_saddle(dp, sol.bookie_mixture, sol.rule).holds:
        why.append("saddle check fails")
    if face:
        if not sol.optimal_rule_vertices:
            why.append("empty optimal face")
        elif any(_worst(dp.credal, v, dp.loss) != sol.value for v in sol.optimal_rule_vertices):
            why.append("a face vertex misses the value")
        if credal.solve_a_priori(dp, face=False).value != sol.value:
            why.append("face=False value differs")
    return why


def check_posterior(post, dp) -> list[str]:
    live = credal.support_x(dp.credal)
    if tuple(pt.x for pt in post.per_x) != live:
        return ["signals %s != support %s" % ([pt.x for pt in post.per_x], list(live))]
    table = dp.loss.table
    why = []
    for pt in post.per_x:
        if not pt.action_vertices:
            why.append("no optimal action at %s" % pt.x)
        for act in pt.action_vertices:
            risk = [sum(w * table[y][a] for a, w in enumerate(act.weights)) for y in range(len(table))]
            worst = max(sum(q * r for q, r in zip(g, risk)) for g in pt.projection.generators)
            if worst != pt.value:
                why.append("action vertex at %s attains %s, not %s" % (pt.x, worst, pt.value))
    return why


def _products(p):
    """Every product of a generator's X-marginal with, at each signal it
    reaches, some generator's conditional given that signal.

    Their convex hull is the hull of ``p``'s product construction; they
    are built here, not by ``credal.hull``, so the check does not reuse
    the code it checks."""
    margs = [g.x_marginal() for g in p.generators]
    conds = [[c for g in p.generators if (c := g.conditional_y(i)) is not None] for i in range(p.space.nx)]
    zero = (Fraction(0),) * p.space.ny
    for q in margs:
        live = [i for i in range(p.space.nx) if q[i] > 0]
        for choice in product(*(conds[i] for i in live)):
            pick = dict(zip(live, choice))
            yield tuple(
                v for i in range(p.space.nx) for v in ((q[i] * c for c in pick[i]) if i in pick else zero)
            )


def check_rect(verdict, p, built_rectangular: bool) -> list[str]:
    if verdict not in (True, False):
        return ["verdict is not a bool"]
    if built_rectangular:
        return [] if verdict else ["a hull-built set reported not rectangular"]
    jp = credal.joint_polytope(p)
    outside = next((g for g in _products(p) if not credal.member(g, jp)), None)
    if verdict and outside is not None:
        return ["reported rectangular, but a product lies outside"]
    if not verdict and outside is None:
        return ["reported not rectangular, but every product lies inside"]
    return []


def _event_prob(mass, rows, ev):
    return sum(mass[i][j] for i in rows for j in ev)


def check_dilation(rep, p) -> list[str]:
    ny = p.space.ny
    events = [ev for size in range(1, ny) for ev in combinations(range(ny), size)]
    if len(rep.rows) != len(events):
        return ["%d rows for %d events" % (len(rep.rows), len(events))]
    why = []
    masses = [g.mass for g in p.generators]
    live = list(credal.support_x(p))
    for row, ev in zip(rep.rows, events):
        pri = [_event_prob(m, range(p.space.nx), ev) for m in masses]
        if row.prior != (min(pri), max(pri)):
            why.append("prior interval of %s" % (row.event,))
        if [x for x, _ in row.posteriors] != live:
            why.append("posteriors of %s are not over the support" % (row.event,))
        for x, lohi in row.posteriors:
            xi = p.space.x_index(x)
            vals = [_event_prob(m, [xi], ev) / sum(m[xi]) for m in masses if sum(m[xi]) > 0]
            if lohi != (min(vals), max(vals)):
                why.append("posterior interval of %s at %s" % (row.event, x))
    return why


def check_calibration(rep, p, built_rectangular: bool) -> list[str]:
    why = []
    for cl in rep.per_class:
        if cl.forward != credal.subset(cl.posterior, cl.image):
            why.append("forward inclusion of %s" % (cl.cell,))
        if cl.backward != credal.subset(cl.image, cl.posterior):
            why.append("backward inclusion of %s" % (cl.cell,))
    if rep.calibrated != all(cl.forward and cl.backward for cl in rep.per_class):
        why.append("verdict disagrees with the class reports")
    # conditioning on a hull-closed convex set is calibrated
    if built_rectangular and not rep.calibrated:
        why.append("a hull-built set reported not calibrated")
    return why


def check_sharp(result, p) -> list[str]:
    part, cert = result
    why = []
    if not credal.check_calibration(credal.partition_conditioning(part), p).calibrated:
        why.append("sharp partition %s is not calibrated" % part)
    if part not in cert.minimal:
        why.append("sharp partition is not among the minimal ones")
    return why


_MIXTURE = "bookie mixture: "
_RULE = re.compile(r"([^\s,:]+)(?:->([^\s,]+)|: \(([^)]*)\))")


def _rule_from_text(text: str, dp):
    """Decision rule from the CLI's ``rule:`` line."""
    space = dp.space
    weights = []
    for x, act, ws in _RULE.findall(text):
        if act:
            weights.append([Fraction(int(a == act)) for a in space.actions])
        else:
            weights.append([Fraction(w) for w in ws.split(", ")])
    return credal.rule_from_weights(space, weights)


def check_cli(result, golden: dict, problems: dict) -> list[str]:
    """Exit 0 and stdout equal to the golden taken at the seed commit.

    The one exception is ``solve``'s bookie mixture, which depends on
    the simplex's pivot path; it is replayed through ``verify_saddle``.
    """
    code, text = result
    if code != 0:
        return ["exit code %d" % code]
    got, want = text.splitlines(), golden["stdout"].splitlines()
    if golden["argv"][0] != "solve":
        return [] if got == want else ["stdout differs from the golden"]
    keep = lambda lines: [ln for ln in lines if not ln.startswith(_MIXTURE)]
    if keep(got) != keep(want):
        return ["stdout differs from the golden"]
    mix = [ln[len(_MIXTURE):] for ln in got if ln.startswith(_MIXTURE)]
    rule = [ln[len("rule: "):] for ln in got if ln.startswith("rule: ")]
    if len(mix) != 1 or len(rule) != 1:
        return ["solve printed no single mixture and rule"]
    dp = problems[golden["argv"][1].split("/", 1)[1]].problem()
    mixture = [Fraction(w) for w in mix[0].split(", ")]
    try:
        holds = credal.verify_saddle(dp, mixture, _rule_from_text(rule[0], dp)).holds
    except ValueError as e:
        return ["bookie mixture rejected: %s" % e]
    return [] if holds else ["bookie mixture is not a saddle"]


def check_analysis(a: dict, result, pf, goldens, problems) -> list[str]:
    kind = a["kind"]
    if kind in ("prior_face", "prior_lp"):
        return check_prior(result, pf.problem(), face=kind == "prior_face")
    if kind == "posterior":
        return check_posterior(result, pf.problem())
    if kind == "rect":
        return check_rect(result, pf.credal(), a["built_rectangular"])
    if kind == "dilation":
        return check_dilation(result, pf.credal())
    if kind == "calibration":
        return check_calibration(result, pf.credal(), a["built_rectangular"])
    if kind == "sharp":
        return check_sharp(result, pf.credal())
    if kind == "cli":
        return check_cli(result, goldens[a["golden"]], problems)
    raise ValueError("unknown analysis kind %r" % kind)
