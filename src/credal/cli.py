"""Command-line front end.

Reads problem files (or bundled corpus cases by ``corpus/<id>`` paths),
dispatches to the library, and prints deterministic plain-text reports
with every number as a reduced rational.  Layers load on first use: the
module imports only ``argparse`` and the problem-file chain, and each
subcommand imports the layers it calls, so ``credal check rect f.json``
loads no solver and reading a ``corpus/<id>`` path loads no corpus op.

Exit codes: 0 on success; 1 when ``--strict``, which only ``saddle``,
``consistency`` and ``calibrate`` take, is set and the verdict is a
failed saddle check, inconsistent or not calibrated, and on any
``corpus run`` mismatch; 2 on input errors and 3 when a valid problem
is too large for an enumeration (naming the limit and the size found),
both with nothing on stdout; 141, the shell's code for SIGPIPE, when
the reader of stdout closes it before the report is written (``credal
hull f | head -1``), with nothing printed on stderr.  A failed internal
self-check (a solver certificate, a saddle check, a witness replay or
another invariant) exits 2 with ``internal error: <what>`` on stderr and
nothing on stdout; it is a bug to report, not bad input.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .core import (
    ConvexityError,
    DecisionRule,
    dilation_report,
    hull,
    is_conservative,
    is_rectangular,
    rule_from_weights,
    support_x,
)
from .linprog import LpError, SizeLimitError
from .problemfile import (
    CorpusError,
    ProblemFile,
    ProblemFileError,
    _rational,
    _rows,
    corpus_text,
    load_problem_file,
    parse_problem_file,
)
from .rationals import pair_text

__all__ = ["main", "run"]


class _InputError(Exception):
    pass


def _weights(ws) -> str:
    return "(%s)" % ", ".join(map(str, ws))


def _rule_text(rule: DecisionRule) -> str:
    space = rule.space
    parts = []
    for x, act in zip(space.x_labels, rule.per_x):
        if act.is_deterministic():
            ai = act.weights.index(1)
            parts.append("%s->%s" % (x, space.actions[ai]))
        else:
            parts.append("%s: %s" % (x, _weights(act.weights)))
    return ", ".join(parts)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _load_file(path_arg: str) -> ProblemFile:
    if os.path.exists(path_arg):
        return load_problem_file(path_arg)
    # corpus/<id> (or a bare case id) falls back to the bundled data
    name = path_arg
    if name.startswith("corpus/"):
        name = name[len("corpus/"):]
    if name.endswith(".json"):
        name = name[: -len(".json")]
    if "/" in name or not name:
        raise _InputError("no such file: %s" % path_arg)
    return parse_problem_file(corpus_text(name))


def _parse_rule_arg(text: str, pf: ProblemFile) -> DecisionRule:
    """Decision rule with one block of weights per signal: ``"w,w;w,w"``, or
    ``"w,w/w,w"`` when there is no ``;``, each weight then an integer.  On
    a file with one signal the whole text is its block."""
    space = pf.space()
    sep = ";" if ";" in text else "/"
    blocks = [text] if space.nx == 1 else text.split(sep)
    if len(blocks) != space.nx:
        raise _InputError("--rule needs %d '%s'-separated blocks" % (space.nx, sep))
    weights = [[_rational(v, "--rule") for v in b.split(",")] for b in blocks]
    try:
        return rule_from_weights(space, weights)
    except ValueError as e:
        raise _InputError("bad --rule: %s" % e)


def _parse_mixture_arg(text: str):
    return tuple(_rational(v, "--mixture") for v in text.split(","))


def _generator_index(pf: ProblemFile, dp) -> list[int]:
    """For each generator the file lists, its index in the credal set,
    which keeps the first copy of a repeated generator."""
    index = {g.pair: k for k, g in enumerate(dp.credal.generators)}
    return [index[g.pair] for g in pf.generators]


# ---------------------------------------------------------------- subcommands

def _cmd_solve(args, pf, out) -> int:
    from .minimax import solve_a_priori

    dp = pf.problem()
    sol = solve_a_priori(dp)
    # one weight per file generator, a repeated one's on its first copy
    index = _generator_index(pf, dp)
    mixture = [
        sol.bookie_mixture[k] if index.index(k) == i else 0 for i, k in enumerate(index)
    ]
    out("value: %s" % sol.value)
    out("rule: %s" % _rule_text(sol.rule))
    out("unique: %s" % _yes(sol.unique))
    out("face vertices: %d" % len(sol.optimal_rule_vertices))
    out("bookie mixture: %s" % ", ".join(map(str, mixture)))
    out("aggregate:")
    for x, row in zip(pf.space().x_labels, sol.aggregate.mass):
        out("  %s: %s" % (x, " ".join(map(str, row))))
    if sol.unconstrained_x:
        out("unconstrained signals: %s" % ", ".join(sol.unconstrained_x))
    return 0


def _cmd_posterior(args, pf, out) -> int:
    from .minimax import solve_a_posteriori

    dp = pf.problem()
    post = solve_a_posteriori(dp)
    live = support_x(dp.credal)
    out("support: %s" % ", ".join(live))
    for x in pf.space().x_labels:
        if x not in live:
            out("%s: never observed" % x)
            continue
        point = post.point(x)
        acts = " | ".join(_weights(a.weights) for a in point.action_vertices)
        out("%s: value %s, actions %s" % (x, point.value, acts))
    return 0


def _cmd_saddle(args, pf, out) -> int:
    from .minimax import verify_saddle

    dp = pf.problem()
    rule = _parse_rule_arg(args.rule, pf)
    weights = _parse_mixture_arg(args.mixture)
    index = _generator_index(pf, dp)
    if len(weights) != len(index):
        raise _InputError("mixture length != number of generators")
    if any(w < 0 for w in weights):
        raise _InputError("mixture must be a probability vector")
    # the copies of a repeated generator add up their weights
    mixture = [Fraction(0)] * len(dp.credal.generators)
    for k, w in zip(index, weights):
        mixture[k] += w
    try:
        rep = verify_saddle(dp, mixture, rule)
    except ValueError as e:
        raise _InputError(str(e))
    out("value: %s" % rep.value)
    out("agent best response: %s" % rep.agent_best_response)
    out("bookie best response: %s" % rep.bookie_best_response)
    if rep.holds:
        out("saddle: yes")
        return 0
    out("saddle: no (%s)" % ", ".join(rep.failing))
    return 1 if args.strict else 0


def _cmd_hull(args, pf, out) -> int:
    p = pf.credal()
    h = hull(p)
    out("generators: %d" % len(h.generators))
    for g in h.generators:
        out("  " + " / ".join(map(" ".join, _rows(pair_text(*g.pair), p.space.ny))))
    out("convex: %s" % _yes(h.convex))
    out("rectangular: %s" % _yes(is_rectangular(p)))
    return 0


def _cmd_check(args, pf, out) -> int:
    p = pf.credal()
    if args.what == "rect":
        out("rectangular: %s" % _yes(is_rectangular(p)))
    elif args.what == "conservative":
        out("conservative: %s" % _yes(is_conservative(p)))
    else:
        rep = dilation_report(p)
        for row in rep.rows:
            posts = "  ".join(
                "%s [%s, %s]" % (x, lo, hi)
                for x, (lo, hi) in row.posteriors
            )
            out(
                "event %s: prior [%s, %s]  %s  dilation %s"
                % (
                    ",".join(row.event),
                    row.prior[0],
                    row.prior[1],
                    posts,
                    _yes(row.dilates),
                )
            )
    return 0


_TITLES = {
    "weak-time": "weak time consistency",
    "time": "time consistency",
    "dynamic": "dynamic consistency",
}


def _emit_pair(prefix: str, w, out):
    out("%scondition: %s" % (prefix, w.condition))
    out("%sdelta: %s" % (prefix, _rule_text(w.delta)))
    out("%sdelta prime: %s" % (prefix, _rule_text(w.delta_prime)))
    for x, a, b in w.posterior:
        out("%ssignal %s: %s vs %s" % (prefix, x, a, b))
    out("%sprior worst case: %s vs %s" % (prefix, w.prior[0], w.prior[1]))


def _emit_verdict(v, out):
    from .consistency import PairWitness, SignalWitness

    out("%s: %s" % (_TITLES[v.kind], v.result))
    if isinstance(v.witness, SignalWitness):
        out("witness rule: %s" % _rule_text(v.witness.rule))
        out("at signal: %s" % v.witness.x)
        out("posterior loss: %s" % v.witness.posterior_loss)
        out("posterior value: %s" % v.witness.posterior_value)
    elif isinstance(v.witness, DecisionRule):
        out("witness rule: %s" % _rule_text(v.witness))
        out("witness prior worst case: %s" % v.witness_prior_loss)
    elif isinstance(v.witness, PairWitness):
        _emit_pair("", v.witness, out)
    if v.strict_variant_witness is not None:
        out("strict-variant pair (reported only):")
        _emit_pair("  ", v.strict_variant_witness, out)


def _cmd_consistency(args, pf, out) -> int:
    from .consistency import (
        check_time_consistency,
        check_weak_time_consistency,
        falsify_dynamic_consistency,
    )

    dp = pf.problem()
    if args.what == "weak":
        verdict = check_weak_time_consistency(dp)
    elif args.what == "time":
        verdict = check_time_consistency(dp)
    else:
        if args.budget < 0:
            raise _InputError("--budget must be at least 0")
        verdict = falsify_dynamic_consistency(dp, budget=args.budget)
    out("structure: %s" % verdict.notes.summary())
    _emit_verdict(verdict, out)
    if args.strict and verdict.result == "inconsistent":
        return 1
    return 0


def _cmd_calibrate(args, pf, out) -> int:
    from .calibration import check_calibration, is_sharply_calibrated, rule_from_spec

    p = pf.credal()
    try:
        rule = rule_from_spec(args.rule, pf.space().x_labels)
    except ValueError as e:
        raise _InputError(str(e))
    rep = check_calibration(rule, p)
    # decided before the first line, so an error or a refusal prints nothing
    sharp = is_sharply_calibrated(rule, p) if args.sharp and rep.calibrated else None
    out("rule: %s" % rule.label())
    out("classes: %s" % rep.classes)
    for cl in rep.per_class:
        out(
            "class %s: forward %s, backward %s"
            % (",".join(cl.cell), _yes(cl.forward), _yes(cl.backward))
        )
    for cell in rep.excluded:
        out("excluded: %s" % ",".join(cell))
    out("verdict: %s" % ("calibrated" if rep.calibrated else "not calibrated"))
    if not rep.calibrated:
        failing = [cl.cell for cl in rep.per_class if not cl.matches]
        out("failing classes: %s" % "; ".join(",".join(c) for c in failing))
        out("semi-calibrated: %s" % _yes(rep.semi_calibrated))
    if args.sharp and not rep.calibrated:
        out("sharp: skipped (rule not calibrated)")
    elif sharp is not None:
        out("sharp: %s" % _yes(sharp.sharp))
        if sharp.witness is not None:
            out("narrower partition: %s" % sharp.witness)
    if args.strict and not rep.calibrated:
        return 1
    return 0


def _cmd_oracle(args, pf, out) -> int:
    from .minimax import brute_force_value, solve_a_priori

    dp = pf.problem()
    if args.grid < 1:
        raise _InputError("--grid must be at least 1")
    lower, upper = brute_force_value(dp, args.grid)
    value = solve_a_priori(dp, face=False).value
    out("grid: %d" % args.grid)
    out("lower bound: %s" % lower)
    out("upper bound: %s" % upper)
    out("lp value: %s" % value)
    out("within bounds: %s" % _yes(lower <= value <= upper))
    return 0


def _cmd_corpus(args, pf, out) -> int:
    from .corpus import load_corpus, run_case

    # every case runs before the first line, so an internal error prints nothing
    report, total, failed = [], 0, 0
    for case in load_corpus():
        res = run_case(case)
        total += len(res.results)
        bad = [r for r in res.results if not r.ok]
        failed += len(bad)
        report.append("%s: %d %s" % (res.id, len(res.results), "ok" if res.ok else "FAIL"))
        for r in bad:
            report.append(
                "  FAIL %s %s: expected %r, got %r"
                % (r.op, dict(r.args), r.expected, r.actual)
            )
    report.append(
        "corpus: %d expectations, %d failed" % (total, failed)
        if failed
        else "corpus: %d expectations, all passed" % total
    )
    for line in report:
        out(line)
    return 1 if failed else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="credal",
        description="Exact minimax decision making with credal sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *what, with_file=True, strict=False):
        sp = sub.add_parser(name, help=help_text)
        if what:
            sp.add_argument("what", choices=what)
        if with_file:
            sp.add_argument("file", help="problem file or corpus/<id>")
        if strict:
            sp.add_argument(
                "--strict", action="store_true", help="exit 1 on a failing verdict"
            )
        sp.set_defaults(fn=fn)
        return sp

    add("solve", _cmd_solve, "a priori game: value, rule, equilibrium")
    add("posterior", _cmd_posterior, "per-signal games after conditioning")

    sp = add("saddle", _cmd_saddle, "verify a provided equilibrium", strict=True)
    sp.add_argument("--rule", required=True, help="weights w,w,...;w,w,... per signal")
    sp.add_argument("--mixture", required=True, help="bookie weights p,p,...")

    add("hull", _cmd_hull, "marginal-conditional product construction")
    checks = ("rect", "conservative", "dilation")
    add("check", _cmd_check, "structural checks on the credal set", *checks)

    kinds = ("weak", "time", "dynamic")
    sp = add(
        "consistency", _cmd_consistency, "time-consistency analyses", *kinds, strict=True
    )
    sp.add_argument("--budget", type=int, default=0, help="extra random rules")

    sp = add("calibrate", _cmd_calibrate, "calibration of an update rule", strict=True)
    sp.add_argument("--rule", required=True, help="standard | ignore | partition:a,b|c")
    sp.add_argument("--sharp", action="store_true", help="also test sharpness")

    sp = add("oracle", _cmd_oracle, "brute-force bounds for the a priori value")
    sp.add_argument("--grid", type=int, required=True, help="grid denominator")

    add("corpus", _cmd_corpus, "bundled worked examples", "run", with_file=False)

    return parser


def run(argv=None, stdout=None) -> int:
    stdout = sys.stdout if stdout is None else stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2

    def out(line: str):
        print(line, file=stdout)

    try:
        # the problem file is read first, so its error comes before any other
        pf = _load_file(args.file) if "file" in args else None
        return args.fn(args, pf, out)
    except (_InputError, ProblemFileError, CorpusError, ConvexityError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except SizeLimitError as e:
        print("refused: %s" % e, file=sys.stderr)
        return 3
    except LpError as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 2


def main() -> int:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes nowhere, so the
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
