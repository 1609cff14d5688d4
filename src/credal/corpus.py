"""Bundled worked examples with machine-checked expected outputs.

Each case ships as a problem file under ``corpus/`` carrying an ``id``,
a free-text note, and a list of expectations: an operation name, its
arguments, the expected value, and a note recording how the value was
derived.  :func:`run_case` replays every expectation against the live
library, so the corpus doubles as a golden-test suite and as worked
input for the command line.

Expected values are plain JSON: rationals appear as reduced strings,
action weights as flat string lists in label order, partitions in the
``"a,b|c"`` cell syntax.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .calibration import (
    check_calibration,
    equivalence_classes,
    is_sharply_calibrated,
    rule_from_spec,
    sharp_partition,
)
from .consistency import (
    check_time_consistency,
    check_weak_time_consistency,
    falsify_dynamic_consistency,
)
from .core import (
    DecisionRule,
    dilation_report,
    hull,
    is_conservative,
    is_rectangular,
    joint_polytope,
    support_x,
)
from .minimax import (
    solve_a_posteriori,
    solve_a_priori,
    solve_ignoring,
    worst_case_loss,
)
from .polytope import member
from .problemfile import ProblemFile, ProblemFileError, parse_problem_file
from .rationals import rat

__all__ = [
    "CorpusError",
    "Expectation",
    "CorpusCase",
    "ExpectationResult",
    "CaseResult",
    "corpus_ids",
    "load_corpus",
    "load_case",
    "corpus_text",
    "run_expectation",
    "run_case",
    "run_corpus",
    "OPS",
]


class CorpusError(Exception):
    """Corpus file missing or malformed; the message names the case."""


@dataclass(frozen=True)
class Expectation:
    op: str
    args: tuple[tuple[str, object], ...]
    expect: object
    note: str

    def arg(self, key, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class CorpusCase:
    id: str
    note: str
    file: ProblemFile
    expectations: tuple[Expectation, ...]

    def credal(self):
        return self.file.credal()

    def problem(self):
        return self.file.problem()


def _case_files():
    root = resources.files("credal").joinpath("corpus")
    entries = [e for e in root.iterdir() if e.name.endswith(".json")]
    return sorted(entries, key=lambda e: e.name)


def corpus_ids() -> tuple[str, ...]:
    return tuple(e.name[: -len(".json")] for e in _case_files())


def corpus_text(case_id: str) -> str:
    """Raw problem-file text of a bundled case."""
    entry = resources.files("credal").joinpath("corpus", case_id + ".json")
    try:
        return entry.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise CorpusError(
            "no corpus case %r (have: %s)" % (case_id, ", ".join(corpus_ids()))
        ) from None


def _freeze(value):
    # JSON scalars stay as-is; containers become hashable tuples so
    # Expectation can be a frozen dataclass.
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _parse_case(case_id: str, text: str) -> CorpusCase:
    try:
        pf = parse_problem_file(text)
        doc = json.loads(text)
    except (ProblemFileError, json.JSONDecodeError) as e:
        raise CorpusError("case %s: %s" % (case_id, e)) from None
    if doc.get("id") != case_id:
        raise CorpusError(
            "case %s: 'id' field says %r" % (case_id, doc.get("id"))
        )
    raw = doc.get("expectations")
    if not isinstance(raw, list) or not raw:
        raise CorpusError("case %s: no expectations" % case_id)
    expectations = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "op" not in entry or "expect" not in entry:
            raise CorpusError(
                "case %s: expectation %d needs 'op' and 'expect'" % (case_id, i)
            )
        op = entry["op"]
        if op not in OPS:
            raise CorpusError(
                "case %s: expectation %d: unknown op %r" % (case_id, i, op)
            )
        expectations.append(
            Expectation(
                op=op,
                args=_freeze(entry.get("args", {})),
                expect=_freeze(entry["expect"]),
                note=str(entry.get("note", "")),
            )
        )
    return CorpusCase(
        id=case_id,
        note=str(doc.get("note", "")),
        file=pf,
        expectations=tuple(expectations),
    )


def load_case(case_id: str) -> CorpusCase:
    return _parse_case(case_id, corpus_text(case_id))


def load_corpus() -> tuple[CorpusCase, ...]:
    return tuple(load_case(cid) for cid in corpus_ids())


# ----------------------------------------------------------------- operations

def _rstr(v) -> str:
    return str(Fraction(v))


def _flat_strings(values) -> tuple[str, ...]:
    return tuple(_rstr(v) for v in values)


def _mass_arg(exp: Expectation):
    mass = exp.arg("mass")
    if mass is None:
        raise CorpusError("op %r needs a 'mass' argument" % exp.op)
    return tuple(rat(v) for row in mass for v in row)


def _event_arg(exp: Expectation):
    event = exp.arg("event")
    if event is None:
        raise CorpusError("op %r needs an 'event' argument" % exp.op)
    return tuple(str(y) for y in event)


def _x_arg(exp: Expectation) -> str:
    x = exp.arg("x")
    if x is None:
        raise CorpusError("op %r needs an 'x' argument" % exp.op)
    return str(x)


def _rule_arg(exp: Expectation, case: CorpusCase):
    spec = exp.arg("rule")
    if spec is None:
        raise CorpusError("op %r needs a 'rule' argument" % exp.op)
    return rule_from_spec(spec, case.file.x_labels)


def _op_a_priori_value(case, exp):
    return _rstr(solve_a_priori(case.problem(), face=False).value)


def _op_a_priori_rule(case, exp):
    return _flat_strings(solve_a_priori(case.problem(), face=False).rule.flatten())


def _op_a_priori_unique(case, exp):
    return solve_a_priori(case.problem()).unique


def _op_a_priori_face_count(case, exp):
    return len(solve_a_priori(case.problem()).optimal_rule_vertices)


def _posterior_point(case, x):
    point = solve_a_posteriori(case.problem()).point(x)
    if point is None:
        raise CorpusError("signal %r has no posterior game" % x)
    return point


def _op_posterior_value(case, exp):
    return _rstr(_posterior_point(case, _x_arg(exp)).value)


def _op_posterior_action(case, exp):
    return _flat_strings(
        _posterior_point(case, _x_arg(exp)).action_vertices[0].weights
    )


def _op_posterior_face_count(case, exp):
    return len(_posterior_point(case, _x_arg(exp)).action_vertices)


def _op_posterior_rule_worst_case(case, exp):
    # the first posterior-optimal vertex at each signal, uniform elsewhere
    dp = case.problem()
    per_x = tuple(opts[0] for opts in solve_a_posteriori(dp).choices(dp.space))
    value, _ = worst_case_loss(dp.credal, DecisionRule(dp.space, per_x), dp.loss)
    return _rstr(value)


def _op_ignoring_value(case, exp):
    return _rstr(solve_ignoring(case.problem()).value)


def _op_ignoring_optimal(case, exp):
    return solve_ignoring(case.problem()).matches_a_priori


def _op_weak_time(case, exp):
    return check_weak_time_consistency(case.problem()).result


def _op_time(case, exp):
    return check_time_consistency(case.problem()).result


def _op_dynamic(case, exp):
    budget = int(exp.arg("budget", 0))
    return falsify_dynamic_consistency(case.problem(), budget=budget).result


def _op_is_rectangular(case, exp):
    return is_rectangular(case.credal())


def _op_is_conservative(case, exp):
    return is_conservative(case.credal())


def _op_support(case, exp):
    return list(support_x(case.credal()))


def _op_member(case, exp):
    return member(_mass_arg(exp), joint_polytope(case.credal()))


def _op_hull_member(case, exp):
    return member(_mass_arg(exp), joint_polytope(hull(case.credal())))


def _dilation_row(case, exp):
    return dilation_report(case.credal()).row_for(_event_arg(exp))


def _op_dilates(case, exp):
    return _dilation_row(case, exp).dilates


def _op_prior_interval(case, exp):
    lo, hi = _dilation_row(case, exp).prior
    return [_rstr(lo), _rstr(hi)]


def _op_posterior_interval(case, exp):
    x = _x_arg(exp)
    for label, (lo, hi) in _dilation_row(case, exp).posteriors:
        if label == x:
            return [_rstr(lo), _rstr(hi)]
    raise CorpusError("signal %r has no posterior interval" % x)


def _op_classes(case, exp):
    return str(equivalence_classes(_rule_arg(exp, case), case.credal()))


def _op_calibrated(case, exp):
    return check_calibration(_rule_arg(exp, case), case.credal()).calibrated


def _op_semi_calibrated(case, exp):
    return check_calibration(_rule_arg(exp, case), case.credal()).semi_calibrated


def _op_sharp(case, exp):
    return is_sharply_calibrated(_rule_arg(exp, case), case.credal()).sharp


def _op_sharp_partition(case, exp):
    part, _ = sharp_partition(case.credal())
    return str(part)


OPS = {
    "a_priori_value": _op_a_priori_value,
    "a_priori_rule": _op_a_priori_rule,
    "a_priori_unique": _op_a_priori_unique,
    "a_priori_face_count": _op_a_priori_face_count,
    "posterior_value": _op_posterior_value,
    "posterior_action": _op_posterior_action,
    "posterior_face_count": _op_posterior_face_count,
    "posterior_rule_worst_case": _op_posterior_rule_worst_case,
    "ignoring_value": _op_ignoring_value,
    "ignoring_optimal": _op_ignoring_optimal,
    "weak_time": _op_weak_time,
    "time": _op_time,
    "dynamic": _op_dynamic,
    "is_rectangular": _op_is_rectangular,
    "is_conservative": _op_is_conservative,
    "support": _op_support,
    "member": _op_member,
    "hull_member": _op_hull_member,
    "dilates": _op_dilates,
    "prior_interval": _op_prior_interval,
    "posterior_interval": _op_posterior_interval,
    "classes": _op_classes,
    "calibrated": _op_calibrated,
    "semi_calibrated": _op_semi_calibrated,
    "sharp": _op_sharp,
    "sharp_partition": _op_sharp_partition,
}


@dataclass(frozen=True)
class ExpectationResult:
    op: str
    args: tuple[tuple[str, object], ...]
    expected: object
    actual: object
    ok: bool


@dataclass(frozen=True)
class CaseResult:
    id: str
    results: tuple[ExpectationResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def run_expectation(case: CorpusCase, exp: Expectation) -> ExpectationResult:
    actual = _freeze(OPS[exp.op](case, exp))
    return ExpectationResult(
        op=exp.op,
        args=exp.args,
        expected=exp.expect,
        actual=actual,
        ok=actual == exp.expect,
    )


def run_case(case: CorpusCase) -> CaseResult:
    return CaseResult(
        id=case.id,
        results=tuple(run_expectation(case, e) for e in case.expectations),
    )


def run_corpus() -> tuple[CaseResult, ...]:
    return tuple(run_case(c) for c in load_corpus())
