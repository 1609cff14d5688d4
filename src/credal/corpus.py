"""Bundled worked examples with machine-checked expected outputs.

Each case ships as a problem file under ``corpus/`` carrying an ``id``,
a free-text note, and a list of expectations: an operation name, its
arguments, the expected value, and a note recording how the value was
derived.  :func:`run_case` replays every expectation against the live
library, so the corpus doubles as a golden-test suite and as worked
input for the command line.  Each case builds one credal set and one
decision problem over it, so its expectations share the set's
conditionings and the problem's solved games.

Expected values are plain JSON: rationals appear as reduced strings,
action weights as flat string lists in label order, partitions in the
``"a,b|c"`` cell syntax.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from .problemfile import (
    CorpusError,
    ProblemFile,
    ProblemFileError,
    _parse,
    _rational,
    corpus_ids,
    corpus_text,
)

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
        """The case's one credal set, built on first use."""
        return self._credal

    def problem(self):
        """The case's one decision problem, over :meth:`credal`: every
        expectation shares its conditionings and solved games."""
        return self._problem

    @cached_property
    def _credal(self):
        return self.file.credal() if self.file.loss is None else self._problem.credal

    @cached_property
    def _problem(self):
        return self.file.problem()


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
        doc, pf = _parse(text)
    except ProblemFileError as e:
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

def _flat_strings(values) -> tuple[str, ...]:
    return tuple(map(str, values))


def _arg(exp: Expectation, key: str):
    value = exp.arg(key)
    if value is None:
        raise CorpusError("op %r needs a %r argument" % (exp.op, key))
    return value


def _bad_arg(exp: Expectation, key: str, want: str) -> CorpusError:
    return CorpusError("op %r: argument %r must be %s, got %r" % (exp.op, key, want, exp.arg(key)))


def _mass_arg(exp: Expectation, case: CorpusCase):
    mass, space = _arg(exp, "mass"), case.file.space()
    shape = [len(r) for r in mass if isinstance(r, tuple)] if isinstance(mass, tuple) else []
    if shape != [space.ny] * space.nx:
        raise _bad_arg(exp, "mass", "%d rows of %d numbers" % (space.nx, space.ny))
    return tuple(_rational(v, "mass") for row in mass for v in row)


def _rule_arg(exp: Expectation, case: CorpusCase):
    try:  # rule_from_spec reads a non-string through str(), which gives no spec
        return rule_from_spec(_arg(exp, "rule"), case.file.space().x_labels)
    except ValueError:
        raise _bad_arg(exp, "rule", "standard, ignore or partition:...") from None


def _signal_arg(exp: Expectation) -> str:
    x = _arg(exp, "x")
    if not isinstance(x, str):  # str() would read 0 as the label "0"
        raise _bad_arg(exp, "x", "a signal label")
    return x


def _op_a_priori_value(case, exp):
    return str(solve_a_priori(case.problem(), face=False).value)


def _op_a_priori_rule(case, exp):
    return _flat_strings(solve_a_priori(case.problem(), face=False).rule.flatten())


def _op_a_priori_unique(case, exp):
    return solve_a_priori(case.problem()).unique


def _op_a_priori_face_count(case, exp):
    return len(solve_a_priori(case.problem()).optimal_rule_vertices)


def _posterior_point(case, exp):
    x = _signal_arg(exp)
    point = solve_a_posteriori(case.problem()).point(x)
    if point is None:
        raise CorpusError("signal %r has no posterior game" % x)
    return point


def _op_posterior_value(case, exp):
    return str(_posterior_point(case, exp).value)


def _op_posterior_action(case, exp):
    return _flat_strings(_posterior_point(case, exp).action_vertices[0].weights)


def _op_posterior_face_count(case, exp):
    return len(_posterior_point(case, exp).action_vertices)


def _op_posterior_rule_worst_case(case, exp):
    # the first posterior-optimal vertex at each signal, uniform elsewhere
    dp = case.problem()
    per_x = tuple(opts[0] for opts in solve_a_posteriori(dp).choices(dp.space))
    value, _ = worst_case_loss(dp.credal, DecisionRule(dp.space, per_x), dp.loss)
    return str(value)


def _op_ignoring_value(case, exp):
    return str(solve_ignoring(case.problem()).value)


def _op_ignoring_optimal(case, exp):
    return solve_ignoring(case.problem()).matches_a_priori


def _op_weak_time(case, exp):
    return check_weak_time_consistency(case.problem()).result


def _op_time(case, exp):
    return check_time_consistency(case.problem()).result


def _op_dynamic(case, exp):
    budget = exp.arg("budget", 0)
    if type(budget) is not int or budget < 0:  # a JSON true is no integer
        raise _bad_arg(exp, "budget", "a nonnegative integer")
    return falsify_dynamic_consistency(case.problem(), budget=budget).result


def _op_is_rectangular(case, exp):
    return is_rectangular(case.credal())


def _op_is_conservative(case, exp):
    return is_conservative(case.credal())


def _op_support(case, exp):
    return list(support_x(case.credal()))


def _op_member(case, exp):
    return member(_mass_arg(exp, case), joint_polytope(case.credal()))


def _op_hull_member(case, exp):
    return member(_mass_arg(exp, case), joint_polytope(hull(case.credal())))


def _dilation_row(case, exp):
    event = _arg(exp, "event")
    if isinstance(event, tuple) and all(isinstance(y, str) for y in event):
        try:
            return dilation_report(case.credal()).row_for(event)
        except KeyError:
            pass
    raise _bad_arg(exp, "event", "a list of outcome labels naming a proper event")


def _op_dilates(case, exp):
    return _dilation_row(case, exp).dilates


def _op_prior_interval(case, exp):
    lo, hi = _dilation_row(case, exp).prior
    return [str(lo), str(hi)]


def _op_posterior_interval(case, exp):
    x = _signal_arg(exp)
    for label, (lo, hi) in _dilation_row(case, exp).posteriors:
        if label == x:
            return [str(lo), str(hi)]
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
