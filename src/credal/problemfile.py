"""Problem files: the on-disk JSON form of a decision problem.

A problem file carries the label sets, the credal set's generator
matrices, the convexity flag, and optionally a loss table.  A number is
a JSON integer or a string ``"p"`` or ``"p/q"``: ``p`` an integer with
an optional ``-``, ``q`` a positive integer without a sign or a leading
zero.  It is reduced on reading (``"2/4"`` is 1/2) and written reduced;
floats are never read or written.  Parsing is strict and errors name
the offending field, since these files double as the golden corpus and
as CLI input.  Each generator's mass is checked once per parse, by
:func:`credal.core.joint` on the file's space, and the file keeps the
joints it checked: :meth:`ProblemFile.credal` builds a new credal set
of them on each call and checks no mass again.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CredalSet,
    DecisionProblem,
    JointDistribution,
    LossFunction,
    ProblemSpace,
    joint,
)
from .rationals import rat

__all__ = [
    "ProblemFileError",
    "ProblemFile",
    "parse_problem_file",
    "load_problem_file",
    "render_problem_file",
    "problem_file_from",
]

# Keys consumed by the corpus loader; the base parser tolerates them.
AUX_KEYS = ("id", "note", "expectations")

_KEYS = ("x_labels", "y_labels", "actions", "convex", "generators", "loss")


class ProblemFileError(Exception):
    """Malformed problem file; the message names the field."""


def _fail(field, why):
    raise ProblemFileError("field %r: %s" % (field, why))


def _labels(doc, field):
    value = doc.get(field)
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(v, str) for v in value)
    ):
        _fail(field, "expected a nonempty array of strings")
    if len(set(value)) != len(value):
        _fail(field, "labels must be distinct")
    return tuple(value)


def _rational(text, field):
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        _fail(field, "expected a rational string, got %r" % (text,))
    # Only "p" or "p/q", read from the integers the pattern captured.
    if not (match := re.fullmatch(r"(-?\d+)(?:/([1-9]\d*))?", str(text))):
        _fail(field, "not a rational: %r" % (text,))
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError:  # past the interpreter's limit on digits in int()
        _fail(field, "a number of %d characters is too long" % len(str(text)))


def _matrix(value, field, nrows, ncols):
    if not isinstance(value, list) or len(value) != nrows:
        _fail(field, "expected %d rows" % nrows)
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != ncols:
            _fail(field, "row %d: expected %d entries" % (i, ncols))
        out.append(tuple(_rational(v, field) for v in row))
    return tuple(out)


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem file: the generators are the joints checked on the
    file's space, and the loss is in exact rationals."""

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    actions: tuple[str, ...]
    convex: bool
    generators: tuple[JointDistribution, ...]
    loss: tuple[tuple[Fraction, ...], ...] | None

    def space(self) -> ProblemSpace:
        """The space the generators were checked on."""
        return self.generators[0].space

    def credal(self) -> CredalSet:
        """A new credal set of the generators on every call, so no
        conditioning or game is shared between two analyses."""
        return CredalSet(self.space(), self.generators, self.convex)

    def problem(self) -> DecisionProblem:
        if self.loss is None:
            raise ProblemFileError("field 'loss': required for this command")
        credal = self.credal()
        return DecisionProblem(credal, LossFunction(space=credal.space, table=self.loss))


def _json_int(text):
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on digits in int()
        raise ValueError("a number of %d digits is too long" % len(text.lstrip("-"))) from None


def parse_problem_file(text: str) -> ProblemFile:
    return _parse(text)[1]


def _parse(text: str) -> tuple[dict, ProblemFile]:
    """The JSON document ``text`` holds, decoded once, and its problem file."""
    try:
        doc = json.loads(text, parse_int=_json_int)
    except (ValueError, RecursionError) as e:  # a JSONDecodeError, too deep, too many digits
        raise ProblemFileError("not valid JSON: %s" % e) from None
    if not isinstance(doc, dict):
        raise ProblemFileError("top level must be an object")
    for key in doc:
        if key not in _KEYS and key not in AUX_KEYS:
            _fail(key, "unknown field")

    xs = _labels(doc, "x_labels")
    ys = _labels(doc, "y_labels")
    acts = _labels(doc, "actions")
    if len(acts) < 2:
        _fail("actions", "a decision problem needs at least two actions")
    space = ProblemSpace(xs, ys, acts)
    convex = doc.get("convex")
    if not isinstance(convex, bool):
        _fail("convex", "expected true or false")

    gens_doc = doc.get("generators")
    if not isinstance(gens_doc, list) or not gens_doc:
        _fail("generators", "expected a nonempty array of matrices")
    generators = []
    for k, g in enumerate(gens_doc):
        field = "generators[%d]" % k
        mat = _matrix(g, field, len(xs), len(ys))
        try:
            generators.append(joint(space, mat))
        except ValueError as e:  # core's mass check: nonnegative, summing to 1
            _fail(field, e)

    loss_doc = doc.get("loss")
    loss = None
    if loss_doc is not None:
        loss = _matrix(loss_doc, "loss", len(ys), len(acts))

    return doc, ProblemFile(
        x_labels=xs,
        y_labels=ys,
        actions=acts,
        convex=convex,
        generators=tuple(generators),
        loss=loss,
    )


def load_problem_file(path) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        why = e.strerror if isinstance(e, OSError) else e
        raise ProblemFileError("cannot read %s: %s" % (path, why)) from None
    return parse_problem_file(text)


def render_problem_file(pf: ProblemFile) -> str:
    """Canonical JSON text; reparsing yields an identical value."""
    doc = {
        "x_labels": list(pf.x_labels),
        "y_labels": list(pf.y_labels),
        "actions": list(pf.actions),
        "convex": pf.convex,
        "generators": [
            [[str(v) for v in row] for row in g.mass] for g in pf.generators
        ],
    }
    if pf.loss is not None:
        doc["loss"] = [[str(rat(v)) for v in row] for row in pf.loss]
    return json.dumps(doc, indent=2) + "\n"


def problem_file_from(credal: CredalSet, loss: LossFunction | None = None) -> ProblemFile:
    if loss is not None and loss.space != credal.space:
        raise ValueError("credal set and loss live on different spaces")
    space = credal.space
    return ProblemFile(
        x_labels=space.x_labels,
        y_labels=space.y_labels,
        actions=space.actions,
        convex=credal.convex,
        generators=credal.generators,
        loss=None if loss is None else loss.table,
    )
