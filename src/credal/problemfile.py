"""Problem files: the on-disk JSON form of a decision problem.

A problem file carries the label sets, the credal set's generator
matrices, the convexity flag, and optionally a loss table.  A number is
a JSON integer or a string ``"p"`` or ``"p/q"``: ``p`` an integer with
an optional ``-``, ``q`` a positive integer without a sign or a leading
zero.  It is reduced on reading (``"2/4"`` is 1/2) and written reduced;
floats are never read or written.  Parsing is strict and errors name
the offending field, since these files double as the golden corpus and
as CLI input.  Numbers are read from the file's text straight into
integer pairs (:func:`_ratio`): each generator's entries are put over
the lcm of their denominators, reduced, and become its joint's pair,
whose constructor, on the file's space, is the one mass check.  The
file keeps the joints it checked: :meth:`ProblemFile.credal` builds a
new credal set of them on each call and checks no mass again.
``Fraction``s are built only for the loss table and for the CLI's
``--rule`` and ``--mixture`` weights (:func:`_rational`), whose public
types are ``Fraction``.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CredalSet,
    DecisionProblem,
    JointDistribution,
    LossFunction,
    ProblemSpace,
)
from .rationals import lowest, pair_text, rat

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
    # the printed partitions join labels with ',' and '|' and strip the pieces
    for v in value:
        if not v or v != v.strip() or "," in v or "|" in v:
            _fail(field, "label %r: labels must be nonempty, unpadded, without ',' or '|'" % (v,))
    return tuple(value)


# "p" or "p/q": the integers are read from the groups the pattern captures
_RATIO = re.compile(r"(-?\d+)(?:/([1-9]\d*))?")


def _ratio(text, field) -> tuple[int, int]:
    """The number ``text`` as written, ``(p, q)`` with ``q > 0``, not reduced."""
    if isinstance(text, str):
        if not (match := _RATIO.fullmatch(text)):
            _fail(field, "not a rational: %r" % (text,))
        p, q = match.groups()
        try:
            return int(p), int(q) if q else 1
        except ValueError:  # past the interpreter's limit on digits in int()
            _fail(field, "a number of %d characters is too long" % len(text))
    if isinstance(text, int) and not isinstance(text, bool):  # a JSON integer
        return text, 1
    _fail(field, "expected a rational string, got %r" % (text,))


def _rational(text, field) -> Fraction:
    return Fraction(*_ratio(text, field))


def _matrix(value, field, nrows, ncols) -> list[list[tuple[int, int]]]:
    """The ``(p, q)`` of each entry of the ``nrows`` by ``ncols`` matrix ``value``."""
    if not isinstance(value, list) or len(value) != nrows:
        _fail(field, "expected %d rows" % nrows)
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != ncols:
            _fail(field, "row %d: expected %d entries" % (i, ncols))
        out.append([_ratio(v, field) for v in row])
    return out


def _joint(space, value, field) -> JointDistribution:
    """The joint whose x-major mass rows ``value`` holds, checked by its constructor."""
    entries = [e for row in _matrix(value, field, space.nx, space.ny) for e in row]
    den = math.lcm(*[q for _, q in entries])
    try:
        return JointDistribution(space, lowest([p * (den // q) for p, q in entries], den))
    except ValueError as e:  # core's mass check: nonnegative, summing to 1
        _fail(field, e)


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem file: the generators are the joints checked on the
    file's space, which holds its labels, and the loss is in exact rationals."""

    convex: bool
    generators: tuple[JointDistribution, ...]
    loss: tuple[tuple[Fraction, ...], ...] | None

    def space(self) -> ProblemSpace:
        """The space the generators were checked on."""
        return self.generators[0].space

    @property
    def x_labels(self) -> tuple[str, ...]:
        """The signal labels of :meth:`space`, for callers that read them
        off the file; the file stores no labels of its own."""
        return self.space().x_labels

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


# one decoder for every file: integers are read by _json_int
_DECODER = json.JSONDecoder(parse_int=_json_int)


def parse_problem_file(text: str) -> ProblemFile:
    return _parse(text)[1]


def _parse(text: str) -> tuple[dict, ProblemFile]:
    """The JSON document ``text`` holds, decoded once, and its problem file."""
    try:
        if text.startswith("\ufeff"):  # as json.loads reports it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
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
    generators = tuple(_joint(space, g, "generators[%d]" % k) for k, g in enumerate(gens_doc))

    loss_doc = doc.get("loss")
    loss = None
    if loss_doc is not None:
        rows = _matrix(loss_doc, "loss", len(ys), len(acts))
        loss = tuple(tuple([Fraction(p, q) for p, q in row]) for row in rows)

    return doc, ProblemFile(convex=convex, generators=generators, loss=loss)


def load_problem_file(path) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        why = e.strerror if isinstance(e, OSError) else e
        raise ProblemFileError("cannot read %s: %s" % (path, why)) from None
    return parse_problem_file(text)


# The bundled cases, kept here so the CLI reads a ``corpus/<id>`` path
# without importing :mod:`credal.corpus` and the layers its ops call.
_CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


class CorpusError(Exception):
    """Corpus file missing or malformed; the message names the case."""


def corpus_ids() -> tuple[str, ...]:
    return tuple(n[: -len(".json")] for n in sorted(os.listdir(_CORPUS)) if n.endswith(".json"))


def corpus_text(case_id: str) -> str:
    """Raw problem-file text of a bundled case."""
    try:
        with open(os.path.join(_CORPUS, case_id + ".json"), encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        raise CorpusError(
            "no corpus case %r (have: %s)" % (case_id, ", ".join(corpus_ids()))
        ) from None


def render_problem_file(pf: ProblemFile) -> str:
    """Canonical JSON text; reparsing yields an identical value."""
    space = pf.space()
    doc = {
        "x_labels": list(space.x_labels),
        "y_labels": list(space.y_labels),
        "actions": list(space.actions),
        "convex": pf.convex,
        "generators": [_rows(pair_text(*g.pair), space.ny) for g in pf.generators],
    }
    if pf.loss is not None:
        doc["loss"] = [[str(rat(v)) for v in row] for row in pf.loss]
    return json.dumps(doc, indent=2) + "\n"


def _rows(values, n):
    """The flat x-major ``values`` as rows of ``n``."""
    return [values[i : i + n] for i in range(0, len(values), n)]


def problem_file_from(credal: CredalSet, loss: LossFunction | None = None) -> ProblemFile:
    if loss is not None and loss.space != credal.space:
        raise ValueError("credal set and loss live on different spaces")
    return ProblemFile(
        convex=credal.convex,
        generators=credal.generators,
        loss=None if loss is None else loss.table,
    )
