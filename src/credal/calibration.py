"""Calibration of belief update rules against a credal set.

An update rule maps each signal value x to a set of posterior opinions
about the outcome Y (or leaves it undefined).  Signals on which the
rule produces the same opinion set are indistinguishable to an agent
following it; grouping them gives the rule's equivalence classes.  A
rule is *calibrated* when, on every class C with positive probability,
its opinion set equals the Y-marginal of the credal set conditioned on
C.  It is *semi-calibrated* when the conditioned marginals are at
least contained in the opinion sets.

Calibrated rules are partially ordered by pointwise inclusion of their
opinion sets over the support of X; a calibrated rule is *sharp* when
no calibrated rule is strictly narrower.  For convex credal sets the
sharp rules can be found among partition conditionings, so sharpness
questions here reduce to a search over partitions of the signal
labels.

Every question reads the credal set's one table of signal events
(:class:`credal.core._Events`), kept on the set across calls: each
event, as a bitmask over the signal indices, is conditioned once, in
outcome space only, and its set and each opinion set of a rule map to an
id, equal for two sets exactly when they are, with inclusion asked once
per pair of ids.  Ignoring is conditioning on every signal, and a table
rule's opinion set is the Y-marginal kept on that table entry's own set.
Below the public functions a partition is its cells' masks
(:func:`credal.partitions.cell_masks`), and one join of masks by id
groups them all: a rule's classes, a refinement round, and the classes
of a partition, which is calibrated iff each has its own id on the
union.  The sharpness searches read the calibrated partitions in
enumeration order, build no calibration report, and build a
:class:`Partition` only for what they return; :func:`sharp_partition`
orders them once, as bitsets, joining them at each live signal by the
id of their cell there, so it never compares two partitions directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConvexityError, CredalSet, Partition, marginal_y, posterior_y, support_x
from .linprog import InternalCheckError, refuse_above
from .partitions import bell_number, cell_masks, partition_of
from .polytope import VPolytope

__all__ = [
    "SHARP_X_LIMIT",
    "NARROWER",
    "STRICTLY_NARROWER",
    "NOT_NARROWER",
    "ConvexityError",
    "UpdateRule",
    "standard_conditioning",
    "ignore_rule",
    "partition_conditioning",
    "table_rule",
    "equivalence_classes",
    "ClassReport",
    "CalibrationReport",
    "check_calibration",
    "narrower",
    "refine_partition",
    "refinement_fixpoint",
    "SharpnessCertificate",
    "sharp_partition",
    "SharpnessVerdict",
    "is_sharply_calibrated",
    "rule_from_spec",
]

# Sharpness searches enumerate all partitions of the x labels; the
# Bell numbers explode shortly after this.
SHARP_X_LIMIT = 8

NARROWER = "narrower"
STRICTLY_NARROWER = "strictly-narrower"
NOT_NARROWER = "not-narrower"

_STANDARD = "standard"
_IGNORE = "ignore"
_PARTITION = "partition"
_TABLE = "table"


@dataclass(frozen=True)
class UpdateRule:
    """Belief update rule: signal value -> set of opinions about Y.

    Four kinds.  ``standard`` conditions on the observed signal,
    ``ignore`` keeps the prior, ``partition`` conditions on the cell of
    a fixed partition, and ``table`` looks the opinion set up in an
    explicit mapping.  Use the module-level constructors instead of
    instantiating this class directly.
    """

    kind: str
    partition: Partition | None = None
    table: tuple[tuple[str, CredalSet], ...] = ()

    def __post_init__(self):
        if self.kind not in (_STANDARD, _IGNORE, _PARTITION, _TABLE):
            raise ValueError("unknown update rule kind %r" % (self.kind,))
        if (self.kind == _PARTITION) != (self.partition is not None):
            raise ValueError("exactly the partition kind takes a partition")
        if (self.kind == _TABLE) != bool(self.table):
            raise ValueError("exactly the table kind takes a table")

    def image_y(self, p: CredalSet, x) -> VPolytope | None:
        """Y-marginal of the opinion set at ``x``, None if undefined."""
        x = str(x)
        if x not in p.space.x_labels:
            raise ValueError("unknown signal label %r" % (x,))
        return _image(self, p, x)

    def label(self) -> str:
        if self.kind == _PARTITION:
            return "partition:%s" % self.partition
        return self.kind


def rule_from_spec(spec: str, labels) -> UpdateRule:
    """Update rule from a short text spec.

    Accepts ``"standard"``, ``"ignore"``, and ``"partition:a,b|c"``
    with cells separated by ``|`` and members by ``,``.
    """
    spec = str(spec).strip()
    if spec == _STANDARD:
        return standard_conditioning()
    if spec == _IGNORE:
        return ignore_rule()
    if spec.startswith("partition:"):
        part = Partition.from_string(tuple(labels), spec[len("partition:"):])
        return partition_conditioning(part)
    raise ValueError(
        "unknown rule spec %r (want standard, ignore, or partition:...)" % spec
    )


def standard_conditioning() -> UpdateRule:
    return UpdateRule(kind=_STANDARD)


def ignore_rule() -> UpdateRule:
    return UpdateRule(kind=_IGNORE)


def partition_conditioning(part: Partition) -> UpdateRule:
    return UpdateRule(kind=_PARTITION, partition=part)


def table_rule(mapping) -> UpdateRule:
    """Rule from an explicit mapping of x labels to credal sets."""
    table = tuple((str(x), image) for x, image in dict(mapping).items())
    if not table:
        raise ValueError("a table rule needs at least one entry")
    return UpdateRule(kind=_TABLE, table=table)


def _image(rule: UpdateRule, p: CredalSet, x: str) -> VPolytope | None:
    """The rule's opinion set at the signal label ``x``, pruned; ignoring
    conditions on every signal."""
    if rule.kind == _IGNORE:
        return marginal_y(p)
    if rule.kind == _STANDARD:
        return posterior_y(p, (x,))
    if rule.kind == _PARTITION:
        if tuple(rule.partition.labels) != p.space.x_labels:
            raise ValueError("rule partition is over different labels")
        return posterior_y(p, rule.partition.cell_of(x))
    image = dict(rule.table).get(x)
    if image is not None and image.space != p.space:
        raise ValueError("table image on a different space")
    return None if image is None else marginal_y(image)


def _ids(rule: UpdateRule, p: CredalSet):
    """The ids of the rule's opinion sets at the live signals, in order."""
    return (p._events.intern(_image(rule, p, x)) for x in support_x(p))


def _join(pairs) -> dict:
    """The masks of the ``(id, mask)`` pairs joined by id, ids in
    first-occurrence order."""
    joined: dict = {}
    for i, mask in pairs:
        joined[i] = joined.get(i, 0) | mask
    return joined


def _classes(rule: UpdateRule, p: CredalSet) -> dict:
    """The rule's classes: each opinion-set id (None where undefined) to
    the mask of its signals, in the order of their least signal."""
    table = p._events
    return _join((table.intern(_image(rule, p, x)), 1 << k) for k, x in enumerate(p.space.x_labels))


def equivalence_classes(rule: UpdateRule, p: CredalSet) -> Partition:
    """Group signal values by equality of the rule's opinion sets.

    Signals where the rule is undefined are collected into one extra
    cell (calibration checks skip it).  Cells are in first-occurrence
    order of the x labels, matching the canonical partition layout.
    """
    return partition_of(p.space.x_labels, _classes(rule, p).values())


@dataclass(frozen=True)
class ClassReport:
    """Calibration comparison on one positive-probability class."""

    cell: tuple[str, ...]
    posterior: VPolytope  # Y-marginal of p conditioned on the cell
    image: VPolytope  # the rule's opinion set on the cell
    forward: bool  # posterior  subset of  image
    backward: bool  # image  subset of  posterior

    @property
    def matches(self) -> bool:
        return self.forward and self.backward


@dataclass(frozen=True)
class CalibrationReport:
    rule: UpdateRule
    classes: Partition
    per_class: tuple[ClassReport, ...]
    excluded: tuple[tuple[str, ...], ...]
    calibrated: bool
    semi_calibrated: bool


def check_calibration(rule: UpdateRule, p: CredalSet) -> CalibrationReport:
    """Compare the rule's opinion sets with conditioning on its classes.

    Classes without a defined opinion set or without positive
    probability are excluded and reported as such.  ``calibrated``
    requires equality on every remaining class, ``semi_calibrated``
    only the forward inclusion (conditioned marginal inside the
    opinion set).
    """
    return _report(rule, p)


def _report(rule: UpdateRule, p: CredalSet) -> CalibrationReport:
    """:func:`check_calibration`, read off the set's table."""
    table = p._events
    classes = _classes(rule, p)
    partition = partition_of(p.space.x_labels, classes.values())
    reports, excluded = [], []
    for (j, mask), cell in zip(classes.items(), partition.cells):
        posterior = None if j is None else table.posterior(p, mask)
        if posterior is None:
            excluded.append(cell)
            continue
        i = table.id(p, mask)
        reports.append(
            ClassReport(
                cell=cell,
                posterior=posterior,
                image=_image(rule, p, cell[0]),
                forward=table.sub(i, j),
                backward=table.sub(j, i),
            )
        )
    return CalibrationReport(
        rule=rule,
        classes=partition,
        per_class=tuple(reports),
        excluded=tuple(excluded),
        calibrated=all(r.matches for r in reports),
        semi_calibrated=all(r.forward for r in reports),
    )


def narrower(r1: UpdateRule, r2: UpdateRule, p: CredalSet) -> str:
    """Pointwise inclusion of opinion sets over the support of X.

    ``"narrower"`` when r1's opinion set is contained in r2's at every
    positive-probability signal, ``"strictly-narrower"`` when at least
    one containment is proper, ``"not-narrower"`` otherwise.  Both
    rules must be defined on the whole support.
    """
    return _narrower(p, _ids(r1, p), _ids(r2, p))


def _narrower(p: CredalSet, a, b) -> str:
    """Pointwise inclusion of the ids ``a`` in the ids ``b`` at the live
    signals, read one signal at a time up to the first failure."""
    table, strict = p._events, False
    for x, i, j in zip(support_x(p), a, b):
        if i is None or j is None:
            raise ValueError("rule undefined at support signal %r" % (x,))
        if not table.sub(i, j):
            return NOT_NARROWER
        strict = strict or i != j
    return STRICTLY_NARROWER if strict else NARROWER


def _require_convex(p: CredalSet, what: str):
    if not p.convex:
        raise ConvexityError(
            "%s needs a convex credal set; take the convex hull first "
            "if that reading is intended" % what
        )


def _require_sharpness_search(p: CredalSet):
    """The sharpness search scans every partition of the signals."""
    _require_convex(p, "sharpness search")
    nx = p.space.nx
    partitions = "%d partitions" % bell_number(nx)
    refuse_above(SHARP_X_LIMIT, nx, "sharpness search", "signals", partitions)


def _calibrated(p: CredalSet, cells) -> bool:
    """Is conditioning on the partition with these cells (masks) calibrated?
    Its classes join its cells of equal id, and it is calibrated iff each
    live class has that same id on the whole class."""
    table = p._events
    classes = _join((table.id(p, mask), mask) for mask in cells)
    return all(i is None or table.id(p, mask) == i for i, mask in classes.items())


def _calibrated_partitions(p: CredalSet):
    """The calibrated partitions (cell masks), in enumeration order."""
    return (cells for cells in cell_masks(p.space.nx) if _calibrated(p, cells))


def _at(p: CredalSet, cells, x: int) -> int:
    """The id of the cell (mask) holding the live signal ``x``."""
    return p._events.id(p, next(mask for mask in cells if mask >> x & 1))


def refine_partition(c: Partition, p: CredalSet) -> Partition:
    """One refinement step: classes of conditioning on ``c``.

    Cells of ``c`` whose conditioned Y-marginals coincide are merged
    (and fully dead cells are grouped separately), so iterating this
    map coarsens until the classes reproduce themselves.  Only
    supported for convex credal sets, where partition conditioning is
    guaranteed semi-calibrated and the fixpoint calibrated.
    """
    _require_convex(p, "partition refinement")
    return equivalence_classes(partition_conditioning(c), p)


def refinement_fixpoint(p: CredalSet) -> Partition:
    """Iterate :func:`refine_partition` from the all-singletons partition
    until stable.  Each step merges cells, so this terminates after at
    most ``nx`` rounds.
    """
    _require_convex(p, "refinement iteration")
    return partition_of(p.space.x_labels, _fixpoint(p))


def _fixpoint(p: CredalSet) -> tuple[int, ...]:
    """:func:`refinement_fixpoint` as cell masks."""
    table = p._events
    cells = tuple(1 << i for i in range(p.space.nx))
    for _ in range(p.space.nx + 1):
        refined = tuple(_join((table.id(p, mask), mask) for mask in cells).values())
        if refined == cells:
            return cells
        cells = refined
    raise InternalCheckError("refinement failed to stabilise")


@dataclass(frozen=True)
class SharpnessCertificate:
    """Outcome of the exhaustive sharpness search.

    ``minimal`` lists every calibrated partition with no strictly
    narrower calibrated partition, in enumeration order; the returned
    sharp partition is one of them.
    """

    minimal: tuple[Partition, ...]
    calibrated_count: int
    examined: int


def sharp_partition(p: CredalSet) -> tuple[Partition, SharpnessCertificate]:
    """A sharply calibrated partition conditioning for ``p``.

    Starts from the refinement fixpoint of the all-singletons
    partition (always calibrated for convex ``p``) and walks to
    strictly narrower calibrated partitions until none is left.  The
    certificate lists all minimal calibrated partitions found by the
    exhaustive scan; the fixpoint itself need not be one of them, since
    refinement only coarsens and the calibrated order is not a chain.

    The descent moves to the first strictly narrower partition in
    enumeration order, and the minimal ones are those with none.  The
    calibrated partitions are ordered once, as bitsets: at each live
    signal they are grouped by the id of their cell there, and
    inclusion is asked once per pair of ids.
    """
    _require_sharpness_search(p)
    table = p._events
    calibrated = list(_calibrated_partitions(p))
    everyone = (1 << len(calibrated)) - 1
    below = [everyone] * len(calibrated)  # bit k: calibrated[k]'s sets lie inside
    same = [everyone] * len(calibrated)  # bit k: calibrated[k]'s sets are equal
    for x in p.live:
        ids = [_at(p, c, x) for c in calibrated]
        groups = _join((i, 1 << k) for k, i in enumerate(ids))
        # inclusion is asked only of ids that some partition may still lie below
        reach = _join(zip(ids, below))
        inside = {
            j: sum(m for i, m in groups.items() if m & reach[j] and table.sub(i, j)) for j in groups
        }
        for k, j in enumerate(ids):
            below[k] &= inside[j]
            same[k] &= groups[j]
    strict = [b & ~s for b, s in zip(below, same)]
    start = _fixpoint(p)
    if start not in calibrated:
        raise InternalCheckError("refinement fixpoint should be calibrated")
    current = calibrated.index(start)
    while strict[current]:
        current = (strict[current] & -strict[current]).bit_length() - 1  # the lowest bit
    labels = p.space.x_labels
    return partition_of(labels, calibrated[current]), SharpnessCertificate(
        minimal=tuple(partition_of(labels, c) for c, s in zip(calibrated, strict) if not s),
        calibrated_count=len(calibrated),
        examined=bell_number(p.space.nx),
    )


@dataclass(frozen=True)
class SharpnessVerdict:
    sharp: bool
    witness: Partition | None  # strictly narrower calibrated partition


def is_sharply_calibrated(rule: UpdateRule, p: CredalSet) -> SharpnessVerdict:
    """Is the calibrated ``rule`` sharp for ``p``?

    Raises ValueError when the rule is not calibrated in the first
    place.  Searching partition conditionings is enough: a calibrated
    rule's opinion sets coincide with conditioning on its own class
    partition, so any strictly narrower calibrated rule yields a
    strictly narrower calibrated partition.  The witness is the first
    in enumeration order.  The rule's opinion sets are ids in the set's
    table, with the cells', so admissibility against the rule is the walk
    of :func:`narrower` over each calibrated partition's cells, and
    whether the rule is calibrated is read off the same table.
    """
    _require_sharpness_search(p)
    if not _report(rule, p).calibrated:
        raise ValueError("sharpness is only defined for calibrated rules")
    images = list(_ids(rule, p))
    if None in images:
        raise ValueError("rule undefined at a support signal")
    for c in _calibrated_partitions(p):
        if _narrower(p, (_at(p, c, x) for x in p.live), images) == STRICTLY_NARROWER:
            return SharpnessVerdict(sharp=False, witness=partition_of(p.space.x_labels, c))
    return SharpnessVerdict(sharp=True, witness=None)
