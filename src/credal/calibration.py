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

Every question about one credal set goes through one memo of it: the
conditioned Y-set of each signal event, computed once by
:func:`credal.core.posterior_y` in outcome space only (ignoring is
conditioning on every signal), the live signals, and the inclusion
between every pair of sets handed out.  :func:`check_calibration`,
:func:`equivalence_classes`, :func:`narrower` and
:func:`refinement_fixpoint` each open one; :func:`sharp_partition` and
:func:`is_sharply_calibrated` share one across their whole scan.
:func:`sharp_partition` orders the calibrated partitions once, as
bitsets: at each live signal it groups them by their cell there and
asks inclusion once per pair of cells, so it never compares two
partitions directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    CredalSet,
    Partition,
    marginal_y,
    posterior_y,
    support_x,
)
from .linprog import SizeLimitError
from .partitions import all_partitions, bell_number
from .polytope import VPolytope, subset

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


class ConvexityError(Exception):
    """Operation is only supported for convex credal sets."""


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
        return _Memo(p).image(self, x)

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


class _Memo:
    """What the calibration questions about one credal set share.

    It holds the conditioned Y-set of every signal event asked for (one
    :func:`~credal.core.posterior_y` call per cell), the live signals,
    each table rule's opinion sets, and the inclusion between every pair
    of sets it has handed out.  Inclusions are keyed by identity, which
    is sound because the memo keeps every set it hands out alive.

    Every set it hands out is pruned, so a convex set is its vertex set
    and a finite set its points: two of them are equal exactly when
    their :meth:`key` values are (a single point reads the same either
    way, and a convex set with two vertices or more is never finite).
    """

    def __init__(self, p: CredalSet):
        self.p = p
        self._cells: dict[tuple[str, ...], VPolytope | None] = {}
        self._tables: dict[tuple[UpdateRule, str], VPolytope | None] = {}
        self._sub: dict[tuple[int, int], bool] = {}
        self._keys: dict[int, tuple] = {}

    @cached_property
    def live(self) -> tuple[str, ...]:
        return support_x(self.p)

    def cell(self, cell: tuple[str, ...]) -> VPolytope | None:
        """Y-marginal of ``p`` conditioned on ``cell`` (labels in label order)."""
        if cell not in self._cells:
            self._cells[cell] = posterior_y(self.p, cell)
        return self._cells[cell]

    def image(self, rule: UpdateRule, x: str) -> VPolytope | None:
        """The rule's opinion set at the signal label ``x``; ignoring
        conditions on every signal."""
        labels = self.p.space.x_labels
        if rule.kind == _IGNORE:
            return self.cell(labels)
        if rule.kind == _STANDARD:
            return self.cell((x,))
        if rule.kind == _PARTITION:
            if tuple(rule.partition.labels) != labels:
                raise ValueError("rule partition is over different labels")
            return self.cell(rule.partition.cell_of(x))
        key = (rule, x)
        if key not in self._tables:
            image = dict(rule.table).get(x)
            if image is not None and image.space != self.p.space:
                raise ValueError("table image on a different space")
            self._tables[key] = None if image is None else marginal_y(image)
        return self._tables[key]

    def key(self, a: VPolytope) -> tuple:
        """Equal for two sets from this memo exactly when the sets are equal."""
        key = self._keys.get(id(a))
        if key is None:
            gens = a.generators
            key = self._keys[id(a)] = (a.convex and len(gens) > 1, frozenset(gens))
        return key

    def sub(self, a: VPolytope, b: VPolytope) -> bool:
        """Is ``a`` contained in ``b``?  Both must come from this memo."""
        if self.key(a) == self.key(b):
            return True
        key = (id(a), id(b))
        if key not in self._sub:
            self._sub[key] = subset(a, b)
        return self._sub[key]


def _classes(rule: UpdateRule, memo: _Memo) -> tuple[Partition, dict]:
    """The rule's classes, and each class's opinion set (None when undefined)."""
    groups: dict[tuple, tuple[VPolytope, list[str]]] = {}
    missing: list[str] = []
    for x in memo.p.space.x_labels:
        img = memo.image(rule, x)
        if img is None:
            missing.append(x)
            continue
        groups.setdefault(memo.key(img), (img, []))[1].append(x)
    images = {tuple(members): rep for rep, members in groups.values()}
    if missing:
        images[tuple(missing)] = None
    return Partition(labels=memo.p.space.x_labels, cells=tuple(images)), images


def equivalence_classes(rule: UpdateRule, p: CredalSet) -> Partition:
    """Group signal values by equality of the rule's opinion sets.

    Signals where the rule is undefined are collected into one extra
    cell (calibration checks skip it).  Cells are in first-occurrence
    order of the x labels, matching the canonical partition layout.
    """
    return _classes(rule, _Memo(p))[0]


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
    return _check_calibration(rule, _Memo(p))


def _check_calibration(rule: UpdateRule, memo: _Memo) -> CalibrationReport:
    classes, images = _classes(rule, memo)
    reports = []
    excluded = []
    for cell in classes.cells:
        image = images[cell]
        posterior = None if image is None else memo.cell(cell)
        if posterior is None:
            excluded.append(cell)
            continue
        reports.append(
            ClassReport(
                cell=cell,
                posterior=posterior,
                image=image,
                forward=memo.sub(posterior, image),
                backward=memo.sub(image, posterior),
            )
        )
    return CalibrationReport(
        rule=rule,
        classes=classes,
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
    return _narrower(r1, r2, _Memo(p))


def _narrower(r1: UpdateRule, r2: UpdateRule, memo: _Memo) -> str:
    strict = False
    for x in memo.live:
        a = memo.image(r1, x)
        b = memo.image(r2, x)
        if a is None or b is None:
            raise ValueError("rule undefined at support signal %r" % (x,))
        if not memo.sub(a, b):
            return NOT_NARROWER
        if memo.key(a) != memo.key(b):
            strict = True
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
    if p.space.nx > SHARP_X_LIMIT:
        raise SizeLimitError(
            "sharpness search limited to %d signals, got %d (%d partitions)"
            % (SHARP_X_LIMIT, p.space.nx, bell_number(p.space.nx))
        )


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


def refinement_fixpoint(p: CredalSet, start: Partition | None = None) -> Partition:
    """Iterate :func:`refine_partition` from ``start`` until stable.

    Defaults to starting from the all-singletons partition.  Each step
    merges cells, so this terminates after at most ``nx`` rounds.
    """
    _require_convex(p, "refinement iteration")
    return _fixpoint(_Memo(p), start)


def _fixpoint(memo: _Memo, start: Partition | None) -> Partition:
    labels = memo.p.space.x_labels
    current = start if start is not None else Partition.singletons(labels)
    for _ in range(len(labels) + 1):
        refined = _classes(partition_conditioning(current), memo)[0]
        if refined == current:
            return current
        current = refined
    raise AssertionError("refinement failed to stabilise")


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
    enumeration order, and the minimal ones are those with none.
    """
    _require_sharpness_search(p)
    memo = _Memo(p)
    if not memo.live:
        raise ValueError("credal set has empty signal support")
    examined = [partition_conditioning(c) for c in all_partitions(p.space.x_labels)]
    calibrated = [r for r in examined if _check_calibration(r, memo).calibrated]
    strict = _strictly_narrower_sets(calibrated, memo)
    start = partition_conditioning(_fixpoint(memo, None))
    if start not in calibrated:
        raise AssertionError("refinement fixpoint should be calibrated")
    current = calibrated.index(start)
    while strict[current]:
        current = _lowest_bit(strict[current])
    minimal = [c for c, below in zip(calibrated, strict) if not below]
    if calibrated[current] not in minimal:
        raise AssertionError("descent should end at a minimal partition")
    return calibrated[current].partition, SharpnessCertificate(
        minimal=tuple(c.partition for c in minimal),
        calibrated_count=len(calibrated),
        examined=len(examined),
    )


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _strictly_narrower_sets(rules: list[UpdateRule], memo: _Memo) -> list[int]:
    """For each partition rule, the bitmask of the rules strictly narrower
    than it (bit ``j`` stands for ``rules[j]``).

    At each live signal the rules are grouped by their opinion set, and
    inclusion is asked once per pair of sets.  ``below[i]`` is the AND
    over the signals of the rules whose set lies inside rule ``i``'s,
    ``same[i]`` of those whose set equals it; strictly narrower is
    below and not the same everywhere.
    """
    everyone = (1 << len(rules)) - 1
    below = [everyone] * len(rules)
    same = [everyone] * len(rules)
    for x in memo.live:
        groups: dict[int, tuple[VPolytope, list[int]]] = {}
        for i, rule in enumerate(rules):
            image = memo.image(rule, x)
            groups.setdefault(id(image), (image, []))[1].append(i)
        masks = [(image, sum(1 << i for i in members)) for image, members in groups.values()]
        for outer, members in groups.values():
            inside = equal = 0
            for inner, mask in masks:
                if memo.sub(inner, outer):
                    inside |= mask
                    if memo.key(inner) == memo.key(outer):
                        equal |= mask
            for i in members:
                below[i] &= inside
                same[i] &= equal
    return [b & ~s for b, s in zip(below, same)]


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
    strictly narrower calibrated partition.
    """
    _require_sharpness_search(p)
    memo = _Memo(p)
    if not _check_calibration(rule, memo).calibrated:
        raise ValueError("sharpness is only defined for calibrated rules")
    if any(memo.image(rule, x) is None for x in memo.live):
        raise ValueError("rule undefined at a support signal")
    for cand in all_partitions(p.space.x_labels):
        cand_rule = partition_conditioning(cand)
        if (
            _check_calibration(cand_rule, memo).calibrated
            and _narrower(cand_rule, rule, memo) == STRICTLY_NARROWER
        ):
            return SharpnessVerdict(sharp=False, witness=cand)
    return SharpnessVerdict(sharp=True, witness=None)
