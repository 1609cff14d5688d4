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

Every conditioned Y-marginal here, from the standard and partition
rules, the class posteriors and the sharpness search alike, comes from
:func:`credal.core.posterior_y`, which works in outcome space only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CredalSet,
    Partition,
    marginal_y,
    posterior_y,
    support_x,
)
from .linprog import SizeLimitError
from .partitions import all_partitions, bell_number
from .polytope import VPolytope, set_equal, subset

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
        if self.kind == _IGNORE:
            return marginal_y(p)
        if self.kind == _STANDARD:
            return posterior_y(p, (x,))
        if self.kind == _PARTITION:
            if tuple(self.partition.labels) != p.space.x_labels:
                raise ValueError("rule partition is over different labels")
            return posterior_y(p, self.partition.cell_of(x))
        for label, image in self.table:
            if label == x:
                if image.space != p.space:
                    raise ValueError("table image on a different space")
                return marginal_y(image)
        return None

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


def equivalence_classes(rule: UpdateRule, p: CredalSet) -> Partition:
    """Group signal values by equality of the rule's opinion sets.

    Signals where the rule is undefined are collected into one extra
    cell (calibration checks skip it).  Cells are in first-occurrence
    order of the x labels, matching the canonical partition layout.
    """
    groups: list[tuple[VPolytope, list[str]]] = []
    missing: list[str] = []
    for x in p.space.x_labels:
        img = rule.image_y(p, x)
        if img is None:
            missing.append(x)
            continue
        for rep, members in groups:
            if set_equal(img, rep):
                members.append(x)
                break
        else:
            groups.append((img, [x]))
    cells = [tuple(members) for _, members in groups]
    if missing:
        cells.append(tuple(missing))
    return Partition(labels=p.space.x_labels, cells=tuple(cells))


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
    classes = equivalence_classes(rule, p)
    live = set(support_x(p))
    reports = []
    excluded = []
    for cell in classes.cells:
        image = rule.image_y(p, cell[0])
        if image is None or not any(x in live for x in cell):
            excluded.append(cell)
            continue
        posterior = posterior_y(p, cell)
        reports.append(
            ClassReport(
                cell=cell,
                posterior=posterior,
                image=image,
                forward=subset(posterior, image),
                backward=subset(image, posterior),
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
    strict = False
    for x in support_x(p):
        a = r1.image_y(p, x)
        b = r2.image_y(p, x)
        if a is None or b is None:
            raise ValueError("rule undefined at support signal %r" % (x,))
        if not subset(a, b):
            return NOT_NARROWER
        if not subset(b, a):
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
    current = start if start is not None else Partition.singletons(p.space.x_labels)
    for _ in range(p.space.nx + 1):
        refined = refine_partition(current, p)
        if refined == current:
            return current
        current = refined
    raise AssertionError("refinement failed to stabilise")


class _CellCache:
    """Memoised conditioned Y-marginals and their pairwise inclusions."""

    def __init__(self, p: CredalSet):
        self.p = p
        self._proj: dict[tuple[str, ...], VPolytope | None] = {}
        self._sub: dict[tuple[tuple[str, ...], tuple[str, ...]], bool] = {}

    def proj(self, cell) -> VPolytope | None:
        cell = tuple(cell)
        if cell not in self._proj:
            self._proj[cell] = posterior_y(self.p, cell)
        return self._proj[cell]

    def sub(self, inner, outer) -> bool:
        key = (tuple(inner), tuple(outer))
        if key not in self._sub:
            a = self.proj(key[0])
            b = self.proj(key[1])
            if a is None or b is None:
                raise ValueError("comparison against a dead cell")
            self._sub[key] = subset(a, b)
        return self._sub[key]


def _partition_calibrated(c: Partition, p: CredalSet, cache: _CellCache) -> bool:
    """Is conditioning on ``c`` calibrated against ``p``?

    The classes of c-conditioning merge c's live cells with equal
    projections; calibration then asks that the merged cell's
    projection still equals the members'.
    """
    groups: list[list[tuple[str, ...]]] = []
    for cell in c.cells:
        if cache.proj(cell) is None:
            continue
        for members in groups:
            if cache.sub(cell, members[0]) and cache.sub(members[0], cell):
                members.append(cell)
                break
        else:
            groups.append([cell])
    for members in groups:
        merged = tuple(x for cell in members for x in cell)
        merged = tuple(x for x in c.labels if x in merged)
        pooled = cache.proj(merged)
        rep = cache.proj(members[0])
        if not (subset(pooled, rep) and subset(rep, pooled)):
            return False
    return True


def _strictly_narrower_partition(
    fine: Partition, coarse: Partition, live, cache: _CellCache
) -> bool:
    """Does conditioning on ``fine`` strictly narrow ``coarse`` on the support?"""
    strict = False
    for x in live:
        a = fine.cell_of(x)
        b = coarse.cell_of(x)
        if not cache.sub(a, b):
            return False
        if not cache.sub(b, a):
            strict = True
    return strict


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
    """
    _require_sharpness_search(p)
    live = support_x(p)
    if not live:
        raise ValueError("credal set has empty signal support")
    cache = _CellCache(p)
    examined = list(all_partitions(p.space.x_labels))
    calibrated = [c for c in examined if _partition_calibrated(c, p, cache)]

    current = refinement_fixpoint(p)
    if current not in calibrated:
        raise AssertionError("refinement fixpoint should be calibrated")
    moved = True
    while moved:
        moved = False
        for cand in calibrated:
            if cand != current and _strictly_narrower_partition(
                cand, current, live, cache
            ):
                current = cand
                moved = True
                break

    minimal = tuple(
        c
        for c in calibrated
        if not any(
            d != c and _strictly_narrower_partition(d, c, live, cache)
            for d in calibrated
        )
    )
    if current not in minimal:
        raise AssertionError("descent should end at a minimal partition")
    return current, SharpnessCertificate(
        minimal=minimal,
        calibrated_count=len(calibrated),
        examined=len(examined),
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
    strictly narrower calibrated partition.
    """
    _require_sharpness_search(p)
    report = check_calibration(rule, p)
    if not report.calibrated:
        raise ValueError("sharpness is only defined for calibrated rules")
    live = support_x(p)
    cache = _CellCache(p)
    images = {x: rule.image_y(p, x) for x in live}
    if any(img is None for img in images.values()):
        raise ValueError("rule undefined at a support signal")
    for cand in all_partitions(p.space.x_labels):
        if not _partition_calibrated(cand, p, cache):
            continue
        strict = False
        ok = True
        for x in live:
            cell = cache.proj(cand.cell_of(x))
            if not subset(cell, images[x]):
                ok = False
                break
            if not subset(images[x], cell):
                strict = True
        if ok and strict:
            return SharpnessVerdict(sharp=False, witness=cand)
    return SharpnessVerdict(sharp=True, witness=None)
