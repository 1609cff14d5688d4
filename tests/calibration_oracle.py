"""Calibration, narrowness and sharpness by the paths before any cache, kept as a test oracle.

This is the code ``credal.calibration`` ran before every calibration
question read one conditioning cache per credal set: each class's
image and posterior are conditioned afresh, past the set's own cache,
refinement re-conditions every cell on every round, and the sharpness
search keeps its own cell cache and its own calibration and narrowness
loops.  Every inclusion is asked of the LP-only :mod:`polytope_oracle`,
so the oracle shares neither the integer identity, box and segment
tests of ``credal.polytope`` nor the table of cells and the bitset
poset of the sharpness searches in ``credal.calibration``: it checks
calibration partition by partition and compares partitions pair by
pair, and it lists partitions from restricted-growth strings, not from
``credal.partitions``.  Tests compare the package's answers against
these, report field by report field."""

from __future__ import annotations

from credal.calibration import (
    _IGNORE,
    _PARTITION,
    _STANDARD,
    NARROWER,
    NOT_NARROWER,
    STRICTLY_NARROWER,
    CalibrationReport,
    ClassReport,
    SharpnessCertificate,
    SharpnessVerdict,
    UpdateRule,
    _require_convex,
    _require_sharpness_search,
    partition_conditioning,
)
from credal.core import CredalSet, Partition, support_x
from credal.core import posterior_y as _posterior_y
from credal.polytope import VPolytope
from polytope_oracle import set_equal, subset


def growth_strings(n: int):
    """Restricted-growth strings of length ``n >= 1``, lexicographically:
    ``a[0] = 0`` and ``a[i] <= max(a[:i]) + 1``, the cell index of each
    element."""
    string = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield tuple(string)
            return
        for v in range(top + 2):
            string[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


def all_partitions(labels):
    """All partitions of ``labels``, one per restricted-growth string: the
    whole set first, the singletons last."""
    labels = tuple(labels)
    for string in growth_strings(len(labels)):
        cells = [[] for _ in range(max(string) + 1)]
        for x, k in zip(labels, string):
            cells[k].append(x)
        yield Partition(labels=labels, cells=tuple(map(tuple, cells)))


def posterior_y(p: CredalSet, cell) -> VPolytope | None:
    """:func:`credal.core.posterior_y` computed afresh: a new set has a table of its own."""
    return _posterior_y(CredalSet(p.space, p.generators, p.convex), cell)


def image_y(rule: UpdateRule, p: CredalSet, x) -> VPolytope | None:
    """Y-marginal of the rule's opinion set at ``x``, None if undefined."""
    x = str(x)
    if x not in p.space.x_labels:
        raise ValueError("unknown signal label %r" % (x,))
    if rule.kind == _IGNORE:
        return posterior_y(p, p.space.x_labels)
    if rule.kind == _STANDARD:
        return posterior_y(p, (x,))
    if rule.kind == _PARTITION:
        if tuple(rule.partition.labels) != p.space.x_labels:
            raise ValueError("rule partition is over different labels")
        return posterior_y(p, rule.partition.cell_of(x))
    for label, image in rule.table:
        if label == x:
            if image.space != p.space:
                raise ValueError("table image on a different space")
            return posterior_y(image, image.space.x_labels)
    return None


def equivalence_classes(rule: UpdateRule, p: CredalSet) -> Partition:
    """Group signal values by equality of the rule's opinion sets.

    Signals where the rule is undefined are collected into one extra
    cell (calibration checks skip it).  Cells are in first-occurrence
    order of the x labels, matching the canonical partition layout.
    """
    groups: list[tuple[VPolytope, list[str]]] = []
    missing: list[str] = []
    for x in p.space.x_labels:
        img = image_y(rule, p, x)
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
        image = image_y(rule, p, cell[0])
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
        a = image_y(r1, p, x)
        b = image_y(r2, p, x)
        if a is None or b is None:
            raise ValueError("rule undefined at support signal %r" % (x,))
        if not subset(a, b):
            return NOT_NARROWER
        if not subset(b, a):
            strict = True
    return STRICTLY_NARROWER if strict else NARROWER


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
    images = {x: image_y(rule, p, x) for x in live}
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
