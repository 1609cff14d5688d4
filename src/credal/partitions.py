"""Enumeration of set partitions in a stable order.

Partitions are generated from restricted-growth strings in
lexicographic order, so the whole-set partition comes first and the
all-singletons partition last.  The order is part of the public
contract: searches that return "the first partition such that ..."
must be reproducible.  The sharpness searches walk the same order as
cell bitmasks (:func:`cell_masks`) and build a :class:`Partition` only
for what they return.
"""

from __future__ import annotations

from .core import Partition

__all__ = ["all_partitions", "bell_number", "cell_masks", "partition_of"]


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set (Bell triangle)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _growth_strings(n: int):
    """Restricted-growth strings of length n, lexicographically.

    a[0] = 0 and a[i] <= max(a[:i]) + 1; each string encodes the cell
    index of every element.
    """
    string = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield tuple(string)
            return
        for v in range(top + 2):
            string[i] = v
            yield from rec(i + 1, max(top, v))

    if n == 0:
        yield ()
    else:
        yield from rec(1, 0)


def cell_masks(n: int):
    """Every partition of ``range(n)``, ``n >= 1``, as the bitmasks of its
    cells (bit ``i`` for element ``i``), in the order of
    :func:`all_partitions`, cells by their least element."""
    for rgs in _growth_strings(n):
        cells = [0] * (max(rgs) + 1)
        for i, cell in enumerate(rgs):
            cells[cell] |= 1 << i
        yield tuple(cells)


def partition_of(labels, cells) -> Partition:
    """The partition of ``labels`` whose cells are the bitmasks ``cells``."""
    return Partition(
        labels=labels,
        cells=tuple(tuple(x for i, x in enumerate(labels) if mask >> i & 1) for mask in cells),
    )


def all_partitions(labels):
    """All partitions of ``labels``, whole set first, singletons last."""
    labels = tuple(str(v) for v in labels)
    if not labels:
        raise ValueError("cannot partition an empty label set")
    for cells in cell_masks(len(labels)):
        yield partition_of(labels, cells)
