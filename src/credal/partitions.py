"""Enumeration of set partitions in a stable order.

A partition below the public API is the tuple of its cells' bitmasks
(bit ``i`` for element ``i``), cells by their least element.
:func:`cell_masks` lists them in restricted-growth order: element ``i``
joins each open cell in turn, then opens a new one, so the whole-set
partition comes first and the all-singletons partition last.  The
order is part of the public contract: searches that return "the first
partition such that ..." must be reproducible.  The sharpness searches
walk the masks and build a :class:`Partition` (:func:`partition_of`)
only for what they return.
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


def cell_masks(n: int):
    """Every partition of ``range(n)`` as the bitmasks of its cells, in
    restricted-growth order, cells by their least element."""
    cells: list[int] = []

    def grow(i: int):
        if i == n:
            yield tuple(cells)
            return
        bit = 1 << i
        for k in range(len(cells)):
            cells[k] |= bit
            yield from grow(i + 1)
            cells[k] ^= bit
        cells.append(bit)
        yield from grow(i + 1)
        cells.pop()

    return grow(0)


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
