"""Enumeration of set partitions in a stable order.

Partitions are generated from restricted-growth strings in
lexicographic order, so the whole-set partition comes first and the
all-singletons partition last.  The order is part of the public
contract: searches that return "the first partition such that ..."
must be reproducible.
"""

from __future__ import annotations

from .core import Partition

__all__ = ["all_partitions", "bell_number"]


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


def all_partitions(labels):
    """All partitions of ``labels``, whole set first, singletons last."""
    labels = tuple(str(v) for v in labels)
    n = len(labels)
    if n == 0:
        raise ValueError("cannot partition an empty label set")
    for rgs in _growth_strings(n):
        ncells = max(rgs) + 1
        cells: list[list[str]] = [[] for _ in range(ncells)]
        for name, cell in zip(labels, rgs):
            cells[cell].append(name)
        yield Partition(labels=labels, cells=tuple(tuple(c) for c in cells))
