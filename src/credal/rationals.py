"""Small helpers for exact rational arithmetic.

Every value the package returns is a :class:`fractions.Fraction`.  Sums,
dot products and the exact checks inside a function run on Python
``int`` numerators over one positive common denominator
(:func:`common_denominator`), cross-multiplied where two denominators
meet, so they decide the same predicates as ``Fraction`` arithmetic
would; a ``Fraction`` is built only where a value leaves the function.
That covers the LP and game rows, the certificates and saddle checks,
and every prior and posterior loss of a rule that the minimax solvers
and the consistency checks compare, all read from the two games' rows.
A point is its lowest-terms pair (:func:`lowest`) below the public API,
so membership, rectangularity swaps and game rows are built from ints,
and a pair is printed from its ints (:func:`pair_text`).
Floats are rejected at the boundaries: a float that survived into the
pipeline would silently poison every downstream equality test.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["rat", "rat_seq", "rat_matrix", "common_denominator", "lowest", "pair_text"]


def rat(value) -> Fraction:
    """Coerce ``value`` (Fraction, int or string like ``"2/3"``) to Fraction.

    Floats are refused on purpose; pass a string or Fraction instead.
    """
    if isinstance(value, float):
        raise TypeError("refusing float %r; use Fraction or a 'p/q' string" % (value,))
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def rat_seq(values) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


def rat_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(rat_seq(row) for row in rows)


def common_denominator(values) -> tuple[tuple[int, ...], int]:
    """``values`` (Fractions or ints) as ``(nums, den)``: integer numerators
    over the positive lcm of their denominators, ``values[i] == nums[i] / den``.
    An empty input gives ``((), 1)``.  Every LP and game row is such a pair."""
    pairs = [v.as_integer_ratio() for v in values]
    den = math.lcm(*[q for _, q in pairs])
    return tuple([p * (den // q) for p, q in pairs]), den


def lowest(nums, den) -> tuple[tuple[int, ...], int]:
    """``nums / den`` in lowest terms, as :func:`common_denominator` gives it."""
    g = math.gcd(den, *nums)
    return tuple([v // g for v in nums]), den // g


def pair_text(nums, den) -> list[str]:
    """Each value ``nums[i] / den`` as the text ``str(Fraction(nums[i], den))``
    gives, ``"p"`` or ``"p/q"`` in lowest terms, with one gcd per value."""
    out = []
    for v in nums:
        g = math.gcd(v, den)
        out.append(str(v // g) if g == den else "%d/%d" % (v // g, den // g))
    return out
