"""The speed of the machine, measured alongside the analyses.

The benchmark shares a few cores of a host whose speed wanders by tens
of percent, within seconds and over minutes, for reasons outside the
measured process.  To keep runs of the same code comparable, every
end-to-end timing and the tracing overhead are scaled by how long a
fixed reference kernel took in the same process at about the same time:
``reported = measured * REF_SECONDS / reference``.  (The per-layer
``self_s`` figures are not scaled.)  The kernel uses only the standard
library (exact ``Fraction`` elimination, the kind of arithmetic the
package does), so a change to the package cannot speed it up or slow
it down, short of changing the interpreter's global state; a slower
package shows in full.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Median wall seconds of ``kernel()`` on the shared 2-core x86-64
# sandbox (Python 3.11.7) where the benchmark was defined.  It only puts
# the scaled timings on that machine's scale; comparisons between
# commits do not depend on it.
REF_SECONDS = 0.0125

_N = 7
_MATRICES = 16


def _matrix(state):
    rows = []
    for _ in range(_N):
        row = []
        for _ in range(_N):
            state = (state * 1103515245 + 12345) % 2**31
            row.append(Fraction(state % 19 - 9, state % 7 + 1))
        rows.append(row)
    return rows


def _det(a) -> Fraction:
    det = Fraction(1)
    for c in range(_N):
        pivot = next(r for r in range(c, _N) if a[r][c] != 0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, _N):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def kernel() -> Fraction:
    """Sum of the determinants of fixed 7x7 rational matrices, by exact
    elimination."""
    return sum(_det(_matrix(seed)) for seed in range(_MATRICES))


DET = kernel()


def sample() -> float:
    """Wall seconds of one run of the kernel; checks its result."""
    t0 = perf_counter()
    det = kernel()
    took = perf_counter() - t0
    if det != DET:
        raise AssertionError("reference kernel gave %s, not %s" % (det, DET))
    return took


def factor(samples) -> float:
    """Scale from measured to reported seconds, from reference samples."""
    return REF_SECONDS / statistics.median(samples)


def local_factors(n: int, samples, at, width: int = 5) -> list[float]:
    """Scale for each of ``n`` analyses, from the ``width`` reference
    samples taken nearest to it; ``at[j]`` is the number of analyses
    done when sample ``j`` was taken.  The host's speed can change
    within a run, so one scale per run is not enough."""
    out = []
    for i in range(n):
        near = sorted(range(len(samples)), key=lambda j: abs(at[j] - i - 0.5))[:width]
        out.append(factor([samples[j] for j in near]))
    return out
