"""Machine-speed probe used to put timings on a common scale.

On a shared machine the speed of the same Python code drifts by tens of
percent over minutes (contention from other tenants shows in thread CPU time
as much as in wall time, so it is not steal time).  The benchmark therefore
times a fixed probe next to the operations it measures and reports each
operation's time scaled by REFERENCE_S / (probe time around it): a change in
the library moves the scaled times, a change in machine speed moves the probe
and the operation alike and cancels.  Raw times are recorded beside them.

The probes are pure Python and import nothing from the library, so no change
to the library can move them.  There are two, one per instruction profile:
"fraction" (Fraction arithmetic over subset masks, like the 2^m kernel and
the peel) and "table" (integer reads over a list-of-lists table, like the
max-flow tables).  Against a max-flow call the table probe tracked the
machine's drift about twice as closely as the fraction probe, and the reverse
held against the subset-sum kernel, so each workload uses the probe that
matches it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Probe times at the reference speed; scaled times are in seconds at that
# speed.  They are about the probes' times on a shared 2-core x86 machine
# running Python 3.11 in its faster periods, so scaled times read close to
# wall times there.
REFERENCE_S = {"fraction": 0.0012, "table": 0.00065}

_ORDER = 7
_GRID = [[Fraction((3 * i + 5 * j) % 11, 12) for j in range(_ORDER)] for i in range(_ORDER)]
_TABLE = [[(i * j) % 7 for j in range(120)] for i in range(120)]


def _fraction_kernel():
    sums = [Fraction(0)] * (1 << _ORDER)
    for mask in range(1, 1 << _ORDER):
        low = mask & -mask
        k = low.bit_length() - 1
        rest = mask ^ low
        row = _GRID[k]
        cross = Fraction(0)
        sub = rest
        while sub:
            lb = sub & -sub
            cross += row[lb.bit_length() - 1]
            sub ^= lb
        sums[mask] = sums[rest] + row[k] + 2 * cross
    return sums[-1]


def _table_kernel():
    total = 0
    for i, row in enumerate(_TABLE):
        nxt = _TABLE[(i + 1) % len(_TABLE)]
        for j in range(len(row)):
            total += row[j] - nxt[j]
    return total


_KERNELS = {"fraction": _fraction_kernel, "table": _table_kernel}


def probe(kind: str) -> float:
    """Fastest of three back-to-back runs of the named probe, in seconds."""
    kernel = _KERNELS[kind]
    best = None
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best
