"""The benchmark's own answer checks, independent of the library under test.

Everything here works on plain lists of Fractions (scaled to integers where
it enumerates subsets) and imports nothing from `gdecomp`:

* membership, slack and the saturated family by integer subset sums;
* certificates re-summed entry by entry from the input matrix;
* extremity by the exact rank of the tight-constraint system (a symmetric
  perturbation that vanishes on zero entries and keeps every saturated sum
  must be zero), computed by fraction-free integer elimination;
* decompositions X checked against (X + X^t)/2 = A and the row sums;
* vertex decompositions re-added term by term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional


def parse_rows(rows) -> list:
    return [[Fraction(v) for v in row] for row in rows]


def block_sum(A: list, members) -> Fraction:
    """Principal sum over 1-based index set `members`, entry by entry."""
    idx = [i - 1 for i in members]
    return sum((A[i][j] for i in idx for j in idx), Fraction(0))


def violating(A: list, cert) -> bool:
    """True when `cert` is a nonempty index set whose principal sum exceeds its size."""
    members = set(cert or ())
    if not members or not all(1 <= i <= len(A) for i in members):
        return False
    return block_sum(A, members) > len(members)


def total(A: list) -> Fraction:
    return sum((sum(row, Fraction(0)) for row in A), Fraction(0))


class SubsetSums:
    """All 2^m principal sums of A, on integers scaled by the common denominator."""

    def __init__(self, A: list):
        m = len(A)
        scale = 1
        for row in A:
            for v in row:
                scale = math.lcm(scale, v.denominator)
        G = [[int(v * scale) for v in row] for row in A]
        sums = [0] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & -mask
            k = low.bit_length() - 1
            rest = mask ^ low
            row = G[k]
            cross = 0
            sub = rest
            while sub:
                lb = sub & -sub
                cross += row[lb.bit_length() - 1]
                sub ^= lb
            sums[mask] = sums[rest] + row[k] + 2 * cross
        self.m = m
        self.scale = scale
        self.margins = [mask.bit_count() * scale - sums[mask] for mask in range(1 << m)]

    @property
    def member(self) -> bool:
        return all(x >= 0 for x in self.margins[1:])

    @property
    def slack(self) -> Fraction:
        return Fraction(min(self.margins[1:]), self.scale)

    def family(self) -> list:
        """Saturated sets as bitmasks (bit k is index k+1)."""
        return [mask for mask in range(1, 1 << self.m) if self.margins[mask] == 0]


def members_of(mask: int) -> list:
    return [k + 1 for k in range(mask.bit_length()) if mask >> k & 1]


def neighborhoods(family: list, i: int, j: int):
    """(minimal, maximal) saturated sets containing {i, j} as 1-based lists, or (None, None)."""
    need = (1 << (i - 1)) | (1 << (j - 1))
    hits = [mask for mask in family if mask & need == need]
    if not hits:
        return None, None
    lo, hi = hits[0], hits[0]
    for mask in hits[1:]:
        lo &= mask
        hi |= mask
    return members_of(lo), members_of(hi)


def rank(rows: list) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    work = [list(r) for r in {tuple(r) for r in rows} if any(r)]
    if not work:
        return 0
    r = 0
    for c in range(len(work[0])):
        pivot = next((p for p in range(r, len(work)) if work[p][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        top = work[r]
        for p in range(r + 1, len(work)):
            f = work[p][c]
            if f:
                row = [top[c] * x - f * y for x, y in zip(work[p], top)]
                g = math.gcd(*row)
                work[p] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == len(work):
            break
    return r


def is_extreme(A: list, family: list) -> bool:
    """Rank test on a member: extreme iff the tight system pins every nonzero entry."""
    m = len(A)
    positions = [(i, j) for i in range(m) for j in range(i, m) if A[i][j] != 0]
    if not positions:
        return True
    rows = [
        [(1 if i == j else 2) if (mask >> i & 1 and mask >> j & 1) else 0 for (i, j) in positions]
        for mask in family
    ]
    if len(rows) < len(positions):
        return False
    return rank(rows) == len(positions)


def fractional_positions(A: list) -> list:
    m = len(A)
    return [(i + 1, j + 1) for i in range(m) for j in range(i, m) if 0 < A[i][j] < 1]


def valid_X(A: list, X: list, mode: str) -> bool:
    """X >= 0, (X + X^t)/2 = A, row sums 1 (stochastic) or at most 1."""
    m = len(A)
    if len(X) != m or any(len(row) != m for row in X):
        return False
    for i in range(m):
        if any(v < 0 for v in X[i]):
            return False
        if any(X[i][j] + X[j][i] != 2 * A[i][j] for j in range(m)):
            return False
        s = sum(X[i], Fraction(0))
        if s > 1 or (mode == "stochastic" and s != 1):
            return False
    return True


def convex_combination_error(A: list, terms: list, ambient: str) -> Optional[str]:
    """None when (weight, vertex) terms are a vertex decomposition of A in the ambient."""
    m = len(A)
    if not terms:
        return "no terms"
    if any(w <= 0 or w > 1 for w, _ in terms):
        return "weight outside (0, 1]"
    if sum((w for w, _ in terms), Fraction(0)) != 1:
        return "weights do not sum to 1"
    acc = [[Fraction(0)] * m for _ in range(m)]
    for w, V in terms:
        for i in range(m):
            for j in range(m):
                acc[i][j] += w * V[i][j]
    if acc != A:
        return "terms do not reconstruct the input"
    seen = set()
    for _, V in terms:
        key = tuple(map(tuple, V))
        if key in seen:
            return "repeated vertex"
        seen.add(key)
        if any(V[i][j] != V[j][i] or V[i][j] < 0 for i in range(m) for j in range(m)):
            return "vertex not symmetric nonnegative"
        sums = SubsetSums(V)
        if not sums.member:
            return "vertex outside the polytope"
        if ambient == "UM" and total(V) != m:
            return "vertex off the saturated slice"
        if not is_extreme(V, sums.family()):
            return "vertex fails the rank test"
    return None
