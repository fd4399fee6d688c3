"""Shared fixtures-in-spirit: named matrices and independent test oracles.

The naive_* functions deliberately reimplement the definitions with plain
loops over itertools.combinations, independent of the library's bit-mask
machinery, so certificate and membership claims are checked by a second
route.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

import gdecomp as g

HALF = Fraction(1, 2)


def m3():
    return g.SymMatrix([[0, HALF, HALF], [HALF, 0, 0], [HALF, 0, 1]])


def a6():
    return g.SymMatrix(
        [
            [0, HALF, 0, 0, 0, 0],
            [HALF, 0, HALF, 0, 0, 0],
            [0, HALF, 0, HALF, 0, 0],
            [0, 0, HALF, 1, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
        ]
    )


def n_cycle(m):
    """The 1/2-cycle matrix: 1/2 on the two cyclic neighbors, 0 elsewhere."""
    grid = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        j = (i + 1) % m
        grid[i][j] = HALF
        grid[j][i] = HALF
    return g.SymMatrix(grid)


def naive_principal_sum(A, members):
    members = list(members)
    return sum(A.entry(i, j) for i in members for j in members)


def naive_principal_sums(grid):
    """Fraction principal sum of every bitmask (bit k is index k+1), summed
    entry by entry over each mask's members; signed grids allowed."""
    m = len(grid)
    out = []
    for mask in range(1 << m):
        members = [k for k in range(m) if mask >> k & 1]
        out.append(sum(Fraction(grid[i][j]) for i in members for j in members))
    return out


def naive_min_margin(A):
    """min over nonempty alpha of |alpha| - S(alpha), by direct definition."""
    return min(
        size - naive_principal_sum(A, combo)
        for size in range(1, A.m + 1)
        for combo in combinations(range(1, A.m + 1), size)
    )


def naive_certificate(A):
    """First violating subset in (cardinality, lexicographic) order, or None."""
    indices = range(1, A.m + 1)
    for size in range(1, A.m + 1):
        for combo in combinations(indices, size):
            if naive_principal_sum(A, combo) > size:
                return frozenset(combo)
    return None


def naive_member(A):
    """Membership by direct definition: every nonempty subset obeys its bound."""
    return naive_certificate(A) is None


def naive_saturated_sets(A):
    out = []
    indices = range(1, A.m + 1)
    for size in range(1, A.m + 1):
        for combo in combinations(indices, size):
            if naive_principal_sum(A, combo) == size:
                out.append(frozenset(combo))
    return out


def members_of(alpha):
    return sorted(alpha.members)


@st.composite
def off_grid_members(draw, max_m=6):
    """(X + X^t)/2 with X substochastic: rows n_j / D with D >= sum of n_j."""
    m = draw(st.integers(1, max_m))
    X = []
    for _ in range(m):
        nums = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
        D = max(1, sum(nums) + draw(st.integers(0, 4)))
        X.append([Fraction(n, D) for n in nums])
    return g.SymMatrix([[(X[i][j] + X[j][i]) / 2 for j in range(m)] for i in range(m)])
