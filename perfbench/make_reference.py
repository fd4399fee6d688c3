"""Recompute reference.json, the expected grid-workload answers, with the
benchmark's own naive oracle (integer subset sums and the rank test; nothing
from gdecomp).  Run once; the committed file is what the gate compares with.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from gate import REFERENCE, grid_key, vertex_digest
from oracle import SubsetSums, is_extreme, members_of
from workloads import GRID_CALLS

HALF = Fraction(1, 2)
VALUES = (Fraction(0), HALF, Fraction(1))


def symmetric(m, values_for):
    positions = [(i, j) for i in range(m) for j in range(i, m)]
    for combo in itertools.product(*(values_for(i, j) for i, j in positions)):
        A = [[Fraction(0)] * m for _ in range(m)]
        for (i, j), v in zip(positions, combo):
            A[i][j] = A[j][i] = v
        yield A


def half_grid_on(A, mask) -> bool:
    idx = [i - 1 for i in members_of(mask)]
    return all(A[i][i] == 0 for i in idx) and all(
        A[i][j] in (0, HALF) for i in idx for j in idx
    )


def scan(m) -> dict:
    """Counts over every {0, 1/2, 1} matrix, and disagreements between the
    rank test and the two conjectured entry-level characterizations."""
    counts = dict.fromkeys(
        ("grid", "members", "saturated_members",
         "conjecture1_counterexamples", "conjecture2_counterexamples"), 0)
    for A in symmetric(m, lambda i, j: VALUES):
        counts["grid"] += 1
        sums = SubsetSums(A)
        if not sums.member:
            continue
        counts["members"] += 1
        family = sums.family()
        extreme = is_extreme(A, family)
        on_grid = all(A[i][i] != HALF for i in range(m))
        covered = all(
            any(mask >> i & 1 and mask >> j & 1 for mask in family)
            for i in range(m) for j in range(i, m) if A[i][j] == HALF
        )
        no_block = not any(half_grid_on(A, mask) for mask in family)
        counts["conjecture1_counterexamples"] += (on_grid and covered and no_block) != extreme
        if sum(map(sum, A)) == m:
            counts["saturated_members"] += 1
            counts["conjecture2_counterexamples"] += (on_grid and no_block) != extreme
    return counts


def enumerate_vertices(m, ambient) -> dict:
    vertices = []
    for A in symmetric(m, lambda i, j: VALUES[::2] if i == j else VALUES):
        sums = SubsetSums(A)
        if not sums.member or (ambient == "UM" and sum(map(sum, A)) != m):
            continue
        if is_extreme(A, sums.family()):
            vertices.append(A)
    return {"count": len(vertices), "digest": vertex_digest(vertices)}


def main():
    reference = {}
    for argv in GRID_CALLS:
        key = grid_key(argv)
        if key not in reference:
            m = int(argv[2])
            reference[key] = scan(m) if argv[0] == "scan" else enumerate_vertices(m, argv[4])
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(json.dumps(reference, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
