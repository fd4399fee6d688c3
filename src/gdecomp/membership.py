"""Membership deciders for the subset-sum polytopes, with certificates.

A symmetric nonnegative A of order m is a member when every index set alpha
satisfies  sum_{i,j in alpha} a_ij <= |alpha|;  the saturated ("upper")
polytope additionally requires the total entry sum to equal m exactly.

Two independent deciders are provided: exhaustive subset enumeration and an
exact max-flow reduction whose min cut exhibits a violating subset.  They are
cross-checked against each other in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CapExceededError, DiagonalOverflowError
from .flow import build_flow_network, max_flow
from .matrices import EXHAUSTIVE_CAP, IndexSet, SymMatrix

TOTAL_SUM_MISMATCH = "total-sum-mismatch"
VIOLATING_SUBSET = "violating-subset"


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a membership test.

    `certificate`, when present, is a subset whose principal sum strictly
    exceeds its cardinality.  `slack` is min over nonempty alpha of
    (|alpha| - principal_sum); it is None when the decider was asked for the
    sign only (the `member` bit).  `reason` distinguishes the total-sum
    failure mode of the upper test, which has no violating subset.
    """

    member: bool
    certificate: Optional[IndexSet]
    slack: Optional[Fraction]
    total_sum: Fraction
    reason: Optional[str] = None


def _check_cap(m: int, cap: int):
    if m > cap:
        raise CapExceededError(
            "order %d exceeds the exhaustive cap %d; use the min-cut checker "
            "or raise the cap explicitly" % (m, cap)
        )


def principal_sums_by_mask(grid) -> tuple:
    """Principal sums of a symmetric grid for every bitmask of {1..m}, as
    integers scaled by the common denominator.

    Returns (sums, L): L is the least common multiple of the entry
    denominators and sums[mask] == L * sum_{i,j in mask} g_ij exactly
    (0-based bit k encodes index k+1).  Works for any symmetric grid of
    Fractions or ints, signed or not; used by the membership, saturation, and
    perturbation machinery.

    Cost: O(m^2) to scale the entries, then one integer addition per mask.
    Masks are grouped by their highest bit k, so each group is the contiguous
    range [2^k, 2^(k+1)) and sums[2^k + r] = sums[r] + T_k[r] for r < 2^k,
    where T_k[r] = L*g_kk + 2L * sum_{j in r} g_kj holds the row-k terms.
    T_k is built by doubling over the bits below k; all T_k together hold
    2^m - 1 cells.
    """
    L = math.lcm(*(v.denominator for row in grid for v in row))
    sums = [0]
    for k, row in enumerate(grid):
        scaled = [v.numerator * (L // v.denominator) for v in row[: k + 1]]
        tail = [scaled[k]]
        for j in range(k):
            c = 2 * scaled[j]
            tail += [t + c for t in tail] if c else tail
        sums += [s + t for s, t in zip(sums, tail)]
    return sums, L


def _mask_members(mask: int) -> tuple:
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length())
        mask ^= low
    return tuple(members)


def _verdict_from_sums(A: SymMatrix, sums: list, L: int) -> MembershipVerdict:
    """Brute-force verdict from A's scaled principal-sum table.

    The certificate is a violating subset of minimum cardinality, ties broken
    lexicographically; slack is exact.
    """
    total = A.total_sum()
    if A.m == 0:
        return MembershipVerdict(True, None, None, total)
    margins = [L * mask.bit_count() - s for mask, s in enumerate(sums)]
    low = min(itertools.islice(margins, 1, None))
    slack = Fraction(low, L)
    if low >= 0:
        return MembershipVerdict(True, None, slack, total)
    best = best_size = best_members = None
    for mask in [mask for mask, v in enumerate(margins) if v < 0]:
        size = mask.bit_count()
        if best is None or size < best_size:
            best, best_size, best_members = mask, size, None
        elif size == best_size:
            if best_members is None:
                best_members = _mask_members(best)
            members = _mask_members(mask)
            if members < best_members:
                best, best_members = mask, members
    return MembershipVerdict(
        False,
        IndexSet(_mask_members(best), A.m),
        slack,
        total,
        reason=VIOLATING_SUBSET,
    )


def check_Um_bruteforce(A: SymMatrix, cap: int = EXHAUSTIVE_CAP) -> MembershipVerdict:
    """Decide membership by enumerating all nonempty subsets.

    The certificate, when one exists, is a violating subset of minimum
    cardinality, ties broken lexicographically; slack is always exact.
    """
    _check_cap(A.m, cap)
    sums, L = principal_sums_by_mask(A.entries)
    return _verdict_from_sums(A, sums, L)


def check_Um_mincut(
    A: SymMatrix, exact_slack: bool = False, cap: int = EXHAUSTIVE_CAP
) -> MembershipVerdict:
    """Decide membership via the max-flow reduction (polynomial time).

    Verdict semantics match the brute-force decider, but the certificate read
    off the min cut need not have minimum cardinality.  By default only the
    sign of the slack is determined (it is the `member` bit) and `slack` is
    None; pass exact_slack=True to also enumerate the exact value (subject to
    the exhaustive cap).
    """
    m = A.m
    total = A.total_sum()
    slack = None
    if exact_slack:
        slack = check_Um_bruteforce(A, cap=cap).slack

    try:
        net = build_flow_network(A)
    except DiagonalOverflowError as exc:
        # singleton violation; the network would need a negative capacity
        return MembershipVerdict(
            False, IndexSet({exc.index}, m), slack, total, reason=VIOLATING_SUBSET
        )
    result = max_flow(net)
    if result.value == net.source_capacity_total:
        return MembershipVerdict(True, None, slack, total)
    cert = IndexSet(result.cut_vertices, m)
    return MembershipVerdict(False, cert, slack, total, reason=VIOLATING_SUBSET)


def check_Um(
    A: SymMatrix, cap: int = EXHAUSTIVE_CAP, method: str = "auto"
) -> MembershipVerdict:
    """Membership in the lower polytope; brute force under the cap, min-cut above."""
    if method == "bruteforce":
        return check_Um_bruteforce(A, cap=cap)
    if method == "mincut":
        return check_Um_mincut(A)
    if method == "auto":
        if A.m <= cap:
            return check_Um_bruteforce(A, cap=cap)
        return check_Um_mincut(A)
    raise ValueError("unknown method %r" % method)


def check_Um_upper(
    A: SymMatrix, cap: int = EXHAUSTIVE_CAP, method: str = "auto"
) -> MembershipVerdict:
    """Membership in the saturated polytope: member below AND total sum == m."""
    base = check_Um(A, cap=cap, method=method)
    if not base.member:
        return base
    if base.total_sum != A.m:
        return MembershipVerdict(
            False,
            None,
            base.slack,
            base.total_sum,
            reason=TOTAL_SUM_MISMATCH,
        )
    return base
