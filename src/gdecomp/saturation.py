"""The lattice of saturated index sets of a polytope member.

An index set alpha is saturated for A when sum_{i,j in alpha} a_ij = |alpha|
exactly.  The saturated family is closed under union, and under intersection
whenever the intersection is nonempty, so every entry position that lies in
some saturated set has a unique minimal and a unique maximal saturated
neighborhood; the minimal ones drive the extremity criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CapExceededError, InvalidIndexSetError, NotMemberError, NotOnGridError
from .matrices import EXHAUSTIVE_CAP, IndexSet, SymMatrix, is_grid_matrix
from .membership import (
    TOTAL_SUM_MISMATCH,
    _check_cap,
    _mask_members,
    _verdict_from_sums,
    principal_sums_by_mask,
)


@dataclass(frozen=True)
class SaturationReport:
    """All saturated sets of a matrix plus, per entry position (i <= j), its
    minimal and maximal saturated neighborhoods (None when the position lies
    in no saturated set)."""

    saturated_sets: tuple
    by_entry: dict


def _family_from_sums(sums: list, L: int, m: int) -> list:
    found = [
        IndexSet(_mask_members(mask), m)
        for mask in range(1, len(sums))
        if sums[mask] == L * mask.bit_count()
    ]
    found.sort(key=IndexSet.sort_key)
    return found


def verdict_and_family(A: SymMatrix, cap: int = EXHAUSTIVE_CAP):
    """Brute-force membership verdict and, for a member, its saturated
    family (None for a non-member), both from one principal-sum pass."""
    _check_cap(A.m, cap)
    sums, L = principal_sums_by_mask(A.entries)
    verdict = _verdict_from_sums(A, sums, L)
    return verdict, _family_from_sums(sums, L, A.m) if verdict.member else None


def _require_member(A: SymMatrix, cap: int, ambient="Um", verdict=None, family=None):
    """Saturated family of a member of the ambient polytope; raise for a
    non-member.

    The verdict and the family may be precomputed by the caller; when the
    verdict is missing both come from a single principal-sum pass.
    """
    if A.m > cap:
        raise CapExceededError("order %d exceeds the exhaustive cap %d" % (A.m, cap))
    if verdict is None:
        verdict, found = verdict_and_family(A, cap)
        if family is None:
            family = found
    if not verdict.member:
        raise NotMemberError(
            "matrix is not a polytope member; violating subset %s" % verdict.certificate,
            certificate=verdict.certificate,
        )
    if ambient == "UM" and verdict.total_sum != A.m:
        raise NotMemberError(
            "total sum %s differs from order %d" % (verdict.total_sum, A.m),
            reason=TOTAL_SUM_MISMATCH,
        )
    if family is None:
        family = enumerate_saturated(A)
    return family


def enumerate_saturated(A: SymMatrix):
    """Saturated index sets of A sorted by (cardinality, lexicographic).

    No membership check: callers that already hold a verdict use this
    directly; everyone else should go through saturated_sets().
    """
    sums, L = principal_sums_by_mask(A.entries)
    return _family_from_sums(sums, L, A.m)


def saturated_sets(A: SymMatrix, cap: int = EXHAUSTIVE_CAP, verdict=None):
    """All nonempty saturated index sets of a member matrix."""
    return _require_member(A, cap, verdict=verdict)


def _normalize_position(A: SymMatrix, i: int, j: int):
    if not (1 <= i <= A.m and 1 <= j <= A.m):
        raise InvalidIndexSetError(
            "position (%d,%d) outside an order-%d matrix" % (i, j, A.m)
        )
    return (i, j) if i <= j else (j, i)


def _min_over_family(family, i, j) -> Optional[IndexSet]:
    hits = [alpha for alpha in family if i in alpha and j in alpha]
    if not hits:
        return None
    smallest = hits[0]
    for alpha in hits[1:]:
        smallest = smallest.intersection(alpha)
    return smallest


def _max_over_family(family, i, j) -> Optional[IndexSet]:
    hits = [alpha for alpha in family if i in alpha and j in alpha]
    if not hits:
        return None
    largest = hits[0]
    for alpha in hits[1:]:
        largest = largest.union(alpha)
    return largest


def min_sat_neighborhood(
    A: SymMatrix, i: int, j: int, cap: int = EXHAUSTIVE_CAP, family=None
) -> Optional[IndexSet]:
    """Unique minimal saturated set containing {i, j}, or None.

    Computed as the intersection of all saturated sets through the position
    (valid by intersection closure).  A diagonal position (i, i) asks for
    saturated sets containing i.
    """
    i, j = _normalize_position(A, i, j)
    if family is None:
        family = _require_member(A, cap)
    return _min_over_family(family, i, j)


def max_sat_neighborhood(
    A: SymMatrix, i: int, j: int, cap: int = EXHAUSTIVE_CAP, family=None
) -> Optional[IndexSet]:
    """Unique maximal saturated set containing {i, j}, or None (union closure)."""
    i, j = _normalize_position(A, i, j)
    if family is None:
        family = _require_member(A, cap)
    return _max_over_family(family, i, j)


def saturation_report(A: SymMatrix, cap: int = EXHAUSTIVE_CAP) -> SaturationReport:
    """Saturated family plus min/max neighborhoods for every position i <= j."""
    family = _require_member(A, cap)
    by_entry = {}
    for i in range(1, A.m + 1):
        for j in range(i, A.m + 1):
            lo = _min_over_family(family, i, j)
            by_entry[(i, j)] = None if lo is None else (lo, _max_over_family(family, i, j))
    return SaturationReport(saturated_sets=tuple(family), by_entry=by_entry)


def is_F_matrix(A: SymMatrix, cap: int = EXHAUSTIVE_CAP) -> bool:
    """True iff A is a saturated grid matrix whose only saturated index set
    is the full set {1..m} (such matrices are never extreme for m >= 3)."""
    if not is_grid_matrix(A):
        raise NotOnGridError("entries must lie on the {0, 1/2, 1} grid")
    family = _require_member(A, cap)
    return len(family) == 1 and len(family[0]) == A.m
