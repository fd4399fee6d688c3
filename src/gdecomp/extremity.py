"""Extreme-point machinery: the saturated-neighborhood criterion, an
independent tight-constraint rank oracle, explicit splitting of non-extreme
points, exhaustive vertex enumeration on the {0, 1/2, 1} grid, convex
decomposition into vertices, and the two conjecture scans.

A member A is extreme iff every fractional entry (0 < a_ij < 1, positions
taken unordered with i <= j) has a minimal saturated neighborhood and no two
fractional entries share one.  The rank oracle rephrases extremity as "the
only symmetric perturbation vanishing on zero entries and preserving every
saturated sum is zero" and the two are cross-checked exhaustively in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    CapExceededError,
    InternalInvariantViolation,
    IsExtremeError,
    NotMemberError,
)
from .matrices import (
    EXHAUSTIVE_CAP,
    HALF,
    ONE,
    ZERO,
    IndexSet,
    SymMatrix,
)
from .membership import (
    _check_cap,
    _verdict_from_sums,
    check_Um_bruteforce,
    principal_sums_by_mask,
)
from .saturation import (
    _family_from_sums,
    _min_over_family,
    _require_member,
    verdict_and_family,
)

AMBIENTS = ("Um", "UM")  # lower polytope / saturated slice


@dataclass(frozen=True)
class MissingNeighborhood:
    """A fractional entry lies in no saturated index set."""

    position: tuple


@dataclass(frozen=True)
class DuplicateNeighborhood:
    """Two fractional entries share their minimal saturated neighborhood."""

    first: tuple
    second: tuple


@dataclass(frozen=True)
class ExtremityReport:
    extreme: bool
    ambient: str
    fractional_entries: tuple
    neighborhood_map: dict
    failure: Optional[object]


@dataclass(frozen=True)
class ConvexCombination:
    """Weighted vertices with weights in (0, 1] summing to 1 that reproduce
    the decomposed matrix exactly."""

    terms: tuple  # ((weight, vertex), ...) sorted by vertex entries

    def total_weight(self) -> Fraction:
        return sum((w for w, _ in self.terms), ZERO)

    def reconstruct(self) -> SymMatrix:
        m = self.terms[0][1].m
        acc = [[ZERO] * m for _ in range(m)]
        for weight, vertex in self.terms:
            for i in range(m):
                row = vertex.entries[i]
                for j in range(m):
                    acc[i][j] += weight * row[j]
        return SymMatrix(acc)


@dataclass(frozen=True)
class ScanReport:
    m: int
    grid_count: int
    member_count: int
    upper_member_count: int
    conjecture1_counterexamples: tuple
    conjecture2_counterexamples: tuple


def _check_ambient(ambient: str):
    if ambient not in AMBIENTS:
        raise ValueError("ambient must be one of %r, got %r" % (AMBIENTS, ambient))


def _fractional_positions(A: SymMatrix):
    return [
        (i, j)
        for i in range(1, A.m + 1)
        for j in range(i, A.m + 1)
        if 0 < A.entries[i - 1][j - 1] < 1
    ]


def is_extreme_criterion(
    A: SymMatrix,
    ambient: str = "Um",
    cap: int = EXHAUSTIVE_CAP,
    verdict=None,
    family=None,
) -> ExtremityReport:
    """Decide extremity by the saturated-neighborhood criterion.

    For the saturated ambient the total sum is verified first; the criterion
    itself is the same because the saturated slice's extreme points are
    exactly its members that are extreme in the lower polytope.

    `verdict` / `family` may carry a precomputed membership verdict and
    saturated family for A (enumeration callers reuse them across tests).
    """
    _check_ambient(ambient)
    family = _require_member(A, cap, ambient, verdict, family)

    positions = _fractional_positions(A)
    neighborhood_map = {}
    failure = None
    for pos in positions:
        found = _min_over_family(family, pos[0], pos[1])
        neighborhood_map[pos] = found
        if found is None and failure is None:
            failure = MissingNeighborhood(pos)
    if failure is None:
        first_owner = {}
        for pos in positions:
            nbhd = neighborhood_map[pos]
            if nbhd in first_owner:
                failure = DuplicateNeighborhood(first_owner[nbhd], pos)
                break
            first_owner[nbhd] = pos
    return ExtremityReport(
        extreme=failure is None,
        ambient=ambient,
        fractional_entries=tuple(positions),
        neighborhood_map=neighborhood_map,
        failure=failure,
    )


def _rank(rows, ncols: int) -> int:
    """Rank of an integer-coefficient system by exact Gaussian elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for r in range(rank + 1, len(work)):
            factor = work[r][col]
            if factor:
                ratio = factor / lead
                work[r] = [x - ratio * y for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def is_extreme_nullspace(
    A: SymMatrix,
    ambient: str = "Um",
    cap: int = EXHAUSTIVE_CAP,
    verdict=None,
    family=None,
) -> bool:
    """Independent extremity oracle via the tight-constraint system.

    A symmetric perturbation D is feasible in both directions iff it vanishes
    on zero entries and keeps every saturated sum unchanged; A is extreme iff
    that forces D = 0.  Zero entries pin their own coordinates, so the system
    reduces to the nonzero positions with one row per saturated set (a pair
    position inside the set contributes coefficient 2, a diagonal position 1).
    For the saturated ambient the full-set constraint is already a saturated
    set of any member, so the same system decides both ambients.
    """
    _check_ambient(ambient)
    family = _require_member(A, cap, ambient, verdict, family)

    positions = [
        (i, j)
        for i in range(1, A.m + 1)
        for j in range(i, A.m + 1)
        if A.entries[i - 1][j - 1] != 0
    ]
    if not positions:
        return True  # every coordinate pinned at zero
    rows = []
    for alpha in family:
        members = alpha.members
        row = [
            (1 if i == j else 2) if (i in members and j in members) else 0
            for (i, j) in positions
        ]
        if any(row):
            rows.append(row)
    return _rank(rows, len(positions)) == len(positions)


def _position_mask(i: int, j: int) -> int:
    return (1 << (i - 1)) | (1 << (j - 1))


def _perturb(A: SymMatrix, deltas: dict) -> SymMatrix:
    grid = [list(row) for row in A.entries]
    for (i, j), delta in deltas.items():
        grid[i - 1][j - 1] += delta
        if i != j:
            grid[j - 1][i - 1] += delta
    return SymMatrix(grid)


def split_nonextreme(
    A: SymMatrix, cap: int = EXHAUSTIVE_CAP, report: Optional[ExtremityReport] = None
):
    """Write a non-extreme member as the midpoint of two distinct members.

    Returns (A1, A2, eps0) with 2A = A1 + A2.  The perturbation follows the
    failure witnessed by the criterion report:

    * MissingNeighborhood at one position: that entry moves by +-eps0, where
      eps0 is half the largest value keeping every strict inequality strict.
    * DuplicateNeighborhood at two positions: the entries move oppositely by
      2*eps0/c each (c = 1 for a diagonal position, 2 off-diagonal), so every
      subset containing both positions keeps its sum and subsets containing
      exactly one change by +-2*eps0.  For two off-diagonal entries this is
      the plain (+eps0, -eps0) swap.
    """
    m = A.m
    _check_cap(m, cap)
    sums, L = principal_sums_by_mask(A.entries)
    verdict = _verdict_from_sums(A, sums, L)
    if not verdict.member:
        raise NotMemberError(
            "cannot split a non-member", certificate=verdict.certificate
        )
    if report is None:
        report = is_extreme_criterion(
            A, "Um", cap=cap, verdict=verdict, family=_family_from_sums(sums, L, m)
        )
    if report.extreme:
        raise IsExtremeError("matrix is extreme; nothing to split")
    failure = report.failure

    if isinstance(failure, MissingNeighborhood):
        i, j = failure.position
        coeff = 1 if i == j else 2
        value = A.entry(i, j)
        bounds = [value, 1 - value]
        need = _position_mask(i, j)
        low = min(
            L * mask.bit_count() - sums[mask]
            for mask in range(need, 1 << m)
            if mask & need == need
        )
        if low <= 0:
            raise InternalInvariantViolation(
                "saturated set found for an entry reported neighborhood-free"
            )
        bounds.append(Fraction(low, coeff * L))
        eps0 = min(bounds) / 2
        plus = _perturb(A, {(i, j): eps0})
        minus = _perturb(A, {(i, j): -eps0})
    elif isinstance(failure, DuplicateNeighborhood):
        pos1, pos2 = failure.first, failure.second
        c1 = 1 if pos1[0] == pos1[1] else 2
        c2 = 1 if pos2[0] == pos2[1] else 2
        a1 = A.entry(*pos1)
        a2 = A.entry(*pos2)
        bounds = [
            Fraction(c1) * min(a1, 1 - a1) / 2,
            Fraction(c2) * min(a2, 1 - a2) / 2,
        ]
        need1 = _position_mask(*pos1)
        need2 = _position_mask(*pos2)
        # subsets holding both positions or neither keep their sum under the
        # balanced perturbation; a subset holding exactly one always exists
        low = min(
            L * mask.bit_count() - sums[mask]
            for mask in range(1, 1 << m)
            if (mask & need1 == need1) != (mask & need2 == need2)
        )
        if low <= 0:
            raise InternalInvariantViolation(
                "saturated set contains exactly one of two entries sharing "
                "a minimal neighborhood"
            )
        bounds.append(Fraction(low, 2 * L))
        eps0 = min(bounds) / 2
        u1 = 2 * eps0 / c1
        u2 = 2 * eps0 / c2
        plus = _perturb(A, {pos1: u1, pos2: -u2})
        minus = _perturb(A, {pos1: -u1, pos2: u2})
    else:
        raise InternalInvariantViolation("non-extreme report carries no failure")

    if eps0 <= 0:
        raise InternalInvariantViolation("degenerate split step")
    for candidate in (plus, minus):
        if not check_Um_bruteforce(candidate, cap=cap).member:
            raise InternalInvariantViolation("split output left the polytope")
    return plus, minus, eps0


def grid_matrices(m: int):
    """All symmetric matrices with diagonal in {0,1}, off-diagonal in {0,1/2,1}.

    Every extreme point of the order-m polytope lies on this grid, which makes
    exhaustive vertex enumeration finite and complete.
    """
    positions = [(i, j) for i in range(m) for j in range(i, m)]
    choices = [
        (ZERO, ONE) if i == j else (ZERO, HALF, ONE) for (i, j) in positions
    ]
    for combo in itertools.product(*choices):
        grid = [[ZERO] * m for _ in range(m)]
        for (i, j), value in zip(positions, combo):
            grid[i][j] = value
            grid[j][i] = value
        yield SymMatrix(grid)


def grid_size(m: int) -> int:
    return 2**m * 3 ** (m * (m - 1) // 2)


def scan_grid_size(m: int) -> int:
    return 3 ** (m * (m + 1) // 2)


def _scan_candidates(m: int):
    # the scan universe is wider than the vertex grid: diagonals also range
    # over {0, 1/2, 1}, so the grid-membership clause of each conjecture is
    # itself under test rather than assumed
    positions = [(i, j) for i in range(m) for j in range(i, m)]
    for combo in itertools.product((ZERO, HALF, ONE), repeat=len(positions)):
        grid = [[ZERO] * m for _ in range(m)]
        for (i, j), value in zip(positions, combo):
            grid[i][j] = value
            grid[j][i] = value
        yield SymMatrix(grid)


def enumerate_extreme(m: int, ambient: str = "Um", max_order: int = 4):
    """All extreme points of the ambient polytope, in lexicographic entry order.

    Completeness rests on the grid restriction of extreme points; soundness on
    the neighborhood criterion.  Refuses m > max_order (the grid has
    2^m * 3^(m(m-1)/2) candidates).
    """
    _check_ambient(ambient)
    if m > max_order:
        raise CapExceededError(
            "order %d exceeds the enumeration cap %d (grid size %d)"
            % (m, max_order, grid_size(m))
        )
    out = []
    for A in grid_matrices(m):
        verdict, family = verdict_and_family(A)
        if not verdict.member:
            continue
        if ambient == "UM" and verdict.total_sum != m:
            continue
        if is_extreme_criterion(A, ambient, verdict=verdict, family=family).extreme:
            out.append(A)
    out.sort(key=lambda M: M.entries)
    return out


def _max_step(M: SymMatrix, direction, sign: int, table_M, table_D) -> Fraction:
    """Largest t with M + sign*t*direction still a member (direction
    symmetric, sign +-1); table_M and table_D are the principal_sums_by_mask
    tables of M and of the direction."""
    m = M.m
    bounds = []
    for i in range(m):
        for j in range(i, m):
            d = sign * direction[i][j]
            if d < 0:
                bounds.append(M.entries[i][j] / -d)
    sums_M, L_M = table_M
    delta, L_D = table_D
    # the tightest subset bound min margin/ds over ds > 0, found by integer
    # cross-multiplication; in matrix units it is (num / L_M) / (den / L_D)
    num = den = None
    for mask in range(1, 1 << m):
        ds = sign * delta[mask]
        if ds > 0:
            margin = L_M * mask.bit_count() - sums_M[mask]
            if num is None or margin * den < num * ds:
                num, den = margin, ds
    if num is not None:
        bounds.append(Fraction(num * L_D, den * L_M))
    if not bounds:
        raise InternalInvariantViolation("unbounded direction in a bounded polytope")
    step = min(bounds)
    if step <= 0:
        raise InternalInvariantViolation("non-positive step along a feasible split")
    return step


def _shift(M: SymMatrix, direction, t: Fraction) -> SymMatrix:
    return SymMatrix(
        [
            [M.entries[i][j] + t * direction[i][j] for j in range(M.m)]
            for i in range(M.m)
        ]
    )


def krein_milman_decompose(
    A: SymMatrix, ambient: str = "Um", cap: int = EXHAUSTIVE_CAP
) -> ConvexCombination:
    """Exact convex decomposition of a member into extreme points.

    Peels greedily: a non-extreme point is pushed to both ends of the feasible
    segment along its split direction (each end gains at least one newly
    tight constraint, which bounds the recursion), and the two boundary
    points are decomposed recursively.  The +eps side is peeled first and
    terms are merged by vertex, so output is deterministic.
    """
    _check_ambient(ambient)
    max_depth = (1 << A.m) + A.m * (A.m + 1) // 2 + 1

    def peel(M, depth):
        if depth > max_depth:
            raise InternalInvariantViolation("vertex peeling failed to terminate")
        report = is_extreme_criterion(M, ambient, cap=cap)
        if report.extreme:
            return {M: ONE}
        plus, _minus, eps0 = split_nonextreme(M, cap=cap, report=report)
        direction = [
            [(plus.entries[i][j] - M.entries[i][j]) / eps0 for j in range(M.m)]
            for i in range(M.m)
        ]
        table_M = principal_sums_by_mask(M.entries)
        table_D = principal_sums_by_mask(direction)
        t_plus = _max_step(M, direction, 1, table_M, table_D)
        t_minus = _max_step(M, direction, -1, table_M, table_D)
        high = _shift(M, direction, t_plus)
        low = _shift(M, direction, -t_minus)
        weight_high = t_minus / (t_plus + t_minus)
        merged = {}
        for vertex, w in peel(high, depth + 1).items():
            merged[vertex] = merged.get(vertex, ZERO) + weight_high * w
        for vertex, w in peel(low, depth + 1).items():
            merged[vertex] = merged.get(vertex, ZERO) + (1 - weight_high) * w
        return merged

    terms = peel(A, 0)
    ordered = tuple(
        (weight, vertex)
        for vertex, weight in sorted(terms.items(), key=lambda kv: kv[0].entries)
    )
    combo = ConvexCombination(ordered)
    if combo.total_weight() != 1 or combo.reconstruct() != A:
        raise InternalInvariantViolation("vertex decomposition failed to reconstruct")
    return combo


def _half_grid_on(A: SymMatrix, alpha: IndexSet) -> bool:
    members = sorted(alpha.members)
    for pos, i in enumerate(members):
        if A.entries[i - 1][i - 1] != 0:
            return False
        for j in members[pos + 1 :]:
            if A.entries[i - 1][j - 1] not in (ZERO, HALF):
                return False
    return True


def conjecture_scan(m: int, max_order: int = 4) -> ScanReport:
    """Exhaustively compare the neighborhood criterion against the two
    conjectured entry-level characterizations over every order-m matrix with
    entries in {0, 1/2, 1} (3^(m(m+1)/2) candidates).

    Conjecture 1 (lower polytope): extreme iff the matrix is on the vertex
    grid (diagonal in {0,1}), every 1/2 entry has a saturated neighborhood,
    and no saturated principal submatrix is a half-grid (zero diagonal,
    entries in {0, 1/2}).  Conjecture 2 is the analogue for the saturated
    slice, where the neighborhood clause is automatic.  A found
    counterexample is returned, never suppressed.
    """
    if m > max_order:
        raise CapExceededError(
            "order %d exceeds the scan cap %d (grid size %d)"
            % (m, max_order, scan_grid_size(m))
        )
    grid_count = member_count = upper_count = 0
    c1_bad = []
    c2_bad = []
    for A in _scan_candidates(m):
        grid_count += 1
        verdict, family = verdict_and_family(A)
        if not verdict.member:
            continue
        member_count += 1
        report = is_extreme_criterion(A, "Um", verdict=verdict, family=family)
        on_grid = all(A.entries[i][i] in (ZERO, ONE) for i in range(m))
        halves = [
            (i, j)
            for i in range(1, m + 1)
            for j in range(i, m + 1)
            if A.entries[i - 1][j - 1] == HALF
        ]
        every_half_covered = all(
            any(i in alpha and j in alpha for alpha in family) for (i, j) in halves
        )
        no_half_grid_block = not any(_half_grid_on(A, alpha) for alpha in family)
        if (on_grid and every_half_covered and no_half_grid_block) != report.extreme:
            c1_bad.append(A)
        if verdict.total_sum == m:
            upper_count += 1
            if (on_grid and no_half_grid_block) != report.extreme:
                c2_bad.append(A)
    return ScanReport(
        m=m,
        grid_count=grid_count,
        member_count=member_count,
        upper_member_count=upper_count,
        conjecture1_counterexamples=tuple(c1_bad),
        conjecture2_counterexamples=tuple(c2_bad),
    )
