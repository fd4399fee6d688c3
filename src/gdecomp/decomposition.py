"""Solving (X + X^t)/2 = A in stochastic or substochastic matrices.

Membership in the saturated polytope (resp. the lower polytope) is necessary
and sufficient for a stochastic (resp. substochastic) solution.  Two
constructions are provided: a flow-based solver that works for every member
and yields a violating-subset certificate on failure, and the inductive
constructor for extreme saturated matrices that recurses on a saturated
submatrix of order m-1.  A verifier closes the loop on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DiagonalOverflowError,
    InternalInvariantViolation,
    NotExtremeError,
    NotMemberError,
    OrderMismatchError,
)
from .flow import FlowNetwork, MaxFlowResult, build_flow_network, max_flow
from .matrices import (
    EXHAUSTIVE_CAP,
    ONE,
    ZERO,
    IndexSet,
    SymMatrix,
    as_fraction,
    canonical_form,
)
from .membership import TOTAL_SUM_MISMATCH, check_Um_upper
from .extremity import is_extreme_criterion
from .saturation import enumerate_saturated, verdict_and_family

__all__ = [
    "DecompResult",
    "FlowNetwork",
    "MaxFlowResult",
    "build_flow_network",
    "max_flow",
    "g_decompose",
    "g_decompose_extreme_inductive",
    "g_decompose_extreme_substochastic",
    "verify_decomposition",
]

MODES = ("stochastic", "substochastic")

SOLVED = "solved"
NOT_MEMBER = "not-member"


@dataclass(frozen=True)
class DecompResult:
    """Either a decomposing matrix X (not necessarily symmetric) or a
    certificate of non-membership: a violating subset, or a total-sum
    mismatch in stochastic mode."""

    status: str
    mode: str
    X: Optional[tuple] = None  # tuple of tuples of Fraction
    certificate: Optional[IndexSet] = None
    reason: Optional[str] = None


def _check_mode(mode: str):
    if mode not in MODES:
        raise ValueError("mode must be one of %r, got %r" % (MODES, mode))


def _assemble_from_flow(A: SymMatrix, result: MaxFlowResult) -> tuple:
    # x_ii = a_ii; for i != j the flow sent from pair {i,j} into vertex i
    # becomes x_ij, so x_ij + x_ji = 2 a_ij and row i's off-diagonal mass is
    # exactly the inflow of vertex i, bounded by 1 - a_ii.
    m = A.m
    X = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        X[i][i] = A.entries[i][i]
    for ((i, j), endpoint), value in result.pair_to_vertex.items():
        other = j if endpoint == i else i
        X[endpoint - 1][other - 1] = value
    return tuple(tuple(row) for row in X)


def g_decompose(A: SymMatrix, mode: str = "stochastic") -> DecompResult:
    """Solve (X + X^t)/2 = A with X stochastic or substochastic, exactly.

    Stochastic mode returns a total-sum-mismatch certificate when the entry
    sum differs from m, otherwise both modes run the max-flow reduction: the
    equation is solvable iff the flow saturates every source arc, and when it
    does not, the vertex nodes on the source side of a min cut form a
    violating subset.  The returned X depends on the (deterministic)
    augmenting order; any X passing the verifier is a valid answer.
    """
    _check_mode(mode)
    m = A.m
    if mode == "stochastic" and A.total_sum() != m:
        return DecompResult(
            status=NOT_MEMBER, mode=mode, reason=TOTAL_SUM_MISMATCH
        )
    try:
        net = build_flow_network(A)
    except DiagonalOverflowError as exc:
        return DecompResult(
            status=NOT_MEMBER,
            mode=mode,
            certificate=IndexSet({exc.index}, m),
            reason="violating-subset",
        )
    result = max_flow(net)
    if result.value != net.source_capacity_total:
        certificate = IndexSet(result.cut_vertices, m)
        return DecompResult(
            status=NOT_MEMBER,
            mode=mode,
            certificate=certificate,
            reason="violating-subset",
        )
    X = _assemble_from_flow(A, result)
    if not verify_decomposition(A, X, mode):
        raise InternalInvariantViolation("flow solver produced an invalid X")
    return DecompResult(status=SOLVED, mode=mode, X=X)


def _solve_extreme(A: SymMatrix) -> list:
    """Stochastic X for an extreme saturated matrix, by recursion on a
    saturated principal submatrix of order m-1 (lexicographically smallest).

    When no such submatrix exists the matrix itself is stochastic (asserted:
    this is inherited theory, so a failed row sum is a hard error).  The
    excluded index i0 satisfies a_{i0 i0} + 2 * sum_j a_{i0 j} = 1, leaving
    two exact patterns: a 1 on the diagonal (row i0 of X gets e_{i0}) or a
    single off-diagonal 1/2 at column j0 (row i0 of X gets e_{j0} and column
    i0 stays zero).
    """
    m = A.m
    family = enumerate_saturated(A)
    smaller = [alpha for alpha in family if len(alpha) == m - 1]
    if not smaller:
        for i in range(1, m + 1):
            if A.row_sum(i) != 1:
                raise InternalInvariantViolation(
                    "extreme saturated matrix without order-(m-1) saturated "
                    "submatrix must be stochastic; row %d sums to %s"
                    % (i, A.row_sum(i))
                )
        return [list(row) for row in A.entries]

    alpha = min(smaller, key=IndexSet.sort_key)
    members = sorted(alpha.members)
    (i0,) = set(range(1, m + 1)) - alpha.members
    sub = SymMatrix(
        [[A.entries[i - 1][j - 1] for j in members] for i in members]
    )
    X_sub = _solve_extreme(sub)

    X = [[ZERO] * m for _ in range(m)]
    for a, i in enumerate(members):
        for b, j in enumerate(members):
            X[i - 1][j - 1] = X_sub[a][b]

    row = A.entries[i0 - 1]
    if row[i0 - 1] == 1 and all(row[j - 1] == 0 for j in members):
        X[i0 - 1][i0 - 1] = ONE  # isolated saturated diagonal
    else:
        halves = [j for j in members if row[j - 1] == Fraction(1, 2)]
        rest_zero = all(
            row[j - 1] == 0 for j in range(1, m + 1) if j not in halves
        )
        if len(halves) != 1 or not rest_zero:
            raise InternalInvariantViolation(
                "extreme saturated matrix violates the boundary-row dichotomy"
            )
        X[i0 - 1][halves[0] - 1] = ONE
    return X


def g_decompose_extreme_inductive(
    A: SymMatrix, cap: int = EXHAUSTIVE_CAP
) -> DecompResult:
    """Stochastic decomposition of an extreme saturated matrix by the
    inductive construction (verified preconditions; deterministic choices)."""
    verdict = check_Um_upper(A, cap=cap)
    if not verdict.member:
        raise NotMemberError(
            "matrix is not a saturated member",
            certificate=verdict.certificate,
            reason=verdict.reason,
        )
    if not is_extreme_criterion(A, "UM", cap=cap, verdict=verdict).extreme:
        raise NotExtremeError("inductive construction needs an extreme input")
    X = tuple(tuple(row) for row in _solve_extreme(A))
    if not verify_decomposition(A, X, "stochastic"):
        raise InternalInvariantViolation("inductive construction produced an invalid X")
    return DecompResult(status=SOLVED, mode="stochastic", X=X)


def g_decompose_extreme_substochastic(
    A: SymMatrix, cap: int = EXHAUSTIVE_CAP
) -> DecompResult:
    """Substochastic decomposition of an extreme member via its canonical form.

    The saturated core is decomposed by the inductive constructor and the
    result is zero-padded back onto the all-zero rows, which is exactly the
    reduction that carries the stochastic solution to the substochastic case.
    """
    verdict, family = verdict_and_family(A, cap=cap)
    if not verdict.member:
        raise NotMemberError(
            "matrix is not a polytope member", certificate=verdict.certificate
        )
    report = is_extreme_criterion(A, "Um", cap=cap, verdict=verdict, family=family)
    if not report.extreme:
        raise NotExtremeError("inductive construction needs an extreme input")
    form = canonical_form(A, witness=report)
    m = A.m
    X = [[ZERO] * m for _ in range(m)]
    if form.saturated_order:
        core_X = _solve_extreme(form.core)
        members = [i for i in range(1, m + 1) if not A.is_zero_row(i)]
        for a, i in enumerate(members):
            for b, j in enumerate(members):
                X[i - 1][j - 1] = core_X[a][b]
    X = tuple(tuple(row) for row in X)
    if not verify_decomposition(A, X, "substochastic"):
        raise InternalInvariantViolation(
            "canonical-core construction produced an invalid X"
        )
    return DecompResult(status=SOLVED, mode="substochastic", X=X)


def verify_decomposition(A: SymMatrix, X, mode: str = "stochastic") -> bool:
    """Exact check: X >= 0, (X + X^t)/2 = A, and row sums = 1 (stochastic)
    or <= 1 (substochastic)."""
    _check_mode(mode)
    m = A.m
    rows = [tuple(as_fraction(v) for v in row) for row in X]
    if len(rows) != m or any(len(row) != m for row in rows):
        raise OrderMismatchError("X must be an %d x %d matrix" % (m, m))
    for i in range(m):
        total = ZERO
        for j in range(m):
            v = rows[i][j]
            if v < 0:
                return False
            total += v
            if v + rows[j][i] != 2 * A.entries[i][j]:
                return False
        if mode == "stochastic":
            if total != 1:
                return False
        elif total > 1:
            return False
    return True
