"""Exact symmetric-matrix foundations: index sets, permutations, block sums.

Every scalar is a `fractions.Fraction`; floats are rejected at input so all
downstream computation is exact (the polytope criteria implemented elsewhere
are equality-sensitive, so rounding anywhere would break them).

Index sets and entry positions are 1-based throughout the public API, as is
customary for matrix indices; the raw `.entries` grids are plain 0-based
tuples for direct iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AsymmetricInputError,
    InvalidIndexSetError,
    InvalidPartitionError,
    NegativeEntryError,
    NotExtremeError,
    OrderMismatchError,
    InternalInvariantViolation,
)

HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)

# Exhaustive subset operations refuse orders above this unless told otherwise.
# The principal-sum kernel does one integer addition per subset; at the cap a
# brute-force check holds two lists of 2^20 ints (about 90 MB) and takes about
# a third of a second on a 2-core x86 machine with Python 3.11.
EXHAUSTIVE_CAP = 20


def as_fraction(value):
    """Coerce ints, rational strings, and Fractions to Fraction.

    Floats are rejected: a float already lost exactness upstream and would
    silently poison equality tests.
    """
    if isinstance(value, float):
        raise TypeError(
            "float %r rejected: use Fraction, int, or a string like '1/2'" % value
        )
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class IndexSet:
    """Subset of {1, ..., m} with an explicit universe size m."""

    __slots__ = ("members", "m")

    def __init__(self, members, m):
        members = frozenset(members)
        if not isinstance(m, int) or m < 0:
            raise InvalidIndexSetError("universe size must be a nonnegative int")
        for i in members:
            if not isinstance(i, int) or not 1 <= i <= m:
                raise InvalidIndexSetError(
                    "index %r outside universe {1..%d}" % (i, m)
                )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("IndexSet is immutable")

    def _check_same_universe(self, other):
        if self.m != other.m:
            raise InvalidIndexSetError(
                "universe mismatch: %d vs %d" % (self.m, other.m)
            )

    def union(self, other):
        self._check_same_universe(other)
        return IndexSet(self.members | other.members, self.m)

    def intersection(self, other):
        self._check_same_universe(other)
        return IndexSet(self.members & other.members, self.m)

    def complement(self):
        return IndexSet(set(range(1, self.m + 1)) - self.members, self.m)

    def issubset(self, other):
        self._check_same_universe(other)
        return self.members <= other.members

    def sort_key(self):
        """Sort by cardinality, then lexicographically (smallest index first)."""
        return (len(self.members), tuple(sorted(self.members)))

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __contains__(self, i):
        return i in self.members

    def __eq__(self, other):
        return (
            isinstance(other, IndexSet)
            and self.m == other.m
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.members, self.m))

    def __repr__(self):
        return "IndexSet(%s, m=%d)" % (sorted(self.members), self.m)

    def __str__(self):
        return "{%s}" % ",".join(str(i) for i in sorted(self.members))


class Permutation:
    """Bijection on {1, ..., m}, stored as the image tuple (pi(1), ..., pi(m))."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(image)
        m = len(image)
        if sorted(image) != list(range(1, m + 1)):
            raise InvalidIndexSetError("not a bijection on {1..%d}: %r" % (m, image))
        object.__setattr__(self, "image", image)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, m):
        return cls(range(1, m + 1))

    @property
    def m(self):
        return len(self.image)

    def __call__(self, i):
        return self.image[i - 1]

    def inverse(self):
        inv = [0] * self.m
        for i, target in enumerate(self.image, start=1):
            inv[target - 1] = i
        return Permutation(inv)

    def compose(self, other):
        """Return self∘other, the permutation i -> self(other(i))."""
        if self.m != other.m:
            raise OrderMismatchError("cannot compose orders %d and %d" % (self.m, other.m))
        return Permutation(self(other(i)) for i in range(1, self.m + 1))

    def image_set(self, alpha: IndexSet) -> IndexSet:
        if alpha.m != self.m:
            raise OrderMismatchError("index set universe differs from permutation order")
        return IndexSet({self(i) for i in alpha}, self.m)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return "Permutation(%r)" % (self.image,)


class SymMatrix:
    """Symmetric m x m matrix with nonnegative exact rational entries.

    Immutable value type: hashable, comparable, safe to share.  Symmetry and
    nonnegativity are rejected at construction, never assumed.
    """

    __slots__ = ("entries",)

    def __init__(self, rows):
        grid = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        m = len(grid)
        for row in grid:
            if len(row) != m:
                raise AsymmetricInputError(
                    "matrix must be square, got a row of length %d in an order-%d matrix"
                    % (len(row), m)
                )
        for i in range(m):
            for j in range(i, m):
                if grid[i][j] != grid[j][i]:
                    raise AsymmetricInputError(
                        "entries (%d,%d)=%s and (%d,%d)=%s differ"
                        % (i + 1, j + 1, grid[i][j], j + 1, i + 1, grid[j][i])
                    )
                if grid[i][j] < 0:
                    raise NegativeEntryError(
                        "entry (%d,%d)=%s is negative" % (i + 1, j + 1, grid[i][j])
                    )
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @classmethod
    def zero(cls, m):
        return cls([[0] * m for _ in range(m)])

    @classmethod
    def identity(cls, m):
        return cls([[1 if i == j else 0 for j in range(m)] for i in range(m)])

    @property
    def m(self):
        return len(self.entries)

    def entry(self, i, j):
        """1-based entry access."""
        return self.entries[i - 1][j - 1]

    def total_sum(self):
        return sum(sum(row, ZERO) for row in self.entries)

    def row_sum(self, i):
        return sum(self.entries[i - 1], ZERO)

    def is_zero_row(self, i):
        return all(v == 0 for v in self.entries[i - 1])

    def full_set(self):
        return IndexSet(range(1, self.m + 1), self.m)

    def to_lists(self):
        return [list(row) for row in self.entries]

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        rows = "; ".join(
            " ".join(str(v) for v in row) for row in self.entries
        )
        return "SymMatrix[%s]" % rows


@dataclass(frozen=True)
class CanonicalForm:
    """Permutation splitting an extreme matrix into a saturated core plus zero rows.

    Applying `permutation` to the original matrix puts `core` (order
    `saturated_order`, total sum equal to its order) in the top-left block and
    zeros everywhere else.
    """

    permutation: Permutation
    saturated_order: int
    core: SymMatrix


def _members_of(alpha, m):
    """Validated sorted member tuple from an IndexSet or plain iterable."""
    if isinstance(alpha, IndexSet):
        if alpha.m != m:
            raise InvalidIndexSetError(
                "index set universe %d differs from matrix order %d" % (alpha.m, m)
            )
        return tuple(sorted(alpha.members))
    members = tuple(sorted(set(alpha)))
    for i in members:
        if not isinstance(i, int) or not 1 <= i <= m:
            raise InvalidIndexSetError("index %r outside {1..%d}" % (i, m))
    return members


def principal_sum(A: SymMatrix, alpha) -> Fraction:
    """Sum of all entries a_ij with both i and j in alpha (0 for empty alpha)."""
    members = _members_of(alpha, A.m)
    total = ZERO
    for pos, i in enumerate(members):
        row = A.entries[i - 1]
        total += row[i - 1]
        for j in members[pos + 1 :]:
            total += 2 * row[j - 1]
    return total


def principal_submatrix(A: SymMatrix, alpha) -> SymMatrix:
    """Submatrix on the rows/columns of alpha, relabeled in increasing order."""
    members = _members_of(alpha, A.m)
    if not members:
        raise InvalidIndexSetError("principal submatrix needs a nonempty index set")
    return SymMatrix(
        [[A.entries[i - 1][j - 1] for j in members] for i in members]
    )


def permute(A: SymMatrix, pi: Permutation) -> SymMatrix:
    """Relabeled matrix B with b_ij = a_{pi(i) pi(j)}."""
    if pi.m != A.m:
        raise OrderMismatchError(
            "permutation order %d differs from matrix order %d" % (pi.m, A.m)
        )
    return SymMatrix(
        [
            [A.entries[pi(i) - 1][pi(j) - 1] for j in range(1, A.m + 1)]
            for i in range(1, A.m + 1)
        ]
    )


def direct_sum(A: SymMatrix, B: SymMatrix, alpha, beta) -> SymMatrix:
    """Block-diagonal combination: A on alpha x alpha, B on beta x beta, 0 across.

    alpha and beta must partition {1, ..., |alpha|+|beta|} with |alpha| = order(A)
    and |beta| = order(B); the k-th smallest index of alpha carries row k of A.
    """
    m = A.m + B.m
    a_members = _members_of(alpha, m)
    b_members = _members_of(beta, m)
    if (
        len(a_members) != A.m
        or len(b_members) != B.m
        or set(a_members) & set(b_members)
        or set(a_members) | set(b_members) != set(range(1, m + 1))
    ):
        raise InvalidPartitionError(
            "placement must partition {1..%d} into blocks of sizes %d and %d"
            % (m, A.m, B.m)
        )
    a_pos = {idx: k for k, idx in enumerate(a_members)}
    b_pos = {idx: k for k, idx in enumerate(b_members)}
    grid = [[ZERO] * m for _ in range(m)]
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i in a_pos and j in a_pos:
                grid[i - 1][j - 1] = A.entries[a_pos[i]][a_pos[j]]
            elif i in b_pos and j in b_pos:
                grid[i - 1][j - 1] = B.entries[b_pos[i]][b_pos[j]]
    return SymMatrix(grid)


def is_grid_matrix(A: SymMatrix) -> bool:
    """Entries on the {0, 1/2, 1} grid with diagonal restricted to {0, 1}."""
    for i in range(A.m):
        if A.entries[i][i] not in (ZERO, ONE):
            return False
        for j in range(i + 1, A.m):
            if A.entries[i][j] not in (ZERO, HALF, ONE):
                return False
    return True


def is_half_grid_matrix(A: SymMatrix) -> bool:
    """Zero diagonal and off-diagonal entries restricted to {0, 1/2}."""
    for i in range(A.m):
        if A.entries[i][i] != 0:
            return False
        for j in range(i + 1, A.m):
            if A.entries[i][j] not in (ZERO, HALF):
                return False
    return True


def _extend_extreme(vertex: SymMatrix) -> SymMatrix:
    # Border construction for an extreme matrix: the appended index m+1 gets
    # 1/2 against every all-zero row, 0 against the saturated part, 1 in the
    # corner.  Adds exactly 1 to every previously-deficient row group, making
    # the result saturated of order m+1 (and again extreme).
    m = vertex.m
    grid = [list(row) + [ZERO] for row in vertex.entries]
    border = [
        HALF if vertex.is_zero_row(i) else ZERO for i in range(1, m + 1)
    ]
    grid.append(border + [ONE])
    for i in range(m):
        grid[i][m] = border[i]
    return SymMatrix(grid)


def extend_to_saturated(A: SymMatrix, cap: int = EXHAUSTIVE_CAP) -> SymMatrix:
    """Embed A (a member of the subset-sum polytope) as the leading principal
    submatrix of a saturated member of order m+1.

    The extension splits A into a convex combination of extreme points,
    extends each vertex by the 1/2-border construction, and recombines with
    the same weights, so the output is deterministic and saturated by
    construction.  Raises NotMemberError for non-members.
    """
    from .extremity import krein_milman_decompose

    combo = krein_milman_decompose(A, "Um", cap=cap)
    size = A.m + 1
    acc = [[ZERO] * size for _ in range(size)]
    for weight, vertex in combo.terms:
        ext = _extend_extreme(vertex)
        for i in range(size):
            row = ext.entries[i]
            for j in range(size):
                acc[i][j] += weight * row[j]
    return SymMatrix(acc)


def canonical_form(A: SymMatrix, witness=None, cap: int = EXHAUSTIVE_CAP) -> CanonicalForm:
    """Split an extreme matrix into its saturated core plus all-zero rows.

    `witness` may be a precomputed ExtremityReport for A; otherwise extremity
    is verified here (the operation refuses unverified input).  The chosen
    permutation is stable: nonzero rows keep their relative order, zero rows
    move to the bottom in their original order.
    """
    from .extremity import is_extreme_criterion

    if witness is None:
        witness = is_extreme_criterion(A, "Um", cap=cap)
    if not witness.extreme:
        raise NotExtremeError("matrix is not an extreme point; no canonical form")

    total = A.total_sum()
    if total.denominator != 1:
        raise InternalInvariantViolation(
            "extreme matrix with non-integer total sum %s" % total
        )
    k = int(total)
    nonzero = [i for i in range(1, A.m + 1) if not A.is_zero_row(i)]
    zero = [i for i in range(1, A.m + 1) if A.is_zero_row(i)]
    if len(nonzero) != k:
        raise InternalInvariantViolation(
            "extreme matrix: %d nonzero rows but total sum %d" % (len(nonzero), k)
        )
    pi = Permutation(nonzero + zero)
    permuted = permute(A, pi)
    for i in range(k, A.m):
        if not permuted.is_zero_row(i + 1):
            raise InternalInvariantViolation("canonical permutation left a nonzero tail row")
    core = (
        principal_submatrix(A, IndexSet(nonzero, A.m)) if nonzero else SymMatrix(())
    )
    return CanonicalForm(permutation=pi, saturated_order=k, core=core)
