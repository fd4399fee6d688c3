"""Quadratic stochastic operators and majorization.

An operator V on the probability simplex is given by m symmetric coefficient
layers:  (Vx)_k = (A^(k) x, x).  V is stochastic iff all coefficients are
nonnegative and the layers sum entrywise to the all-ones matrix.  Doubly
stochastic behaviour in the majorization sense (Vx majorized by x for every
simplex x) forces every layer into the saturated polytope; that necessary
condition is decided exactly here, and the quantified condition itself is
attacked by deterministic exact sampling (a falsifier, never a verifier).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    AsymmetricInputError,
    InternalInvariantViolation,
    LengthMismatchError,
    NotStochasticError,
    OrderMismatchError,
    ParseError,
)
from .formats import format_rational, parse_rational
from .matrices import EXHAUSTIVE_CAP, ONE, ZERO, SymMatrix, as_fraction
from .membership import check_Um_upper
from .sampling import SplitMix64, simplex_lattice_point


class SimplexVector:
    """Exact probability vector: nonnegative rationals summing to 1."""

    __slots__ = ("coordinates",)

    def __init__(self, coordinates):
        coords = tuple(as_fraction(v) for v in coordinates)
        if any(v < 0 for v in coords):
            raise ValueError("simplex coordinates must be nonnegative")
        if sum(coords, ZERO) != 1:
            raise ValueError("simplex coordinates must sum to 1 exactly")
        object.__setattr__(self, "coordinates", coords)

    def __setattr__(self, name, value):
        raise AttributeError("SimplexVector is immutable")

    @property
    def m(self):
        return len(self.coordinates)

    def __iter__(self):
        return iter(self.coordinates)

    def __len__(self):
        return len(self.coordinates)

    def __eq__(self, other):
        return isinstance(other, SimplexVector) and self.coordinates == other.coordinates

    def __hash__(self):
        return hash(self.coordinates)

    def __repr__(self):
        return "SimplexVector(%s)" % (", ".join(str(v) for v in self.coordinates))


class QuadraticOperator:
    """Cubic coefficient array packaged as m symmetric m x m layers.

    Layers may carry negative entries at construction; stochasticity is a
    separate check so that failing operators can still be represented.
    """

    __slots__ = ("layers",)

    def __init__(self, layers):
        packed = tuple(
            tuple(tuple(as_fraction(v) for v in row) for row in layer)
            for layer in layers
        )
        m = len(packed)
        for k, layer in enumerate(packed, start=1):
            if len(layer) != m or any(len(row) != m for row in layer):
                raise OrderMismatchError(
                    "operator of order %d needs %d layers of shape %dx%d" % (m, m, m, m)
                )
            for i in range(m):
                for j in range(i + 1, m):
                    if layer[i][j] != layer[j][i]:
                        raise AsymmetricInputError(
                            "layer %d is not symmetric at (%d,%d)" % (k, i + 1, j + 1)
                        )
        object.__setattr__(self, "layers", packed)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticOperator is immutable")

    @property
    def m(self):
        return len(self.layers)

    def __eq__(self, other):
        return isinstance(other, QuadraticOperator) and self.layers == other.layers

    def __hash__(self):
        return hash(self.layers)

    def __repr__(self):
        return "QuadraticOperator(m=%d)" % self.m


@dataclass(frozen=True)
class QfBoundsResult:
    """Outcome of the quadratic-form bound check x_[m] <= (Ax,x) <= x_[1].

    `confirmed` means no sampled point violated the bounds; when the matrix
    has a violating subset the constructive counterexample (uniform on the
    subset) is returned instead.  `inconclusive` marks the branch where the
    total sum differs from m but every subset constraint holds: a violation
    exists by theory, yet only sampling is available to find one.
    """

    confirmed: bool
    counterexample: Optional[SimplexVector]
    inconclusive: bool
    trials: int


def sort_desc(x: SimplexVector) -> SimplexVector:
    """Coordinates rearranged in non-increasing order."""
    return SimplexVector(sorted(x.coordinates, reverse=True))


def majorizes(y, x) -> bool:
    """True iff y is majorized by x: every top-k partial sum of sorted y is
    bounded by x's and the totals agree exactly."""
    ys = [as_fraction(v) for v in y]
    xs = [as_fraction(v) for v in x]
    if len(ys) != len(xs):
        raise LengthMismatchError("vectors of length %d and %d" % (len(ys), len(xs)))
    ys.sort(reverse=True)
    xs.sort(reverse=True)
    run_y = ZERO
    run_x = ZERO
    for k in range(len(ys) - 1):
        run_y += ys[k]
        run_x += xs[k]
        if run_y > run_x:
            return False
    return sum(ys, ZERO) == sum(xs, ZERO)


def quadratic_form(grid, coords) -> Fraction:
    """(Gx, x) for a symmetric grid G given as rows of rationals."""
    m = len(coords)
    total = ZERO
    for i in range(m):
        row = grid[i]
        total += row[i] * coords[i] * coords[i]
        for j in range(i + 1, m):
            total += 2 * row[j] * coords[i] * coords[j]
    return total


def qo_apply(V: QuadraticOperator, x) -> tuple:
    """Image ((A^(1)x, x), ..., (A^(m)x, x)) as exact rationals."""
    coords = tuple(as_fraction(v) for v in x)
    if len(coords) != V.m:
        raise OrderMismatchError(
            "vector of length %d for an order-%d operator" % (len(coords), V.m)
        )
    return tuple(quadratic_form(layer, coords) for layer in V.layers)


def qo_is_stochastic(V: QuadraticOperator) -> bool:
    """True iff all coefficients are nonnegative and the layers sum to the
    all-ones matrix (exactly the condition for mapping the simplex into
    itself, given symmetric layers)."""
    m = V.m
    for i in range(m):
        for j in range(m):
            total = ZERO
            for layer in V.layers:
                v = layer[i][j]
                if v < 0:
                    return False
                total += v
            if total != 1:
                return False
    return True


def _require_stochastic(V: QuadraticOperator):
    if not qo_is_stochastic(V):
        raise NotStochasticError("operator is not stochastic")


def qo_gds_necessary(V: QuadraticOperator, cap: int = EXHAUSTIVE_CAP) -> bool:
    """Necessary condition for majorization-doubly-stochastic behaviour:
    every coefficient layer lies in the saturated polytope.  Necessary only;
    passing says nothing in the other direction."""
    _require_stochastic(V)
    return all(
        check_Um_upper(SymMatrix(layer), cap=cap).member for layer in V.layers
    )


def qo_gds_sample(
    V: QuadraticOperator, trials: int = 1000, seed: int = 0
) -> Optional[SimplexVector]:
    """Search sampled simplex points for one whose image is not majorized by it.

    Returns the first counterexample or None.  Deterministic in (trials,
    seed); absence of a counterexample is evidence, not proof, since the
    condition quantifies over the whole simplex.
    """
    _require_stochastic(V)
    rng = SplitMix64(seed)
    for _ in range(trials):
        x = simplex_lattice_point(V.m, rng)
        y = qo_apply(V, x)
        if any(v < 0 for v in y) or sum(y, ZERO) != 1:
            raise InternalInvariantViolation(
                "stochastic operator left the simplex"
            )
        if not majorizes(y, x):
            return SimplexVector(x)
    return None


def qf_bounds_certificate(
    A: SymMatrix,
    trials: int = 1000,
    seed: int = 0,
    cap: int = EXHAUSTIVE_CAP,
) -> QfBoundsResult:
    """Check x_[m] <= (Ax, x) <= x_[1] over sampled simplex points.

    For saturated members the bounds are a theorem, so sampling is a
    consistency check and a violation is a hard error.  A violating subset
    alpha yields the constructive counterexample x uniform on alpha, whose
    quadratic form is principal_sum/|alpha|^2 > 1/|alpha| = x_[1].  When only
    the total sum disqualifies the matrix, sampling is the best available
    search and a clean pass is reported as inconclusive confirmation.
    """
    verdict = check_Um_upper(A, cap=cap)
    if not verdict.member and verdict.certificate is not None:
        alpha = verdict.certificate
        size = len(alpha)
        coords = [
            Fraction(1, size) if i in alpha else ZERO for i in range(1, A.m + 1)
        ]
        x = SimplexVector(coords)
        if quadratic_form(A.entries, x.coordinates) <= Fraction(1, size):
            raise InternalInvariantViolation(
                "uniform point on a violating subset did not violate the bound"
            )
        return QfBoundsResult(
            confirmed=False, counterexample=x, inconclusive=False, trials=0
        )

    rng = SplitMix64(seed)
    for _ in range(trials):
        coords = simplex_lattice_point(A.m, rng)
        value = quadratic_form(A.entries, coords)
        top = max(coords)
        bottom = min(coords)
        if not bottom <= value <= top:
            if verdict.member:
                raise InternalInvariantViolation(
                    "bound violated for a saturated member"
                )
            return QfBoundsResult(
                confirmed=False,
                counterexample=SimplexVector(coords),
                inconclusive=False,
                trials=trials,
            )
    return QfBoundsResult(
        confirmed=True,
        counterexample=None,
        inconclusive=not verdict.member,
        trials=trials,
    )


def parse_operator(text) -> QuadraticOperator:
    """Operator from JSON: {"m": <int>, "layers": [<matrix JSON>, ...]}."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    if not isinstance(obj, dict) or "m" not in obj or "layers" not in obj:
        raise ParseError('operator JSON needs keys "m" and "layers"')
    m = obj["m"]
    layers_json = obj["layers"]
    # bool is an int subclass: JSON true/false must not pass as 1/0
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ParseError('"m" must be a positive integer')
    if not isinstance(layers_json, list) or len(layers_json) != m:
        raise ParseError('"layers" must hold exactly %d matrices' % m)
    layers = []
    for layer in layers_json:
        if (
            not isinstance(layer, dict)
            or layer.get("m") != m
            or isinstance(layer.get("m"), bool)
            or not isinstance(layer.get("entries"), list)
            or len(layer["entries"]) != m
        ):
            raise ParseError("each layer must be an order-%d JSON matrix" % m)
        rows = []
        for row in layer["entries"]:
            if not isinstance(row, list) or len(row) != m:
                raise ParseError("layer rows must hold %d entries" % m)
            rows.append(
                [
                    parse_rational(v) if isinstance(v, str) else Fraction(v)
                    if isinstance(v, int) and not isinstance(v, bool)
                    else _reject_entry(v)
                    for v in row
                ]
            )
        layers.append(rows)
    return QuadraticOperator(layers)


def _reject_entry(v):
    raise ParseError("operator entries must be rational strings or integers, got %r" % (v,))


def serialize_operator(V: QuadraticOperator) -> str:
    return json.dumps(
        {
            "m": V.m,
            "layers": [
                {
                    "m": V.m,
                    "entries": [
                        [format_rational(v) for v in row] for row in layer
                    ],
                }
                for layer in V.layers
            ],
        }
    )


def averaging_operator(m: int) -> QuadraticOperator:
    """Operator with every layer (1/m) * ones: maps everything to uniform."""
    w = Fraction(1, m)
    layer = [[w] * m for _ in range(m)]
    return QuadraticOperator([layer] * m)
