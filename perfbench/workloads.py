"""Seeded inputs for the four benchmark workloads.

Every input is built here from the run seed alone, with a private splitmix64
generator and plain Fraction arithmetic, so nothing in the library under test
(in particular `gdecomp.sampling`) can change what the benchmark feeds it.
Item k of a run is generated from (seed, k) only, which lets the worker build
items one at a time and the correctness gate rebuild exactly the items the
worker processed.

Each item also carries the membership labels implied by its construction:
(X + X^t)/2 with X substochastic is a member of Um (its principal sum over
alpha is at most the row-sum mass of alpha), with X stochastic it is also in
UM, and the non-member constructions push one principal sum past |alpha|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

_MASK = (1 << 64) - 1

WORKLOADS = ("check", "decompose", "peel", "grid")


class Rng:
    """splitmix64, keyed by (seed, stream)."""

    def __init__(self, seed: int, stream: int = 0):
        self.state = (seed * 0x9E3779B97F4A7C15 + stream * 0xD1B54A32D192ED03) & _MASK

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        limit = (_MASK + 1) - (_MASK + 1) % n
        while True:
            draw = self.u64()
            if draw < limit:
                return draw % n

    def shuffle(self, xs: list) -> list:
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]
        return xs


@dataclass
class Item:
    """One operation of a workload.

    `call` is ("cli", argv) for a CLI verb (the input file path is appended
    when `grid` is set) or ("peel", ambient) for the library peel.  `matrices`
    is what the operation adds to throughput: one input matrix, or for the
    grid verbs every candidate matrix they examine.
    """

    index: int
    kind: str
    call: tuple
    grid: Optional[list] = None
    member_Um: Optional[bool] = None
    member_UM: Optional[bool] = None
    matrices: int = 1

    @property
    def m(self) -> int:
        return len(self.grid)


# Per workload: operations per round (a run stops only at round boundaries,
# so every run holds the same mix), the latency percentile reported as the
# tail, the fewest operations that leave at least ten samples beyond it, the
# operations the traced run performs (and then repeats untraced), and the
# speed probe that matches the workload's instruction profile (speed.py).
@dataclass(frozen=True)
class Plan:
    round_size: int
    tail_pct: int
    min_items: int
    trace_items: int
    probe: str


PLANS = {
    "check": Plan(round_size=4, tail_pct=80, min_items=52, trace_items=48, probe="fraction"),
    "decompose": Plan(round_size=6, tail_pct=75, min_items=42, trace_items=24, probe="table"),
    "peel": Plan(round_size=6, tail_pct=90, min_items=102, trace_items=240, probe="fraction"),
    "grid": Plan(round_size=3, tail_pct=90, min_items=102, trace_items=150, probe="fraction"),
}


# --- matrix constructions (entries are Fractions, rows are lists) ---------


def simplex_parts(rng: Rng, n: int, q: int) -> list:
    """n nonnegative multiples of 1/q summing to 1."""
    cuts = sorted(rng.below(q + 1) for _ in range(n - 1))
    edges = [0, *cuts, q]
    return [Fraction(b - a, q) for a, b in zip(edges, edges[1:])]


def x_rows(rng: Rng, m: int, q: int, sub: bool) -> list:
    """Stochastic rows, or substochastic ones (a dropped slack coordinate)."""
    return [simplex_parts(rng, m + 1 if sub else m, q)[:m] for _ in range(m)]


def symmetrize(X: list) -> list:
    m = len(X)
    return [[(X[i][j] + X[j][i]) / 2 for j in range(m)] for i in range(m)]


def total(A: list) -> Fraction:
    return sum((sum(row, Fraction(0)) for row in A), Fraction(0))


def saturated_blocks(rng: Rng, m: int, q: int) -> list:
    """Direct sum of 1..8 saturated blocks on a random partition of {1..m}.

    Every union of blocks is saturated, so the saturated family runs from a
    single set (one block) to hundreds (eight blocks give 255 unions).
    """
    k = 1 + rng.below(min(8, m))
    cuts = sorted(rng.shuffle(list(range(1, m)))[: k - 1])
    order = rng.shuffle(list(range(m)))
    A = [[Fraction(0)] * m for _ in range(m)]
    for lo, hi in zip([0, *cuts], [*cuts, m]):
        idx = order[lo:hi]
        B = symmetrize(x_rows(rng, len(idx), q, sub=False))
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                A[i][j] = B[a][b]
    return A


def break_subset(rng: Rng, A: list, q: int) -> list:
    """Raise one pair inside a random alpha until alpha's sum is |alpha| + 1/q."""
    m = len(A)
    alpha = rng.shuffle(list(range(m)))[: 2 + rng.below(m - 1)]
    slack = len(alpha) - sum(A[i][j] for i in alpha for j in alpha)
    i, j = alpha[0], alpha[1]
    delta = slack / 2 + Fraction(1, 2 * q)
    A = [row[:] for row in A]
    A[i][j] += delta
    A[j][i] += delta
    return A


def dense_nonmember(rng: Rng, m: int, q: int, sub: bool) -> list:
    """Dense matrix with one saturated block alpha pushed over its bound.

    Rows inside alpha put all their mass inside alpha, so alpha is saturated;
    rows outside spread over every column, so every pair stays positive.
    Moving eps from an outside pair to an inside pair keeps the total sum and
    makes alpha violate by 2*eps.
    """
    alpha = rng.shuffle(list(range(m)))[: m // 3]
    inside = set(alpha)
    X = []
    for i in range(m):
        if i in inside:
            parts = iter(simplex_parts(rng, len(alpha), q))
            X.append([next(parts) if j in inside else Fraction(0) for j in range(m)])
        else:
            X.append(simplex_parts(rng, m + 1 if sub else m, q)[:m])
    A = symmetrize(X)
    outside = [i for i in range(m) if i not in inside][:3]
    k, l = max(((a, b) for a in outside for b in outside if a != b), key=lambda p: A[p[0]][p[1]])
    eps = A[k][l] / 2
    if eps <= 0:
        raise RuntimeError("dense non-member construction found no positive pair")
    i, j = alpha[0], alpha[1]
    for a, b, d in ((k, l, -eps), (i, j, eps)):
        A[a][b] += d
        A[b][a] += d
    return A


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def plain_text(A: list) -> str:
    lines = [str(len(A))] + [" ".join(fmt(v) for v in row) for row in A]
    return "\n".join(lines) + "\n"


def _labelled(index, kind, call, A, member) -> Item:
    return Item(
        index=index,
        kind=kind,
        call=call,
        grid=A,
        member_Um=member,
        member_UM=member and total(A) == len(A),
    )


# --- workloads ------------------------------------------------------------

CHECK_ORDERS = (12, 12, 13, 14)
CHECK_KINDS = ("um", "UM", "blocks", "non")
CHECK_VERBS = ("check", "extreme", "neighborhoods")
CHECK_Q = 12


def check_item(seed: int, k: int) -> Item:
    """Rounds of orders 12, 12, 13, 14; the kind cycles per round and the verb
    rotates inside the round, so every twelve rounds hold each kind x verb at
    each position.  Order 12 is doubled so that the median and the tail fall
    inside a block of equal-cost calls rather than on the edge between two."""
    rng = Rng(seed, k)
    r, pos = divmod(k, len(CHECK_ORDERS))
    m = CHECK_ORDERS[pos]
    kind = CHECK_KINDS[r % len(CHECK_KINDS)]
    verb = CHECK_VERBS[(r + pos) % len(CHECK_VERBS)]
    if kind == "um":
        A, member = symmetrize(x_rows(rng, m, CHECK_Q, sub=True)), True
    elif kind == "UM":
        A, member = symmetrize(x_rows(rng, m, CHECK_Q, sub=False)), True
    elif kind == "blocks":
        A, member = saturated_blocks(rng, m, CHECK_Q), True
    else:
        base = symmetrize(x_rows(rng, m, CHECK_Q, sub=rng.below(2) == 1))
        A, member = break_subset(rng, base, CHECK_Q), False
    if verb == "check":
        argv = ["check", "--set", ("Um", "UM")[rng.below(2)], "--json"]
    elif verb == "extreme":
        argv = ["extreme", "--ambient", "Um", "--json"]
    else:
        i, j = 1 + rng.below(m), 1 + rng.below(m)
        argv = ["neighborhoods", "--i", str(i), "--j", str(j), "--json"]
    return _labelled(k, kind, ("cli", argv), A, member)


DECOMPOSE_ORDERS = (30, 40, 40, 40, 50, 60)
DECOMPOSE_KINDS = (
    ("UM", "stochastic"),
    ("um", "substochastic"),
    ("non", "stochastic"),
    ("non", "substochastic"),
)
DENSE_Q = 10**6


def decompose_item(seed: int, k: int) -> Item:
    """Dense inputs: on the 1/10^6 lattice every pair is positive, so the
    flow network has about m^2/2 pair nodes.  Three order-40 calls per round
    keep the median inside the order-40 block and the p75 tail inside the
    order-50 one."""
    rng = Rng(seed, k)
    m = DECOMPOSE_ORDERS[k % len(DECOMPOSE_ORDERS)]
    kind, mode = DECOMPOSE_KINDS[k % len(DECOMPOSE_KINDS)]
    sub = mode == "substochastic"
    if kind == "non":
        A, member = dense_nonmember(rng, m, DENSE_Q, sub), False
    else:
        A, member = symmetrize(x_rows(rng, m, DENSE_Q, sub)), True
    argv = ["decompose", "--mode", mode, "--json"]
    return _labelled(k, kind, ("cli", argv), A, member)


PEEL_SHAPES = ((4, "Um"), (4, "UM"), (3, "Um"), (4, "Um"), (4, "UM"), (3, "UM"))
PEEL_Q = 2


def peel_item(seed: int, k: int) -> Item:
    rng = Rng(seed, k)
    m, ambient = PEEL_SHAPES[k % len(PEEL_SHAPES)]
    A = symmetrize(x_rows(rng, m, PEEL_Q, sub=ambient == "Um"))
    return _labelled(k, "member-" + ambient, ("peel", ambient), A, True)


GRID_CALLS = (
    ["scan", "--m", "3"],
    ["enumerate", "--m", "3", "--ambient", "UM"],
    ["enumerate", "--m", "3", "--ambient", "Um"],
)


def grid_item(seed: int, k: int) -> Item:
    """The grid has no random inputs: the seed only orders each round.

    Order 3 keeps every call short (729 scan candidates, 216 per enumerate),
    so a run holds hundreds of them.  A single order-4 scan (59,049
    candidates) takes most of a run by itself, which leaves nothing to take a
    median over.
    """
    r, pos = divmod(k, len(GRID_CALLS))
    order = Rng(seed, r).shuffle(list(range(len(GRID_CALLS))))
    argv = GRID_CALLS[order[pos]] + ["--json"]
    m = int(argv[2])
    if argv[0] == "scan":  # diagonal and off-diagonal entries in {0, 1/2, 1}
        candidates = 3 ** (m * (m + 1) // 2)
    else:  # diagonal in {0, 1}
        candidates = 2**m * 3 ** (m * (m - 1) // 2)
    return Item(index=k, kind=argv[0], call=("cli", argv), matrices=candidates)


BUILDERS = {
    "check": check_item,
    "decompose": decompose_item,
    "peel": peel_item,
    "grid": grid_item,
}


def build_item(workload: str, seed: int, k: int) -> Item:
    return BUILDERS[workload](seed, k)
