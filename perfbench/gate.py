"""Correctness gate: judges each recorded operation against the labels its
input was built with and the benchmark's own oracle.

`judge(item, outcome)` returns None for a correct answer (a correct negative
verdict included) and a short reason otherwise.  An outcome is what the worker
recorded: {"code", "out", "err"} for a CLI call, {"terms", "inductive"} for a
peel, or {"raised": "<exception>"} when the call raised.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from oracle import (
    SubsetSums,
    convex_combination_error,
    fractional_positions,
    is_extreme,
    members_of,
    neighborhoods,
    parse_rows,
    total,
    valid_X,
    violating,
)

REFERENCE = Path(__file__).with_name("reference.json")


def _negative_ok(outcome) -> Optional[str]:
    """A known non-member must be refused with exit 1 and no result."""
    if outcome["code"] != 1 or outcome["out"].strip():
        return "non-member not refused with exit 1"
    return None


def _json(outcome) -> dict:
    return json.loads(outcome["out"])


def judge_check(item, outcome) -> Optional[str]:
    argv = item.call[1]
    A = item.grid
    m = len(A)
    sums = SubsetSums(A)
    if sums.member != item.member_Um:
        raise AssertionError("benchmark label disagrees with its oracle on item %d" % item.index)
    verb = argv[0]
    if verb == "check":
        want = item.member_Um if argv[2] == "Um" else item.member_UM
        if outcome["code"] != (0 if want else 1):
            return "check exit %s, expected %d" % (outcome["code"], 0 if want else 1)
        got = _json(outcome)
        if got["member"] is not want:
            return "membership verdict flipped"
        if want:
            if got["certificate"] is not None:
                return "member given a certificate"
        elif got["reason"] == "total-sum-mismatch":
            if argv[2] != "UM" or not item.member_Um or total(A) == m:
                return "spurious total-sum-mismatch"
        elif not violating(A, got["certificate"]):
            return "certificate does not violate"
        if got["slack"] is not None and Fraction(got["slack"]) != sums.slack:
            return "wrong slack"
        return None
    if not item.member_Um:
        return _negative_ok(outcome)
    family = sums.family()
    got = _json(outcome) if outcome["out"].strip() else None
    if verb == "extreme":
        extreme = is_extreme(A, family)
        if got is None or outcome["code"] != (0 if extreme else 1) or got["extreme"] is not extreme:
            return "extremity verdict differs from the rank test"
        positions = fractional_positions(A)
        if [tuple(p) for p in got["fractional_entries"]] != positions:
            return "wrong fractional entries"
        for i, j in positions:
            if got["neighborhoods"].get("%d,%d" % (i, j)) != neighborhoods(family, i, j)[0]:
                return "wrong minimal neighborhood at (%d,%d)" % (i, j)
        return None
    i, j = int(argv[2]), int(argv[4])
    lo, hi = neighborhoods(family, i, j)
    if got is None or outcome["code"] != (0 if lo else 1):
        return "neighborhoods exit %s" % outcome["code"]
    if got["minimal"] != lo or got["maximal"] != hi:
        return "wrong neighborhoods"
    if sorted(map(tuple, got["saturated_sets"])) != sorted(
        tuple(members_of(mask)) for mask in family
    ):
        return "wrong saturated family"
    return None


def judge_decompose(item, outcome) -> Optional[str]:
    mode = item.call[1][2]
    A = item.grid
    want = item.member_UM if mode == "stochastic" else item.member_Um
    got = _json(outcome) if outcome["code"] in (0, 1) else None
    if got is None:
        return "decompose exit %s" % outcome["code"]
    if want:
        if outcome["code"] != 0 or got["status"] != "solved" or got["verified"] is not True:
            return "member not solved"
        if not valid_X(A, parse_rows(got["X"]), mode):
            return "X fails (X + X^t)/2 = A or the row sums"
        return None
    if outcome["code"] != 1 or got["status"] != "not-member":
        return "non-member solved"
    if got["reason"] == "total-sum-mismatch":
        return None if mode == "stochastic" and total(A) != len(A) else "spurious total-sum-mismatch"
    return None if violating(A, got["certificate"]) else "certificate does not violate"


def judge_peel(item, outcome) -> Optional[str]:
    ambient = item.call[1]
    A = item.grid
    terms = [(Fraction(w), parse_rows(V)) for w, V in outcome["terms"]]
    problem = convex_combination_error(A, terms, ambient)
    if problem:
        return problem
    saturated = [V for _, V in terms if total(V) == len(V)]
    xs = [parse_rows(X) for X in outcome["inductive"]]
    if len(xs) != len(saturated):
        return "inductive solve skipped a saturated vertex"
    for V, X in zip(saturated, xs):
        if not valid_X(V, X, "stochastic"):
            return "inductive X fails the check"
    return None


def vertex_digest(vertices) -> str:
    """Order-free digest of a vertex list given as rows of rationals."""
    canon = sorted(tuple(tuple(Fraction(v) for v in row) for row in V) for V in vertices)
    text = ";".join(",".join(str(v) for row in V for v in row) for V in canon)
    return hashlib.sha256(text.encode()).hexdigest()


def grid_key(argv) -> str:
    return "-".join(a for a in argv if not a.startswith("--"))


def judge_grid(item, outcome, reference) -> Optional[str]:
    if outcome["code"] != 0:
        return "grid verb exit %s" % outcome["code"]
    got = _json(outcome)
    want = reference[grid_key(item.call[1])]
    if got["verb"] == "scan":
        seen = {
            "grid": got["grid"],
            "members": got["members"],
            "saturated_members": got["saturated_members"],
            "conjecture1_counterexamples": len(got["conjecture1_counterexamples"]),
            "conjecture2_counterexamples": len(got["conjecture2_counterexamples"]),
        }
    else:
        seen = {"count": got["count"], "digest": vertex_digest(got["vertices"])}
    return None if seen == want else "grid result differs from the reference"


def judge(workload: str, item, outcome, reference=None) -> Optional[str]:
    if "raised" in outcome:
        return "raised " + outcome["raised"]
    if outcome.get("code") in (2, 3):
        return "exit %d: %s" % (outcome["code"], outcome["err"].strip()[:200])
    judges = {"check": judge_check, "decompose": judge_decompose, "peel": judge_peel}
    try:
        if workload == "grid":
            return judge_grid(item, outcome, reference)
        return judges[workload](item, outcome)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return "malformed answer (%s: %s)" % (type(exc).__name__, exc)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def answer_digest(outcomes) -> str:
    """Digest of the answers themselves, recorded so a change in answers shows."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(json.dumps(outcome, sort_keys=True).encode())
    return h.hexdigest()[:16]
