"""Command-line front door.

Exit codes: 0 = positive verdict (member / extreme / solved / confirmed),
1 = negative verdict (certificate printed when one exists), 2 = usage or
parse error, 3 = internal invariant violation.  Identical invocations print
byte-identical output: orderings are fixed and sampling verbs default to
seed 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    AsymmetricInputError,
    CapExceededError,
    GdecompError,
    InternalInvariantViolation,
    InvalidIndexSetError,
    InvalidPartitionError,
    IsExtremeError,
    LengthMismatchError,
    NegativeEntryError,
    NotExtremeError,
    NotMemberError,
    NotOnGridError,
    NotStochasticError,
    OrderMismatchError,
    ParseError,
)
from .extremity import (
    DuplicateNeighborhood,
    MissingNeighborhood,
    conjecture_scan,
    enumerate_extreme,
    grid_size,
    scan_grid_size,
    is_extreme_criterion,
    is_extreme_nullspace,
)
from .decomposition import (
    NOT_MEMBER,
    SOLVED,
    g_decompose,
    g_decompose_extreme_inductive,
    g_decompose_extreme_substochastic,
    verify_decomposition,
)
from .formats import (
    format_rational,
    parse_matrix,
    parse_square_matrix,
    serialize_square_matrix,
)
from .membership import check_Um, check_Um_upper
from .qso import parse_operator, qo_gds_necessary, qo_gds_sample, qo_is_stochastic
from .saturation import max_sat_neighborhood, min_sat_neighborhood, saturated_sets

_USAGE_ERRORS = (
    ParseError,
    AsymmetricInputError,
    NegativeEntryError,
    InvalidIndexSetError,
    InvalidPartitionError,
    OrderMismatchError,
    LengthMismatchError,
    CapExceededError,
    ValueError,
)
_NEGATIVE_ERRORS = (
    NotMemberError,
    NotExtremeError,
    IsExtremeError,
    NotOnGridError,
    NotStochasticError,
)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class _Emitter:
    """Collects either human-readable lines or one JSON payload."""

    def __init__(self, args):
        self.json = args.json
        self.decimal = args.decimal
        self.lines = []
        self.payload = {}

    def rat(self, x) -> str:
        if self.decimal:
            return str(float(x))  # lossy; exact output is the default
        return format_rational(x)

    def index_set(self, alpha):
        return sorted(alpha.members) if alpha is not None else None

    def matrix_rows(self, rows):
        return [[self.rat(v) for v in row] for row in rows]

    def line(self, text):
        self.lines.append(text)

    def field(self, key, value):
        self.payload[key] = value

    def flush(self):
        if self.json:
            print(json.dumps(self.payload))
        else:
            for line in self.lines:
                print(line)


def cmd_check(args) -> int:
    A = parse_matrix(_read_input(args.input))
    if args.set == "UM":
        verdict = check_Um_upper(A)
    else:
        verdict = check_Um(A)
    out = _Emitter(args)
    out.field("verb", "check")
    out.field("set", args.set)
    out.field("member", verdict.member)
    out.field("total_sum", out.rat(verdict.total_sum))
    out.field("slack", out.rat(verdict.slack) if verdict.slack is not None else None)
    out.field("certificate", out.index_set(verdict.certificate))
    out.field("reason", verdict.reason if not verdict.member else None)
    out.line("set: %s" % args.set)
    out.line("member: %s" % ("yes" if verdict.member else "no"))
    out.line("total-sum: %s" % out.rat(verdict.total_sum))
    if verdict.slack is not None:
        out.line("slack: %s" % out.rat(verdict.slack))
    if verdict.certificate is not None:
        out.line("certificate: %s" % verdict.certificate)
    if not verdict.member and verdict.reason:
        out.line("reason: %s" % verdict.reason)
    out.flush()
    return 0 if verdict.member else 1


def cmd_decompose(args) -> int:
    A = parse_matrix(_read_input(args.input))
    if args.method == "inductive":
        if args.mode == "stochastic":
            result = g_decompose_extreme_inductive(A)
        else:
            result = g_decompose_extreme_substochastic(A)
    else:
        result = g_decompose(A, args.mode)
    out = _Emitter(args)
    out.field("verb", "decompose")
    out.field("mode", args.mode)
    out.field("method", args.method)
    out.field("status", result.status)
    out.line("mode: %s" % args.mode)
    out.line("method: %s" % args.method)
    out.line("status: %s" % result.status)
    if result.status == SOLVED:
        verified = verify_decomposition(A, result.X, args.mode)
        out.field("X", out.matrix_rows(result.X))
        out.field("verified", verified)
        out.line("verified: %s" % ("yes" if verified else "no"))
        out.line("X (plain format):")
        out.line(serialize_square_matrix(result.X, "plain").rstrip("\n"))
        out.flush()
        return 0 if verified else 3
    out.field("certificate", out.index_set(result.certificate))
    out.field("reason", result.reason)
    if result.certificate is not None:
        out.line("certificate: %s" % result.certificate)
    if result.reason:
        out.line("reason: %s" % result.reason)
    out.flush()
    return 1


def cmd_extreme(args) -> int:
    A = parse_matrix(_read_input(args.input))
    report = is_extreme_criterion(A, args.ambient)
    out = _Emitter(args)
    out.field("verb", "extreme")
    out.field("ambient", args.ambient)
    out.field("extreme", report.extreme)
    out.field(
        "fractional_entries", [list(pos) for pos in report.fractional_entries]
    )
    out.field(
        "neighborhoods",
        {
            "%d,%d" % pos: out.index_set(nbhd)
            for pos, nbhd in report.neighborhood_map.items()
        },
    )
    out.line("ambient: %s" % args.ambient)
    out.line("extreme: %s" % ("yes" if report.extreme else "no"))
    failure_desc = None
    if isinstance(report.failure, MissingNeighborhood):
        failure_desc = "missing-neighborhood at (%d,%d)" % report.failure.position
        out.field(
            "failure",
            {"kind": "missing-neighborhood", "position": list(report.failure.position)},
        )
    elif isinstance(report.failure, DuplicateNeighborhood):
        failure_desc = "duplicate-neighborhood at (%d,%d) and (%d,%d)" % (
            report.failure.first + report.failure.second
        )
        out.field(
            "failure",
            {
                "kind": "duplicate-neighborhood",
                "first": list(report.failure.first),
                "second": list(report.failure.second),
            },
        )
    else:
        out.field("failure", None)
    if failure_desc:
        out.line("failure: %s" % failure_desc)
    for pos in report.fractional_entries:
        nbhd = report.neighborhood_map[pos]
        out.line(
            "entry (%d,%d): minimal neighborhood %s"
            % (pos[0], pos[1], nbhd if nbhd is not None else "none")
        )
    if args.oracle:
        oracle = is_extreme_nullspace(A, args.ambient)
        out.field("oracle", oracle)
        out.line("oracle: %s" % ("extreme" if oracle else "not extreme"))
        if oracle != report.extreme:
            out.flush()
            raise InternalInvariantViolation(
                "criterion and rank oracle disagree"
            )
    out.flush()
    return 0 if report.extreme else 1


def cmd_enumerate(args) -> int:
    if args.m >= 5 and not args.force:
        print(
            "refusing: the order-%d grid has %d candidates; pass --force to "
            "enumerate anyway" % (args.m, grid_size(args.m)),
            file=sys.stderr,
        )
        return 2
    vertices = enumerate_extreme(
        args.m, args.ambient, max_order=args.m if args.force else 4
    )
    out = _Emitter(args)
    out.field("verb", "enumerate")
    out.field("m", args.m)
    out.field("ambient", args.ambient)
    out.field("count", len(vertices))
    out.field("vertices", [out.matrix_rows(v.entries) for v in vertices])
    out.line("m: %d" % args.m)
    out.line("ambient: %s" % args.ambient)
    out.line("count: %d" % len(vertices))
    for idx, vertex in enumerate(vertices, start=1):
        out.line("vertex %d:" % idx)
        for row in vertex.entries:
            out.line("  " + " ".join(out.rat(v) for v in row))
    out.flush()
    return 0


def cmd_neighborhoods(args) -> int:
    A = parse_matrix(_read_input(args.input))
    family = saturated_sets(A)
    lo = min_sat_neighborhood(A, args.i, args.j, family=family)
    hi = max_sat_neighborhood(A, args.i, args.j, family=family)
    out = _Emitter(args)
    out.field("verb", "neighborhoods")
    out.field("i", args.i)
    out.field("j", args.j)
    out.field("minimal", out.index_set(lo))
    out.field("maximal", out.index_set(hi))
    out.field("saturated_sets", [out.index_set(alpha) for alpha in family])
    out.line("entry: (%d,%d)" % (args.i, args.j))
    out.line("minimal: %s" % (lo if lo is not None else "none"))
    out.line("maximal: %s" % (hi if hi is not None else "none"))
    out.line(
        "saturated sets: %s"
        % (" ".join(str(alpha) for alpha in family) if family else "none")
    )
    out.flush()
    return 0 if lo is not None else 1


def cmd_scan(args) -> int:
    if args.m > 4 and not args.force:
        print(
            "refusing: the order-%d scan has %d candidates; pass --force to "
            "scan anyway" % (args.m, scan_grid_size(args.m)),
            file=sys.stderr,
        )
        return 2
    report = conjecture_scan(args.m, max_order=args.m if args.force else 4)
    out = _Emitter(args)
    out.field("verb", "scan")
    out.field("m", report.m)
    out.field("grid", report.grid_count)
    out.field("members", report.member_count)
    out.field("saturated_members", report.upper_member_count)
    out.field(
        "conjecture1_counterexamples",
        [out.matrix_rows(A.entries) for A in report.conjecture1_counterexamples],
    )
    out.field(
        "conjecture2_counterexamples",
        [out.matrix_rows(A.entries) for A in report.conjecture2_counterexamples],
    )
    out.line("m: %d" % report.m)
    out.line("grid candidates: %d" % report.grid_count)
    out.line("members: %d" % report.member_count)
    out.line("saturated members: %d" % report.upper_member_count)
    out.line(
        "conjecture 1 counterexamples: %d"
        % len(report.conjecture1_counterexamples)
    )
    out.line(
        "conjecture 2 counterexamples: %d"
        % len(report.conjecture2_counterexamples)
    )
    for A in report.conjecture1_counterexamples + report.conjecture2_counterexamples:
        for row in A.entries:
            out.line("  " + " ".join(out.rat(v) for v in row))
        out.line("")
    out.flush()
    clean = not (
        report.conjecture1_counterexamples or report.conjecture2_counterexamples
    )
    return 0 if clean else 1


def cmd_operator(args) -> int:
    V = parse_operator(_read_input(args.input))
    out = _Emitter(args)
    out.field("verb", "operator")
    out.field("check", args.check)
    if args.check == "stochastic":
        ok = qo_is_stochastic(V)
        out.field("result", ok)
        out.line("stochastic: %s" % ("yes" if ok else "no"))
        out.flush()
        return 0 if ok else 1
    if args.check == "gds-necessary":
        ok = qo_gds_necessary(V)
        out.field("result", ok)
        out.line("layers all saturated members: %s" % ("yes" if ok else "no"))
        out.flush()
        return 0 if ok else 1
    counterexample = qo_gds_sample(V, trials=args.trials, seed=args.seed)
    out.field("trials", args.trials)
    out.field("seed", args.seed)
    if counterexample is None:
        out.field("counterexample", None)
        out.line("no counterexample in %d trials (not a proof)" % args.trials)
        out.flush()
        return 0
    out.field("counterexample", [out.rat(v) for v in counterexample])
    out.line(
        "counterexample: (%s)" % ", ".join(out.rat(v) for v in counterexample)
    )
    out.flush()
    return 1


def cmd_verify(args) -> int:
    A = parse_matrix(_read_input(args.input))
    X = parse_square_matrix(_read_input(args.x))
    ok = verify_decomposition(A, X, args.mode)
    out = _Emitter(args)
    out.field("verb", "verify")
    out.field("mode", args.mode)
    out.field("valid", ok)
    out.line("mode: %s" % args.mode)
    out.line("valid: %s" % ("yes" if ok else "no"))
    out.flush()
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object")
    common.add_argument(
        "--decimal",
        action="store_true",
        help="render rationals as decimals (lossy; exact p/q is the default)",
    )
    common.add_argument("--seed", type=int, default=0, help="PRNG seed for sampling verbs")
    common.add_argument(
        "--trials", type=int, default=1000, help="sample count for sampling verbs"
    )
    common.add_argument(
        "--force", action="store_true", help="override enumeration/scan size refusals"
    )

    parser = argparse.ArgumentParser(
        prog="gdecomp",
        description="Exact membership, extreme-point, and (X+X^t)/2 = A "
        "decomposition toolkit for subset-sum matrix polytopes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", parents=[common], help="polytope membership")
    p.add_argument("--set", choices=("Um", "UM"), required=True)
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", parents=[common], help="solve (X+X^t)/2 = A")
    p.add_argument("--mode", choices=("stochastic", "substochastic"), required=True)
    p.add_argument("--method", choices=("flow", "inductive"), default="flow")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("extreme", parents=[common], help="extremity report")
    p.add_argument("--ambient", choices=("Um", "UM"), required=True)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also run the rank oracle and cross-check",
    )
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=cmd_extreme)

    p = sub.add_parser("enumerate", parents=[common], help="list all extreme points")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ambient", choices=("Um", "UM"), required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "neighborhoods", parents=[common], help="saturated neighborhoods of an entry"
    )
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=cmd_neighborhoods)

    p = sub.add_parser("scan", parents=[common], help="conjecture scan over the grid")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("operator", parents=[common], help="quadratic operator checks")
    p.add_argument(
        "--check",
        choices=("stochastic", "gds-necessary", "gds-sample"),
        required=True,
    )
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=cmd_operator)

    p = sub.add_parser("verify", parents=[common], help="verify a decomposition")
    p.add_argument("--mode", choices=("stochastic", "substochastic"), required=True)
    p.add_argument("--x", required=True, metavar="XFILE")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except InternalInvariantViolation as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return 3
    except _NEGATIVE_ERRORS as exc:
        print("negative: %s" % exc, file=sys.stderr)
        certificate = getattr(exc, "certificate", None)
        if certificate is not None:
            print("certificate: %s" % certificate, file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except GdecompError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
