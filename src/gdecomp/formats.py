"""Text formats for matrices: exact plain text and JSON.

Plain format: first non-comment line holds the order m, followed by m lines
of m whitespace-separated rationals ("p/q", integer "p", or an exact decimal
like "0.5"); lines starting with '#' are comments.

JSON format: {"m": <int>, "entries": [[<rational string>, ...], ...]}.

Both formats round-trip bit-exactly.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ParseError
from .matrices import SymMatrix, as_fraction

_RATIONAL_RE = re.compile(r"[+-]?(?:\d+(?:/\d+)?|\d+\.\d+)\Z")


def parse_rational(token: str) -> Fraction:
    """Exact Fraction from "p/q", "p", or "d.ddd" (decimals parsed as p/10^d)."""
    token = token.strip()
    if not _RATIONAL_RE.match(token):
        raise ParseError("malformed rational %r" % token)
    if "/" in token and token.split("/")[1].lstrip("0") == "":
        raise ParseError("zero denominator in %r" % token)
    return Fraction(token)


def format_rational(x: Fraction) -> str:
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _decode(text) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("input is not valid UTF-8: %s" % exc) from None
    return text


def _parse_plain_grid(text: str):
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty matrix input")
    try:
        m = int(lines[0])
    except ValueError:
        raise ParseError("first line must be the order m, got %r" % lines[0]) from None
    if m < 0:
        raise ParseError("order must be nonnegative, got %d" % m)
    if len(lines) != m + 1:
        raise ParseError("expected %d matrix rows, got %d" % (m, len(lines) - 1))
    grid = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != m:
            raise ParseError("expected %d entries per row, got %d" % (m, len(tokens)))
        grid.append([parse_rational(tok) for tok in tokens])
    return grid


def _parse_json_grid(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    if not isinstance(obj, dict) or "m" not in obj or "entries" not in obj:
        raise ParseError('JSON matrix needs keys "m" and "entries"')
    m = obj["m"]
    # bool is an int subclass: JSON true/false must not pass as 1/0
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ParseError('"m" must be a nonnegative integer')
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != m:
        raise ParseError('"entries" must be a list of %d rows' % m)
    grid = []
    for row in entries:
        if not isinstance(row, list) or len(row) != m:
            raise ParseError("each row must be a list of %d entries" % m)
        parsed = []
        for v in row:
            if isinstance(v, str):
                parsed.append(parse_rational(v))
            elif isinstance(v, int) and not isinstance(v, bool):
                parsed.append(Fraction(v))
            else:
                raise ParseError(
                    "JSON entries must be rational strings or integers, got %r" % (v,)
                )
        grid.append(parsed)
    return grid


def _sniff(text: str) -> str:
    return "json" if text.lstrip()[:1] == "{" else "plain"


def parse_square_matrix(text, fmt: str = "auto"):
    """Square grid of Fractions (no symmetry requirement), as a tuple of tuples."""
    text = _decode(text)
    if fmt == "auto":
        fmt = _sniff(text)
    if fmt == "plain":
        grid = _parse_plain_grid(text)
    elif fmt == "json":
        grid = _parse_json_grid(text)
    else:
        raise ParseError("unknown format %r" % fmt)
    return tuple(tuple(row) for row in grid)


def parse_matrix(text, fmt: str = "auto") -> SymMatrix:
    """Symmetric nonnegative matrix from plain or JSON text.

    Raises AsymmetricInputError / NegativeEntryError when the grid parses but
    violates the type invariants, ParseError for malformed text.
    """
    return SymMatrix(parse_square_matrix(text, fmt))


def serialize_square_matrix(grid, fmt: str = "plain") -> str:
    rows = [[as_fraction(v) for v in row] for row in grid]
    m = len(rows)
    if fmt == "plain":
        lines = [str(m)]
        for row in rows:
            lines.append(" ".join(format_rational(v) for v in row))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(
            {"m": m, "entries": [[format_rational(v) for v in row] for row in rows]}
        )
    raise ParseError("unknown format %r" % fmt)


def serialize_matrix(A: SymMatrix, fmt: str = "plain") -> str:
    return serialize_square_matrix(A.entries, fmt)
