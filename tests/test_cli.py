import io
import json

import pytest

import gdecomp as g
from gdecomp.cli import main
from helpers import HALF, a6, m3

M3_PLAIN = "3\n0 1/2 1/2\n1/2 0 0\n1/2 0 1\n"
ONES2_PLAIN = "2\n1 1\n1 1\n"
HALF2_PLAIN = "2\n0 1/2\n1/2 0\n"

IDENTITY_OP = (
    '{"m": 2, "layers": ['
    '{"m": 2, "entries": [["1", "1/2"], ["1/2", "0"]]}, '
    '{"m": 2, "entries": [["0", "1/2"], ["1/2", "1"]]}]}'
)
LEAKY_OP = (
    '{"m": 2, "layers": ['
    '{"m": 2, "entries": [["1", "1/2"], ["1/2", "1"]]}, '
    '{"m": 2, "entries": [["0", "1/2"], ["1/2", "0"]]}]}'
)


@pytest.fixture
def m3_file(tmp_path):
    path = tmp_path / "m3.txt"
    path.write_text(M3_PLAIN)
    return str(path)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_member_exit_zero(self, capsys, m3_file):
        code, out, _ = run(capsys, ["check", "--set", "Um", m3_file])
        assert code == 0
        assert "member: yes" in out

    def test_violation_from_stdin(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["check", "--set", "Um", "-"], stdin=ONES2_PLAIN, monkeypatch=monkeypatch
        )
        assert code == 1
        assert "certificate: {1,2}" in out

    def test_upper_total_mismatch(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["check", "--set", "UM", "-"], stdin=HALF2_PLAIN, monkeypatch=monkeypatch
        )
        assert code == 1
        assert "reason: total-sum-mismatch" in out

    def test_json_output_is_bit_exact(self, capsys, m3_file):
        code, out, _ = run(capsys, ["check", "--set", "UM", "--json", m3_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["total_sum"] == "3"
        assert payload["slack"] == "0"


class TestDecompose:
    def test_flow_stochastic(self, capsys, m3_file):
        code, out, _ = run(capsys, ["decompose", "--mode", "stochastic", m3_file])
        assert code == 0
        assert "status: solved" in out and "verified: yes" in out

    def test_emitted_x_revalidates_through_the_library(self, capsys, m3_file):
        code, out, _ = run(
            capsys, ["decompose", "--mode", "stochastic", "--json", m3_file]
        )
        payload = json.loads(out)
        X = [[g.parse_rational(v) for v in row] for row in payload["X"]]
        assert g.verify_decomposition(m3(), X, "stochastic")

    def test_inductive(self, capsys, m3_file):
        code, out, _ = run(
            capsys,
            ["decompose", "--mode", "stochastic", "--method", "inductive", m3_file],
        )
        assert code == 0
        assert "verified: yes" in out

    def test_inductive_substochastic(self, capsys, tmp_path):
        path = tmp_path / "diag.txt"
        path.write_text("2\n1 0\n0 0\n")
        code, out, _ = run(
            capsys,
            ["decompose", "--mode", "substochastic", "--method", "inductive", str(path)],
        )
        assert code == 0

    def test_total_mismatch_exit_one(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["decompose", "--mode", "stochastic", "-"],
            stdin=HALF2_PLAIN,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "reason: total-sum-mismatch" in out

    def test_certificate_exit_one(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["decompose", "--mode", "substochastic", "-"],
            stdin=ONES2_PLAIN,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "certificate: {1,2}" in out

    def test_inductive_on_non_extreme_is_negative(self, capsys, monkeypatch):
        n3 = "3\n0 1/2 1/2\n1/2 0 1/2\n1/2 1/2 0\n"
        code, _, err = run(
            capsys,
            ["decompose", "--mode", "stochastic", "--method", "inductive", "-"],
            stdin=n3,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "negative" in err


class TestExtreme:
    def test_m3(self, capsys, m3_file):
        code, out, _ = run(capsys, ["extreme", "--ambient", "Um", m3_file])
        assert code == 0
        assert "extreme: yes" in out

    def test_oracle_agreement_printed(self, capsys, m3_file):
        code, out, _ = run(
            capsys, ["extreme", "--ambient", "Um", "--oracle", m3_file]
        )
        assert code == 0
        assert "oracle: extreme" in out

    def test_not_extreme(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["extreme", "--ambient", "Um", "-"],
            stdin=HALF2_PLAIN,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "failure: missing-neighborhood at (1,2)" in out


class TestEnumerate:
    def test_m2_upper(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "--m", "2", "--ambient", "UM"])
        assert code == 0
        assert "count: 4" in out

    def test_refuses_m5_without_force(self, capsys):
        code, _, err = run(capsys, ["enumerate", "--m", "5", "--ambient", "Um"])
        assert code == 2
        assert "--force" in err
        assert str(g.grid_size(5)) in err  # prints the grid size estimate

    def test_json_vertices_reparse(self, capsys):
        code, out, _ = run(
            capsys, ["enumerate", "--m", "2", "--ambient", "UM", "--json"]
        )
        payload = json.loads(out)
        assert payload["count"] == 4
        for rows in payload["vertices"]:
            vertex = g.SymMatrix(
                [[g.parse_rational(v) for v in row] for row in rows]
            )
            assert g.is_extreme_criterion(vertex, "UM").extreme


class TestNeighborhoods:
    def test_a6_entry(self, capsys, tmp_path):
        path = tmp_path / "a6.txt"
        path.write_text(g.serialize_matrix(a6()))
        code, out, _ = run(
            capsys, ["neighborhoods", "--i", "2", "--j", "3", str(path)]
        )
        assert code == 0
        assert "minimal: {2,3,4}" in out
        assert "maximal: {1,2,3,4,6}" in out

    def test_absent_neighborhood(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["neighborhoods", "--i", "1", "--j", "2", "-"],
            stdin=HALF2_PLAIN,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "minimal: none" in out


class TestScan:
    def test_m2_clean(self, capsys):
        code, out, _ = run(capsys, ["scan", "--m", "2"])
        assert code == 0
        assert "conjecture 1 counterexamples: 0" in out
        assert "conjecture 2 counterexamples: 0" in out


class TestOperator:
    def test_stochastic(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["operator", "--check", "stochastic", "-"],
            stdin=IDENTITY_OP,
            monkeypatch=monkeypatch,
        )
        assert code == 0

    def test_gds_necessary(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["operator", "--check", "gds-necessary", "-"],
            stdin=IDENTITY_OP,
            monkeypatch=monkeypatch,
        )
        assert code == 0

    def test_gds_sample_counterexample(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["operator", "--check", "gds-sample", "--trials", "50", "-"],
            stdin=LEAKY_OP,
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "counterexample" in out

    def test_gds_sample_clean(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["operator", "--check", "gds-sample", "--trials", "50", "-"],
            stdin=IDENTITY_OP,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "no counterexample" in out


class TestJsonBooleans:
    # bool is an int subclass in Python; JSON true must not parse as 1
    @pytest.mark.parametrize(
        "text",
        ['{"m": true, "entries": [[true]]}', '{"m": 1, "entries": [[true]]}'],
    )
    def test_matrix_parser_rejects_booleans(self, capsys, monkeypatch, text):
        code, out, err = run(
            capsys, ["check", "--set", "Um", "-"], stdin=text, monkeypatch=monkeypatch
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"m": true, "layers": [{"m": 1, "entries": [["1"]]}]}',
            '{"m": 1, "layers": [{"m": true, "entries": [["1"]]}]}',
            '{"m": 1, "layers": [{"m": 1, "entries": [[true]]}]}',
        ],
    )
    def test_operator_parser_rejects_booleans(self, capsys, monkeypatch, text):
        code, out, err = run(
            capsys,
            ["operator", "--check", "stochastic", "-"],
            stdin=text,
            monkeypatch=monkeypatch,
        )
        assert code == 2
        assert out == ""
        assert "error:" in err


class TestVerify:
    def test_valid_x(self, capsys, tmp_path, m3_file):
        xfile = tmp_path / "x.txt"
        xfile.write_text("3\n0 0 1\n1 0 0\n0 0 1\n")
        code, out, _ = run(
            capsys,
            ["verify", "--mode", "stochastic", "--x", str(xfile), m3_file],
        )
        assert code == 0
        assert "valid: yes" in out

    def test_invalid_x(self, capsys, tmp_path, m3_file):
        xfile = tmp_path / "x.txt"
        xfile.write_text(M3_PLAIN)  # M3 itself fails row sums
        code, out, _ = run(
            capsys,
            ["verify", "--mode", "stochastic", "--x", str(xfile), m3_file],
        )
        assert code == 1
        assert "valid: no" in out


class TestPlumbing:
    def test_parse_error_exit_two(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, ["check", "--set", "Um", "-"], stdin="garbage", monkeypatch=monkeypatch
        )
        assert code == 2

    def test_asymmetric_exit_two(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["check", "--set", "Um", "-"],
            stdin="2\n0 1\n0 1\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run(capsys, ["check", "--set", "Um", "/nonexistent/path"])
        assert code == 2

    def test_unknown_verb_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_byte_identical_repeat(self, capsys, m3_file):
        _, first, _ = run(capsys, ["decompose", "--mode", "stochastic", m3_file])
        _, second, _ = run(capsys, ["decompose", "--mode", "stochastic", m3_file])
        assert first == second

    def test_decimal_flag(self, capsys, m3_file):
        code, out, _ = run(
            capsys, ["check", "--set", "Um", "--decimal", m3_file]
        )
        assert code == 0
        assert "total-sum: 3.0" in out
