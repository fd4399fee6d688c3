"""Tests of the benchmark itself: seeded generators, the correctness gate and
the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gdecomp  # noqa: E402
import make_reference  # noqa: E402
import worker  # noqa: E402
from gate import judge, load_reference  # noqa: E402
from oracle import SubsetSums, is_extreme  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, build_item, plain_text  # noqa: E402


def run(workload, seed, k, tmp_path):
    item = build_item(workload, seed, k)
    raw = worker.execute(item, worker.prepare(item, tmp_path / "input.txt"))
    return item, worker.record(item, raw)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_items_are_a_function_of_seed_and_index(workload):
    for k in range(8):
        a, b = build_item(workload, 7, k), build_item(workload, 7, k)
        assert (a.call, a.grid, a.member_Um, a.matrices) == (b.call, b.grid, b.member_Um, b.matrices)


@pytest.mark.parametrize("workload", ["check", "decompose", "peel"])
def test_other_seeds_give_other_inputs(workload):
    assert [build_item(workload, 1, k).grid for k in range(4)] != [
        build_item(workload, 2, k).grid for k in range(4)
    ]


def test_construction_labels_agree_with_the_oracle():
    for k in range(12):
        item = build_item("check", 3, k)
        assert SubsetSums(item.grid).member is item.member_Um
        assert item.member_UM is (item.member_Um and sum(map(sum, item.grid)) == item.m)


def test_inputs_are_plain_text_the_library_reads_back():
    item = build_item("check", 5, 0)
    assert gdecomp.parse_matrix(plain_text(item.grid)).entries == tuple(map(tuple, item.grid))


def _flip_check(outcome):
    got = json.loads(outcome["out"])
    got["member"] = not got["member"]
    return {"code": 1 - outcome["code"], "out": json.dumps(got), "err": ""}


def test_gate_accepts_a_correct_check_and_rejects_a_flipped_verdict(tmp_path):
    item, outcome = run("check", 0, 0, tmp_path)  # order 12, check verb
    assert item.call[1][0] == "check"
    assert judge("check", item, outcome) is None
    assert judge("check", item, _flip_check(outcome)) is not None


def test_gate_rejects_a_perturbed_X(tmp_path):
    item, outcome = run("decompose", 0, 0, tmp_path)  # order 30 member
    assert item.member_UM and judge("decompose", item, outcome) is None
    got = json.loads(outcome["out"])
    got["X"][0][1] = str(Fraction(got["X"][0][1]) + Fraction(1, 10**9))
    bad = dict(outcome, out=json.dumps(got))
    assert judge("decompose", item, bad) is not None


def test_gate_rejects_a_certificate_that_does_not_violate(tmp_path):
    item, outcome = run("decompose", 0, 2, tmp_path)  # order 40 non-member, stochastic mode
    assert not item.member_Um and judge("decompose", item, outcome) is None
    got = json.loads(outcome["out"])
    got["certificate"] = [1]
    assert judge("decompose", item, dict(outcome, out=json.dumps(got))) is not None


def test_gate_rejects_a_broken_vertex_decomposition(tmp_path):
    item, outcome = run("peel", 0, 1, tmp_path)  # order 4 in UM: every vertex is saturated
    assert judge("peel", item, outcome) is None and outcome["inductive"]
    w, V = outcome["terms"][0]
    reweighted = dict(outcome, terms=[[str(Fraction(w) / 2), V]] + outcome["terms"][1:])
    assert judge("peel", item, reweighted) is not None
    assert judge("peel", item, dict(outcome, inductive=outcome["inductive"][1:])) is not None


def test_gate_rejects_wrong_grid_counts(tmp_path):
    reference = load_reference()
    k = next(k for k in range(3) if build_item("grid", 0, k).call[1][0] == "scan")
    item, outcome = run("grid", 0, k, tmp_path)
    assert judge("grid", item, outcome, reference) is None
    got = json.loads(outcome["out"])
    got["members"] += 1
    assert judge("grid", item, dict(outcome, out=json.dumps(got)), reference) is not None


def test_gate_counts_raises_and_usage_errors_as_failures():
    item = build_item("check", 0, 0)
    assert judge("check", item, {"raised": "TypeError: boom"}) is not None
    assert judge("check", item, {"code": 2, "out": "", "err": "error: x"}) is not None


def test_reference_matches_the_naive_oracle():
    reference = load_reference()
    assert reference["scan-3"] == make_reference.scan(3)
    for ambient in ("UM", "Um"):
        assert reference["enumerate-3-" + ambient] == make_reference.enumerate_vertices(3, ambient)


def test_rank_test_agrees_with_the_library_oracle_on_small_members():
    for k in range(8):
        A = build_item("peel", 9, k).grid
        sums = SubsetSums(A)
        assert is_extreme(A, sums.family()) == gdecomp.is_extreme_nullspace(gdecomp.SymMatrix(A))


def test_tracer_records_nested_spans_and_restores_the_library(tmp_path):
    original = gdecomp.membership.principal_sums_by_mask
    tracer = Tracer()
    tracer.install()
    try:
        assert gdecomp.saturation.principal_sums_by_mask is not original
        worker.run_pass("peel", 0, 0.0, tmp_path / "input.txt", count=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert gdecomp.saturation.principal_sums_by_mask is original
    assert gdecomp.membership.principal_sums_by_mask is original
    metrics = tracer.metrics()
    assert metrics["extremity.vertices_emitted"] > 0
    assert 0 < metrics["extremity.peel_self_s"] < metrics["extremity.peel_s"]
    assert metrics["membership.subsets_enumerated"] >= 7 * metrics["membership.principal_sums_calls"]
    ids = {span[0] for span in tracer.spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in tracer.spans)
