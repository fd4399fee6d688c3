import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

import gdecomp as g
from gdecomp import CapExceededError, IndexSet, Permutation, SymMatrix
from gdecomp.membership import TOTAL_SUM_MISMATCH, principal_sums_by_mask
from helpers import (
    HALF,
    m3,
    n_cycle,
    naive_certificate,
    naive_member,
    naive_min_margin,
    naive_principal_sum,
    naive_principal_sums,
    off_grid_members,
)

# pairwise coprime, so the common denominator of a grid is a product of them
DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)


@st.composite
def signed_grids(draw, max_m=8):
    m = draw(st.integers(0, max_m))
    grid = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            value = Fraction(
                draw(st.integers(-40, 40)), draw(st.sampled_from(DENOMINATORS))
            )
            grid[i][j] = grid[j][i] = value
    return grid


@st.composite
def off_grid_non_members(draw):
    """A member with one entry inside a chosen subset raised just past its bound."""
    A = draw(off_grid_members())
    alpha = sorted(
        draw(st.sets(st.integers(1, A.m), min_size=1, max_size=A.m))
    )
    k = draw(st.sampled_from(alpha))
    l = draw(st.sampled_from(alpha))
    over = Fraction(1, draw(st.sampled_from(DENOMINATORS)))
    delta = (len(alpha) - naive_principal_sum(A, alpha) + over) / (1 if k == l else 2)
    grid = A.to_lists()
    grid[k - 1][l - 1] += delta
    if k != l:
        grid[l - 1][k - 1] += delta
    return SymMatrix(grid)


class TestBruteForce:
    def test_m3_member_with_zero_slack(self):
        verdict = g.check_Um_bruteforce(m3())
        assert verdict.member
        assert verdict.certificate is None
        assert verdict.slack == 0  # {3} is saturated
        assert verdict.total_sum == 3

    def test_ones2_violation(self):
        verdict = g.check_Um_bruteforce(SymMatrix([[1, 1], [1, 1]]))
        assert not verdict.member
        assert verdict.certificate == IndexSet({1, 2}, 2)
        assert verdict.slack == -2

    def test_n6_member(self):
        verdict = g.check_Um_bruteforce(n_cycle(6))
        assert verdict.member
        assert verdict.total_sum == 6

    def test_certificate_prefers_min_cardinality_then_lex(self):
        A = SymMatrix([[2, 0, 0], [0, 0, 0], [0, 0, 2]])
        verdict = g.check_Um_bruteforce(A)
        assert verdict.certificate == IndexSet({1}, 3)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            g.check_Um_bruteforce(SymMatrix.zero(5), cap=4)


class TestMinCut:
    def test_ones2(self):
        verdict = g.check_Um_mincut(SymMatrix([[1, 1], [1, 1]]))
        assert not verdict.member
        cert = verdict.certificate
        assert naive_principal_sum(SymMatrix([[1, 1], [1, 1]]), cert) > len(cert)

    def test_m3(self):
        assert g.check_Um_mincut(m3()).member

    def test_zero4(self):
        assert g.check_Um_mincut(SymMatrix.zero(4)).member

    def test_diagonal_overflow_is_singleton_certificate(self):
        verdict = g.check_Um_mincut(SymMatrix([[0, 0], [0, 2]]))
        assert not verdict.member
        assert verdict.certificate == IndexSet({2}, 2)

    def test_slack_sign_only_by_default(self):
        assert g.check_Um_mincut(m3()).slack is None
        exact = g.check_Um_mincut(m3(), exact_slack=True)
        assert exact.slack == 0


class TestUpper:
    def test_identity3(self):
        assert g.check_Um_upper(SymMatrix.identity(3)).member

    def test_half_pair_total_mismatch(self):
        A = SymMatrix([[0, HALF], [HALF, 0]])
        assert g.check_Um_bruteforce(A).member
        verdict = g.check_Um_upper(A)
        assert not verdict.member
        assert verdict.reason == TOTAL_SUM_MISMATCH
        assert verdict.certificate is None
        assert verdict.total_sum == 1

    def test_m3_total_3(self):
        verdict = g.check_Um_upper(m3())
        assert verdict.member and verdict.total_sum == 3

    def test_upper_implies_lower(self, grid3_verdicts):
        for A, verdict in grid3_verdicts:
            if g.check_Um_upper(A).member:
                assert verdict.member


class TestAgreementAndSoundness:
    def test_checkers_agree_on_grid3(self, grid3_verdicts):
        for A, brute in grid3_verdicts:
            mincut = g.check_Um_mincut(A)
            assert brute.member == mincut.member
            for verdict in (brute, mincut):
                if verdict.certificate is not None:
                    cert = verdict.certificate
                    assert naive_principal_sum(A, cert) > len(cert)

    def test_brute_force_matches_naive_definition_on_grid3(self, grid3_verdicts):
        for A, verdict in grid3_verdicts:
            assert verdict.member == naive_member(A)

    def test_permutation_invariance(self):
        samples = [m3(), n_cycle(3), SymMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]])]
        for A in samples:
            expected = g.check_Um_bruteforce(A).member
            expected_upper = g.check_Um_upper(A).member
            for image in permutations(range(1, 4)):
                B = g.permute(A, Permutation(image))
                assert g.check_Um_bruteforce(B).member == expected
                assert g.check_Um_upper(B).member == expected_upper

    def test_direct_sum_closure(self):
        members2 = [
            A for A in g.grid_matrices(2) if g.check_Um_bruteforce(A).member
        ]
        for A in members2:
            for B in members2:
                C = g.direct_sum(A, B, [1, 2], [3, 4])
                assert g.check_Um_bruteforce(C).member
                if (
                    g.check_Um_upper(A).member
                    and g.check_Um_upper(B).member
                ):
                    assert g.check_Um_upper(C).member


class TestPrincipalSumKernel:
    @given(signed_grids())
    def test_matches_fraction_oracle_on_signed_rationals(self, grid):
        sums, L = principal_sums_by_mask(grid)
        assert L == math.lcm(1, *(v.denominator for row in grid for v in row))
        assert all(type(s) is int for s in sums)
        assert [Fraction(s, L) for s in sums] == naive_principal_sums(grid)


def _assert_deciders_agree(A, expected_member):
    brute = g.check_Um_bruteforce(A)
    mincut = g.check_Um_mincut(A, exact_slack=True)
    assert brute.member == mincut.member == expected_member == naive_member(A)
    assert brute.slack == mincut.slack == naive_min_margin(A)
    expected_cert = naive_certificate(A)
    assert brute.certificate == (
        None if expected_cert is None else IndexSet(expected_cert, A.m)
    )
    for verdict in (brute, mincut):
        cert = verdict.certificate
        assert (cert is None) == verdict.member
        if cert is not None:
            assert naive_principal_sum(A, cert) > len(cert)


class TestOffGridAgreement:
    @given(off_grid_members())
    def test_deciders_agree_on_members(self, A):
        _assert_deciders_agree(A, True)

    @given(off_grid_non_members())
    def test_deciders_agree_on_non_members(self, A):
        _assert_deciders_agree(A, False)
