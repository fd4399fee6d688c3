from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given

import gdecomp as g
from gdecomp import (
    CapExceededError,
    DuplicateNeighborhood,
    IndexSet,
    IsExtremeError,
    MissingNeighborhood,
    NotMemberError,
    Permutation,
    SymMatrix,
)
from helpers import (
    HALF,
    m3,
    n_cycle,
    naive_member,
    naive_saturated_sets,
    off_grid_members,
)


def half_pair():
    return SymMatrix([[0, HALF], [HALF, 0]])


class TestCriterion:
    def test_m3_extreme(self):
        report = g.is_extreme_criterion(m3(), "Um")
        assert report.extreme
        assert report.fractional_entries == ((1, 2), (1, 3))
        assert report.neighborhood_map[(1, 2)] == IndexSet({1, 2, 3}, 3)
        assert report.neighborhood_map[(1, 3)] == IndexSet({1, 3}, 3)

    def test_half_pair_missing_neighborhood(self):
        report = g.is_extreme_criterion(half_pair(), "Um")
        assert not report.extreme
        assert report.failure == MissingNeighborhood((1, 2))

    def test_n6_duplicate_neighborhoods(self):
        report = g.is_extreme_criterion(n_cycle(6), "UM")
        assert not report.extreme
        assert isinstance(report.failure, DuplicateNeighborhood)
        full = IndexSet(set(range(1, 7)), 6)
        assert all(v == full for v in report.neighborhood_map.values())

    def test_identity_extreme_with_no_fractional_entries(self):
        report = g.is_extreme_criterion(SymMatrix.identity(3), "Um")
        assert report.extreme
        assert report.fractional_entries == ()

    def test_m3_extreme_in_upper_ambient(self):
        assert g.is_extreme_criterion(m3(), "UM").extreme

    def test_upper_ambient_requires_saturation(self):
        with pytest.raises(NotMemberError):
            g.is_extreme_criterion(half_pair(), "UM")

    def test_non_member_rejected(self):
        with pytest.raises(NotMemberError):
            g.is_extreme_criterion(SymMatrix([[1, 1], [1, 1]]), "Um")

    def test_bad_ambient(self):
        with pytest.raises(ValueError):
            g.is_extreme_criterion(m3(), "U")


class TestNullspaceOracle:
    def test_m3(self):
        assert g.is_extreme_nullspace(m3(), "Um")

    def test_n6(self):
        assert not g.is_extreme_nullspace(n_cycle(6), "UM")

    def test_zero3(self):
        assert g.is_extreme_nullspace(SymMatrix.zero(3), "Um")

    def test_agreement_on_grid3(self, grid3_verdicts):
        for A, verdict in grid3_verdicts:
            if not verdict.member:
                continue
            criterion = g.is_extreme_criterion(A, "Um", verdict=verdict).extreme
            assert criterion == g.is_extreme_nullspace(A, "Um", verdict=verdict)
            if verdict.total_sum == 3:
                assert (
                    g.is_extreme_criterion(A, "UM", verdict=verdict).extreme
                    == criterion
                )


class TestSplit:
    def test_half_pair_exact_values(self):
        plus, minus, eps = g.split_nonextreme(half_pair())
        assert eps == Fraction(1, 4)
        assert plus == SymMatrix([[0, Fraction(3, 4)], [Fraction(3, 4), 0]])
        assert minus == SymMatrix([[0, Fraction(1, 4)], [Fraction(1, 4), 0]])

    def test_n6_outputs_stay_saturated(self):
        A = n_cycle(6)
        report = g.is_extreme_criterion(A, "Um")
        plus, minus, eps = g.split_nonextreme(A, report=report)
        for out in (plus, minus):
            assert g.check_Um_upper(out).member
        changed = [
            (i, j)
            for i in range(1, 7)
            for j in range(i, 7)
            if plus.entry(i, j) != A.entry(i, j)
        ]
        assert changed == sorted([report.failure.first, report.failure.second])
        deltas = {plus.entry(i, j) - A.entry(i, j) for (i, j) in changed}
        assert deltas == {eps, -eps}

    def test_extreme_input_rejected(self):
        with pytest.raises(IsExtremeError):
            g.split_nonextreme(m3())

    def test_non_member_rejected(self):
        with pytest.raises(NotMemberError):
            g.split_nonextreme(SymMatrix([[1, 1], [1, 1]]))

    def test_properties_across_grid3(self, grid3_verdicts):
        for A, verdict in grid3_verdicts:
            if not verdict.member:
                continue
            report = g.is_extreme_criterion(A, "Um", verdict=verdict)
            if report.extreme:
                continue
            plus, minus, eps = g.split_nonextreme(A, report=report)
            assert eps > 0
            assert plus != A and minus != A and plus != minus
            assert g.check_Um_bruteforce(plus).member
            assert g.check_Um_bruteforce(minus).member
            averaged = [
                [
                    (plus.entries[i][j] + minus.entries[i][j]) / 2
                    for j in range(A.m)
                ]
                for i in range(A.m)
            ]
            assert SymMatrix(averaged) == A

    @given(off_grid_members(max_m=5))
    def test_off_grid_split_takes_half_the_maximal_step(self, A):
        # doubling the step stays feasible and makes a new constraint tight
        # on at least one side: a 0/1 entry or a saturated set
        assume(not g.is_extreme_criterion(A, "Um").extreme)
        plus, minus, eps = g.split_nonextreme(A)

        def tight(M):
            entries = {
                (i, j, M.entry(i, j))
                for i in range(1, M.m + 1)
                for j in range(i, M.m + 1)
                if M.entry(i, j) in (0, 1)
            }
            return entries, set(naive_saturated_sets(M))

        before_entries, before_sets = tight(A)
        gained = False
        for side in (plus, minus):
            far = SymMatrix(
                [
                    [2 * side.entries[i][j] - A.entries[i][j] for j in range(A.m)]
                    for i in range(A.m)
                ]
            )
            assert naive_member(far)
            entries, sets = tight(far)
            gained |= not (entries <= before_entries and sets <= before_sets)
        assert gained

    def test_mixed_duplicate_balances_coefficients(self):
        # all-halves matrix: {1,2} is saturated and is the minimal
        # neighborhood of the diagonal (1,1) and the off-diagonal (1,2), so
        # the split must scale the two deltas to keep the pair sum fixed
        A = SymMatrix([[HALF, HALF], [HALF, HALF]])
        report = g.is_extreme_criterion(A, "Um")
        assert report.failure == DuplicateNeighborhood((1, 1), (1, 2))
        plus, minus, eps = g.split_nonextreme(A, report=report)
        assert g.check_Um_bruteforce(plus).member
        assert g.check_Um_bruteforce(minus).member
        assert plus.entry(1, 1) - A.entry(1, 1) == 2 * eps
        assert plus.entry(1, 2) - A.entry(1, 2) == -eps
        # the saturated pair stays saturated on both sides
        assert g.principal_sum(plus, [1, 2]) == 2
        assert g.principal_sum(minus, [1, 2]) == 2


class TestEnumerate:
    def test_m1(self):
        assert g.enumerate_extreme(1, "UM") == [SymMatrix([[1]])]
        assert g.enumerate_extreme(1, "Um") == [SymMatrix([[0]]), SymMatrix([[1]])]

    def test_m2_upper(self):
        expected = [
            SymMatrix([[0, HALF], [HALF, 1]]),
            SymMatrix([[0, 1], [1, 0]]),
            SymMatrix([[1, 0], [0, 1]]),
            SymMatrix([[1, HALF], [HALF, 0]]),
        ]
        assert g.enumerate_extreme(2, "UM") == expected

    def test_m2_lower_adds_three(self):
        lower = g.enumerate_extreme(2, "Um")
        assert len(lower) == 7
        extra = set(lower) - set(g.enumerate_extreme(2, "UM"))
        assert extra == {
            SymMatrix.zero(2),
            SymMatrix([[1, 0], [0, 0]]),
            SymMatrix([[0, 0], [0, 1]]),
        }

    def test_cap(self):
        with pytest.raises(CapExceededError):
            g.enumerate_extreme(5, "Um")

    def test_vertices_agree_with_oracle(self):
        for ambient in ("Um", "UM"):
            for vertex in g.enumerate_extreme(3, ambient):
                assert g.is_extreme_nullspace(vertex, ambient)


class TestKreinMilman:
    def test_extreme_input_is_a_single_term(self):
        combo = g.krein_milman_decompose(SymMatrix.identity(3), "Um")
        assert combo.terms == ((Fraction(1), SymMatrix.identity(3)),)

    def test_half_pair_exact_terms(self):
        combo = g.krein_milman_decompose(half_pair(), "Um")
        assert combo.terms == (
            (HALF, SymMatrix.zero(2)),
            (HALF, SymMatrix([[0, 1], [1, 0]])),
        )

    def test_n3_in_upper_ambient(self):
        A = n_cycle(3)
        combo = g.krein_milman_decompose(A, "UM")
        assert combo.total_weight() == 1
        assert combo.reconstruct() == A
        vertices = set(g.enumerate_extreme(3, "UM"))
        for weight, vertex in combo.terms:
            assert 0 < weight <= 1
            assert vertex in vertices

    def test_every_grid3_member_decomposes(self, grid3_verdicts):
        for A, verdict in grid3_verdicts:
            if not verdict.member:
                continue
            combo = g.krein_milman_decompose(A, "Um")
            assert combo.total_weight() == 1
            assert combo.reconstruct() == A
            for weight, vertex in combo.terms:
                assert g.is_extreme_criterion(vertex, "Um").extreme


class TestStructuralInvariants:
    def test_grid_theorem_on_random_rationals(self):
        # any rational member found extreme must lie on the {0, 1/2, 1} grid
        rng = g.SplitMix64(7)
        found_extreme = 0
        for _ in range(300):
            m = 2 + rng.below(3)
            grid = [[Fraction(0)] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    v = Fraction(rng.below(5), 4)
                    grid[i][j] = v
                    grid[j][i] = v
            A = SymMatrix(grid)
            if not g.check_Um_bruteforce(A).member:
                continue
            if g.is_extreme_criterion(A, "Um").extreme:
                found_extreme += 1
                assert g.is_grid_matrix(A)
        assert found_extreme > 0  # the sample actually exercised the claim

    def test_zero_intersection_with_half_grid(self):
        for m in (1, 2, 3):
            for vertex in g.enumerate_extreme(m, "Um"):
                if g.is_half_grid_matrix(vertex):
                    assert vertex == SymMatrix.zero(m)

    def test_upper_vertices_are_saturated_lower_vertices(self):
        for m in (1, 2, 3):
            lower = set(g.enumerate_extreme(m, "Um"))
            upper = set(g.enumerate_extreme(m, "UM"))
            saturated_lower = {A for A in lower if A.total_sum() == m}
            assert upper == saturated_lower

    def test_permutation_closure(self):
        for m in (2, 3):
            for vertex in g.enumerate_extreme(m, "Um"):
                for image in permutations(range(1, m + 1)):
                    permuted = g.permute(vertex, Permutation(image))
                    assert g.is_extreme_criterion(permuted, "Um").extreme

    def test_direct_sum_closure(self):
        for ma, mb in ((1, 1), (1, 2), (2, 2)):
            for A in g.enumerate_extreme(ma, "Um"):
                for B in g.enumerate_extreme(mb, "Um"):
                    C = g.direct_sum(
                        A, B, range(1, ma + 1), range(ma + 1, ma + mb + 1)
                    )
                    assert g.is_extreme_criterion(C, "Um").extreme

    def test_saturated_iff_no_zero_row(self):
        for m in (1, 2, 3):
            for vertex in g.enumerate_extreme(m, "Um"):
                saturated = vertex.total_sum() == m
                has_zero_row = any(
                    vertex.is_zero_row(i) for i in range(1, m + 1)
                )
                assert saturated == (not has_zero_row)


class TestConjectureScan:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_no_counterexamples_small(self, m):
        report = g.conjecture_scan(m)
        assert report.conjecture1_counterexamples == ()
        assert report.conjecture2_counterexamples == ()
        assert report.grid_count == g.scan_grid_size(m)

    def test_m3_counts(self):
        report = g.conjecture_scan(3)
        assert report.grid_count == 729  # diagonals also range over {0, 1/2, 1}
        assert report.member_count > 0
        assert report.upper_member_count > 0

    def test_cap(self):
        with pytest.raises(CapExceededError):
            g.conjecture_scan(5)
