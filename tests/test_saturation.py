from itertools import combinations

import pytest

import gdecomp as g
from gdecomp import IndexSet, NotMemberError, NotOnGridError, SymMatrix
from helpers import HALF, a6, m3, n_cycle, naive_saturated_sets


def iset(members, m):
    return IndexSet(members, m)


class TestSaturatedSets:
    def test_identity_saturates_everything(self):
        family = g.saturated_sets(SymMatrix.identity(3))
        assert len(family) == 7
        assert family[0] == iset({1}, 3)

    def test_m3_family(self):
        family = g.saturated_sets(m3())
        assert family == [iset({3}, 3), iset({1, 3}, 3), iset({1, 2, 3}, 3)]

    def test_n6_only_full_set(self):
        family = g.saturated_sets(n_cycle(6))
        assert family == [iset(set(range(1, 7)), 6)]

    def test_matches_naive_enumeration(self, grid3_verdicts):
        for A, verdict in grid3_verdicts:
            if not verdict.member:
                continue
            family = g.saturated_sets(A, verdict=verdict)
            assert [a.members for a in family] == sorted(
                naive_saturated_sets(A), key=lambda s: (len(s), tuple(sorted(s)))
            )

    def test_not_member_rejected(self):
        with pytest.raises(NotMemberError):
            g.saturated_sets(SymMatrix([[1, 1], [1, 1]]))

    def test_closure_under_union_and_intersection(self, grid3_verdicts):
        for A, verdict in grid3_verdicts:
            if not verdict.member:
                continue
            family = set(g.saturated_sets(A, verdict=verdict))
            for alpha in family:
                for beta in family:
                    assert alpha.union(beta) in family
                    meet = alpha.intersection(beta)
                    if len(meet):
                        assert meet in family


class TestNeighborhoods:
    def test_a6_minimal(self):
        assert g.min_sat_neighborhood(a6(), 2, 3) == iset({2, 3, 4}, 6)

    def test_a6_maximal(self):
        assert g.max_sat_neighborhood(a6(), 2, 3) == iset({1, 2, 3, 4, 6}, 6)

    def test_n6_minimal_is_full(self):
        assert g.min_sat_neighborhood(n_cycle(6), 1, 2) == iset(set(range(1, 7)), 6)

    def test_identity_diagonal(self):
        I3 = SymMatrix.identity(3)
        assert g.min_sat_neighborhood(I3, 1, 1) == iset({1}, 3)
        assert g.max_sat_neighborhood(I3, 1, 1) == iset({1, 2, 3}, 3)

    def test_m3_diagonal_max(self):
        assert g.max_sat_neighborhood(m3(), 3, 3) == iset({1, 2, 3}, 3)

    def test_absent_when_no_saturated_superset(self):
        A = SymMatrix([[0, HALF], [HALF, 0]])
        assert g.min_sat_neighborhood(A, 1, 2) is None
        assert g.max_sat_neighborhood(A, 1, 2) is None

    def test_argument_order_normalized(self):
        assert g.min_sat_neighborhood(a6(), 3, 2) == iset({2, 3, 4}, 6)

    def test_extremal_bounds(self, grid3_verdicts):
        # minimal is contained in, maximal contains, every saturated superset
        for A, verdict in grid3_verdicts:
            if not verdict.member:
                continue
            family = g.saturated_sets(A, verdict=verdict)
            for i in range(1, 4):
                for j in range(i, 4):
                    lo = g.min_sat_neighborhood(A, i, j, family=family)
                    hi = g.max_sat_neighborhood(A, i, j, family=family)
                    supersets = [
                        alpha for alpha in family if i in alpha and j in alpha
                    ]
                    assert (lo is None) == (not supersets)
                    assert (hi is None) == (not supersets)
                    for alpha in supersets:
                        assert lo.issubset(alpha)
                        assert alpha.issubset(hi)

    def test_locality_in_saturated_submatrix(self, grid3_verdicts):
        # minimal neighborhoods inside a saturated submatrix agree with the
        # ones computed in the full matrix, after relabeling
        for A, verdict in grid3_verdicts:
            if not verdict.member:
                continue
            family = g.saturated_sets(A, verdict=verdict)
            for alpha in family:
                members = sorted(alpha.members)
                relabel = {orig: k + 1 for k, orig in enumerate(members)}
                sub = g.principal_submatrix(A, alpha)
                for i in members:
                    for j in members:
                        if j < i:
                            continue
                        full = g.min_sat_neighborhood(A, i, j, family=family)
                        local = g.min_sat_neighborhood(sub, relabel[i], relabel[j])
                        assert full is not None  # alpha itself is a neighborhood
                        assert local is not None
                        assert {relabel[v] for v in full} == local.members


class TestSaturationReport:
    def test_m3_entries(self):
        report = g.saturation_report(m3())
        assert report.saturated_sets == (
            iset({3}, 3),
            iset({1, 3}, 3),
            iset({1, 2, 3}, 3),
        )
        assert report.by_entry[(1, 2)] == (iset({1, 2, 3}, 3), iset({1, 2, 3}, 3))
        assert report.by_entry[(1, 3)] == (iset({1, 3}, 3), iset({1, 2, 3}, 3))
        assert report.by_entry[(3, 3)] == (iset({3}, 3), iset({1, 2, 3}, 3))
        assert report.by_entry[(2, 2)] == (iset({1, 2, 3}, 3), iset({1, 2, 3}, 3))


class TestFMatrix:
    def test_n6_is_f_matrix(self):
        assert g.is_F_matrix(n_cycle(6))

    def test_unique_f2(self):
        assert g.is_F_matrix(SymMatrix([[0, 1], [1, 0]]))

    def test_identity_is_not(self):
        assert not g.is_F_matrix(SymMatrix.identity(3))

    def test_off_grid_rejected(self):
        with pytest.raises(NotOnGridError):
            g.is_F_matrix(SymMatrix([[0, "1/3"], ["1/3", 0]]))

    def test_non_member_rejected(self):
        with pytest.raises(NotMemberError):
            g.is_F_matrix(SymMatrix([[1, 1], [1, 1]]))

    def test_f_matrices_live_on_the_half_grid(self, grid3_verdicts):
        for A, verdict in grid3_verdicts:
            if not verdict.member:
                continue
            if g.is_F_matrix(A):
                assert g.is_half_grid_matrix(A)


class TestOnePass:
    """The membership verdict and the saturated family come from one
    principal-sum table, not one table each."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import gdecomp.membership as membership

        original = membership.principal_sums_by_mask
        seen = []

        def counting(grid):
            seen.append(len(grid))
            return original(grid)

        for module in ("membership", "saturation", "extremity"):
            monkeypatch.setattr("gdecomp.%s.principal_sums_by_mask" % module, counting)
        return seen

    def test_saturated_sets(self, calls):
        g.saturated_sets(a6())
        assert calls == [6]

    def test_criterion_and_neighborhoods_verbs(self, calls, tmp_path):
        from gdecomp.cli import main

        assert g.is_extreme_criterion(m3(), "UM").extreme
        path = tmp_path / "a6.txt"
        path.write_text(g.serialize_matrix(a6()))
        assert main(["extreme", "--ambient", "Um", str(path)]) == 0
        assert main(["neighborhoods", "--i", "2", "--j", "3", str(path)]) == 0
        assert calls == [3, 6, 6]

    def test_grid_enumeration_and_scan(self, calls):
        g.enumerate_extreme(2, "Um")
        assert len(calls) == g.grid_size(2)
        del calls[:]
        g.conjecture_scan(2)
        assert len(calls) == g.scan_grid_size(2)
