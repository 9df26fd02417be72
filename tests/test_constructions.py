import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from circulant_tdc import (
    construct_tdc,
    formula_tdc,
    is_tdc,
    standard_circulant,
    verify_construction,
)

# the fixed small-case classes, as published
SMALL_CASES = {
    6: [[1, 3, 5], [2, 4, 6]],
    7: [[1], [2, 7], [3, 5], [4, 6]],
    8: [[1, 3, 5, 7], [2, 4, 6, 8]],
    9: [[1, 8], [2, 9], [3, 5, 7], [4, 6]],
    10: [[1], [2], [3, 5, 7, 9], [4, 6, 8, 10]],
    11: [[1, 3, 5], [2, 11], [7, 9], [8, 10], [4, 6]],
}


class TestSmallTable:
    @pytest.mark.parametrize("n", sorted(SMALL_CASES))
    def test_verbatim(self, n):
        plan = construct_tdc(n)
        assert plan.coloring.as_lists() == SMALL_CASES[n]

    @pytest.mark.parametrize("n", sorted(SMALL_CASES))
    def test_small_cases_are_tdcs(self, n):
        adj = oracles.neighbors(n, oracles.normalized_distances(n, [1, 3]))
        assert oracles.is_tdc_classes(n, adj, SMALL_CASES[n])


class TestResidueScheme:
    def test_n12_instantiation(self):
        plan = construct_tdc(12)
        assert plan.coloring.as_lists() == [[1], [2], [6, 8, 10], [5, 7, 9], [3, 11], [4, 12]]
        assert len(plan.coloring) == 6

    def test_n16_instantiation(self):
        plan = construct_tdc(16)
        assert plan.coloring.as_lists() == [
            [1], [2], [9], [10],
            [3, 5, 7, 11, 13, 15],
            [4, 6, 8, 12, 14, 16],
        ]

    def test_packing_becomes_singletons(self):
        plan = construct_tdc(20)
        assert plan.packing == {1, 2, 9, 10}
        singleton_members = {next(iter(c)) for c in plan.classes if len(c) == 1}
        assert plan.packing <= singleton_members

    @pytest.mark.parametrize("n", range(12, 20))
    def test_smallest_instantiation_of_each_residue(self, n):
        """The first n of every residue class gets an independent TDC check."""
        adj = oracles.neighbors(n, {1, 3})
        plan = construct_tdc(n)
        assert oracles.is_tdc_classes(n, adj, plan.coloring.as_lists()), plan.coloring.as_lists()
        assert len(plan.coloring) == formula_tdc(n)

    @pytest.mark.parametrize("n", range(12, 40))
    def test_packing_is_open_packing(self, n):
        g = standard_circulant(n)
        packing = sorted(construct_tdc(n).packing)
        assert len(packing) == 2 * (n // 8)
        for i, a in enumerate(packing):
            for b in packing[i + 1:]:
                assert not (g.neighbors(a) & g.neighbors(b)), (n, a, b)


class TestVerifyConstruction:
    @pytest.mark.parametrize("n,classes", [(8, 2), (11, 5), (100, 28)])
    def test_examples(self, n, classes):
        verdict = verify_construction(n)
        assert verdict.ok
        assert verdict.report.tdc
        assert verdict.num_classes == classes

    def test_sweep_small(self):
        for n in range(6, 200):
            verdict = verify_construction(n)
            assert verdict.ok, (n, verdict)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            construct_tdc(5)

    def test_deterministic(self):
        assert construct_tdc(77).coloring == construct_tdc(77).coloring

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=6, max_value=2000))
    def test_verification_at_arbitrary_n(self, n):
        verdict = verify_construction(n)
        assert verdict.ok
        assert verdict.num_classes == formula_tdc(n)

    def test_report_carries_class_records(self):
        verdict = verify_construction(12)
        rep = verdict.report
        assert rep.cn_size_sum >= 12
        assert is_tdc(standard_circulant(12), construct_tdc(12).coloring).tdc
