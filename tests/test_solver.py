import pytest

import oracles
from circulant_tdc import (
    BudgetExceededError,
    SearchBudget,
    SolverLimitError,
    build_circulant,
    formula_tdc,
    is_tdc,
    standard_circulant,
    tdc_feasible,
    tdc_number_exact,
)


class TestFeasibility:
    def test_c9_three_classes_infeasible(self):
        out = tdc_feasible(standard_circulant(9), 3)
        assert out.status == "infeasible"

    def test_c9_four_classes_feasible(self):
        out = tdc_feasible(standard_circulant(9), 4)
        assert out.status == "feasible"
        assert is_tdc(standard_circulant(9), out.coloring).tdc

    def test_c12_five_classes_infeasible(self):
        assert tdc_feasible(standard_circulant(12), 5).status == "infeasible"

    def test_budget_exhaustion_is_distinct(self):
        out = tdc_feasible(standard_circulant(18), 7, SearchBudget(max_nodes=5))
        assert out.status == "budget_exceeded"
        assert out.coloring is None

    def test_rejects_bad_color_count(self):
        with pytest.raises(ValueError):
            tdc_feasible(standard_circulant(9), 0)
        with pytest.raises(ValueError):
            tdc_feasible(standard_circulant(9), 10)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_agrees_with_plain_search(self, n):
        """Pruned search vs pruning-free reference, all class counts."""
        adj = oracles.neighbors(n, oracles.normalized_distances(n, [1, 3]))
        g = standard_circulant(n)
        for k in range(2, min(n, 7) + 1):
            fast = tdc_feasible(g, k).status == "feasible"
            plain = oracles.tdc_feasible_plain(n, adj, k)
            assert fast == plain, (n, k)


class TestExactValue:
    @pytest.mark.parametrize("n", range(6, 15))
    def test_matches_formula_small(self, n):
        out = tdc_number_exact(standard_circulant(n))
        assert out.chi_dt == formula_tdc(n)

    def test_n18_boundary_value(self):
        # the one point in the solvable range where the closed form overshoots:
        # a 7-class coloring exists (its class common neighborhoods tile the
        # vertex set exactly) while the case formula gives 8
        out = tdc_number_exact(standard_circulant(18))
        assert out.chi_dt == 7
        assert formula_tdc(18) == 8
        report = is_tdc(standard_circulant(18), out.witness)
        assert report.tdc and report.cn_size_sum == 18
        adj = oracles.neighbors(18, {1, 3})
        assert oracles.is_tdc_classes(18, adj, out.witness.as_lists())

    def test_witness_class_count_equals_value(self):
        for n in range(6, 16):
            out = tdc_number_exact(standard_circulant(n))
            assert len(out.witness) == out.chi_dt
            assert is_tdc(standard_circulant(n), out.witness).tdc

    def test_bounds_bracket_value(self):
        for n in range(6, 16):
            out = tdc_number_exact(standard_circulant(n))
            assert out.lower_bound_used <= out.chi_dt <= out.upper_bound_used
            assert out.lower_bound_source in ("chromatic", "total-domination")

    def test_general_connection_sets(self):
        # isomorphic presentations must give the same value as the formula
        assert tdc_number_exact(build_circulant(7, [2, 6])).chi_dt == formula_tdc(7)
        assert tdc_number_exact(build_circulant(11, [4, 1])).chi_dt == formula_tdc(11)
        assert tdc_number_exact(build_circulant(13, [2, 6])).chi_dt == formula_tdc(13)

    def test_arbitrary_circulant(self):
        # no closed form applies; bracket comes from the additive bound
        out = tdc_number_exact(build_circulant(10, [2, 5]))
        assert out.upper_bound_source == "total-domination+chromatic"
        assert out.lower_bound_used <= out.chi_dt <= out.upper_bound_used

    def test_budget_propagates_with_bracket(self):
        with pytest.raises(BudgetExceededError) as info:
            tdc_number_exact(standard_circulant(17), budget=SearchBudget(max_nodes=50))
        assert info.value.lower <= info.value.upper

    def test_deterministic(self):
        a = tdc_number_exact(standard_circulant(13))
        b = tdc_number_exact(standard_circulant(13))
        assert a.chi_dt == b.chi_dt and a.witness == b.witness

    def test_limit_guard(self):
        with pytest.raises(SolverLimitError, match="limit="):
            tdc_number_exact(standard_circulant(25))

    def test_levels_recorded(self):
        out = tdc_number_exact(standard_circulant(12))
        statuses = dict(out.levels)
        assert statuses[4] == "infeasible" and statuses[5] == "infeasible"
        assert statuses[6] == "feasible"
