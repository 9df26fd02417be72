import pytest

import oracles
from circulant_tdc import (
    OracleLimitError,
    build_circulant,
    chromatic_number_oracle,
    independence_number_formula,
    independence_number_oracle,
    is_proper,
    max_open_packing_structure,
    open_packing_number_formula,
    open_packing_number_oracle,
    standard_circulant,
    total_domination_number_formula,
    total_domination_number_oracle,
)


# C_n(1,3) cases are named by n alone, other connection sets "n-gens"; an n
# where two generators give the same circular distance is skipped
REFERENCE_CASES = [pytest.param(n, (1, 3), id=str(n)) for n in range(5, 13)] + [
    pytest.param(n, gens, id=f"{n}-{','.join(map(str, gens))}")
    for gens in ((1, 2), (2, 5), (1, 4), (1, 4, 6))
    for n in range(5, 14)
    if len(oracles.normalized_distances(n, gens)) == len(gens)
]


class TestClosedForms:
    @pytest.mark.parametrize("n,expected", [(8, 4), (9, 3), (12, 6), (4, 2), (25, 11)])
    def test_independence(self, n, expected):
        assert independence_number_formula(n) == expected

    @pytest.mark.parametrize("n,expected", [(12, 2), (5, 1), (16, 4), (3, 1), (14, 2), (7, 1)])
    def test_open_packing(self, n, expected):
        assert open_packing_number_formula(n) == expected

    @pytest.mark.parametrize("n,expected", [(10, 4), (8, 2), (12, 4), (7, 2), (18, 6)])
    def test_total_domination(self, n, expected):
        assert total_domination_number_formula(n) == expected

    def test_range_guards(self):
        with pytest.raises(ValueError):
            independence_number_formula(3)
        with pytest.raises(ValueError):
            open_packing_number_formula(2)
        with pytest.raises(ValueError):
            total_domination_number_formula(3)


class TestIndependenceOracle:
    def test_c8(self):
        inv = independence_number_oracle(standard_circulant(8))
        assert inv.oracle == 4
        assert inv.witness == (1, 3, 5, 7)  # lexicographically least maximum
        assert inv.agree is True

    def test_c9(self):
        assert independence_number_oracle(standard_circulant(9)).oracle == 3

    def test_c4_cycle(self):
        # the 4-cycle is the degenerate standard-family member at n=4
        inv = independence_number_oracle(build_circulant(4, [1]))
        assert inv.oracle == 2
        assert inv.closed_form == 2 and inv.agree is True

    def test_non_standard_graph_has_no_closed_form(self):
        inv = independence_number_oracle(build_circulant(7, [1, 2]))
        assert inv.closed_form is None and inv.agree is None

    def test_witness_is_independent(self):
        for n in range(6, 16):
            g = standard_circulant(n)
            inv = independence_number_oracle(g)
            w = inv.witness
            assert all(not g.has_edge(a, b) for i, a in enumerate(w) for b in w[i + 1:])

    @pytest.mark.parametrize("n,gens", REFERENCE_CASES)
    def test_matches_reference(self, n, gens):
        adj = oracles.neighbors(n, oracles.normalized_distances(n, gens))
        inv = independence_number_oracle(build_circulant(n, gens))
        assert inv.oracle == oracles.max_independent_size(n, adj)
        assert inv.witness == oracles.max_independent_set(n, adj)


class TestOpenPackingOracle:
    def test_c14(self):
        inv = open_packing_number_oracle(standard_circulant(14))
        assert inv.oracle == 2 and inv.agree is True

    def test_c8_witness(self):
        inv = open_packing_number_oracle(standard_circulant(8))
        assert inv.oracle == 2
        assert inv.witness == (1, 2)

    def test_triangle(self):
        inv = open_packing_number_oracle(build_circulant(3, [1]))
        assert inv.oracle == 1

    def test_small_case_disagreement_at_4(self):
        # the degenerate 4-cycle has the spread packing {1,2}; the closed
        # form says 1 but exhaustive search finds 2
        inv = open_packing_number_oracle(standard_circulant(4))
        assert inv.closed_form == 1
        assert inv.oracle == 2
        assert inv.agree is False

    def test_witness_neighborhoods_disjoint(self):
        for n in range(6, 18):
            g = standard_circulant(n)
            w = open_packing_number_oracle(g).witness
            for i, a in enumerate(w):
                for b in w[i + 1:]:
                    assert not (g.neighbors(a) & g.neighbors(b))

    @pytest.mark.parametrize("n,gens", REFERENCE_CASES)
    def test_matches_reference(self, n, gens):
        adj = oracles.neighbors(n, oracles.normalized_distances(n, gens))
        inv = open_packing_number_oracle(build_circulant(n, gens))
        assert inv.oracle == oracles.open_packing_number(n, adj)
        assert inv.witness == oracles.max_open_packing(n, adj)

    @pytest.mark.parametrize("n", range(7, 25))
    def test_regularity_upper_bound(self, n):
        assert open_packing_number_oracle(standard_circulant(n)).oracle <= n // 4


class TestTotalDominationOracle:
    def test_c8(self):
        inv = total_domination_number_oracle(standard_circulant(8))
        assert inv.oracle == 2
        assert inv.witness == (1, 2)

    def test_c10(self):
        assert total_domination_number_oracle(standard_circulant(10)).oracle == 4

    def test_k4(self):
        assert total_domination_number_oracle(build_circulant(4, [1, 2])).oracle == 2

    def test_witness_totally_dominates(self):
        for n in range(6, 16):
            g = standard_circulant(n)
            w = set(total_domination_number_oracle(g).witness)
            assert all(g.neighbors(v) & w for v in g.vertices())

    @pytest.mark.parametrize("n", range(5, 13))
    def test_matches_reference(self, n):
        adj = oracles.neighbors(n, oracles.normalized_distances(n, [1, 3]))
        inv = total_domination_number_oracle(standard_circulant(n))
        assert inv.oracle == oracles.min_total_dominating_size(n, adj)


class TestChromaticOracle:
    def test_c7_needs_four(self):
        assert chromatic_number_oracle(standard_circulant(7)).oracle == 4

    def test_bipartite_cases(self):
        assert chromatic_number_oracle(standard_circulant(6)).oracle == 2
        assert chromatic_number_oracle(standard_circulant(8)).oracle == 2

    def test_witness_is_proper_with_that_many_classes(self):
        for n in range(6, 16):
            g = standard_circulant(n)
            inv = chromatic_number_oracle(g)
            assert len(inv.witness) == inv.oracle
            assert is_proper(g, inv.witness)


class TestPackingStructure:
    def test_n16_two_edges_everywhere(self):
        rep = max_open_packing_structure(standard_circulant(16))
        assert rep.packing_number == 4
        assert rep.conforms
        assert all(len(p.induced_edges) == 2 for p in rep.packings)

    def test_n13_edge_plus_isolated(self):
        rep = max_open_packing_structure(standard_circulant(13))
        assert rep.conforms
        assert all(len(p.induced_edges) == 1 and len(p.isolated) == 1 for p in rep.packings)

    def test_n15_has_spread_counterexamples(self):
        # {1, 6, 11} is a maximum open packing inducing no edge at all, so
        # the expected 1-edge-plus-isolated shape does not hold universally
        rep = max_open_packing_structure(standard_circulant(15))
        assert not rep.conforms
        assert (1, 6, 11) in {p.vertices for p in rep.packings}

    def test_n10_spread_pair(self):
        rep = max_open_packing_structure(standard_circulant(10))
        assert not rep.conforms
        assert (1, 6) in {p.vertices for p in rep.packings}

    def test_rejects_non_standard(self):
        with pytest.raises(ValueError):
            max_open_packing_structure(build_circulant(12, [1, 4]))


class TestOracleLimits:
    def test_refusal_reports_limit(self):
        g = standard_circulant(25)
        with pytest.raises(OracleLimitError, match="25.*limit="):
            independence_number_oracle(g)
        with pytest.raises(OracleLimitError):
            open_packing_number_oracle(g)
        with pytest.raises(OracleLimitError):
            total_domination_number_oracle(g)

    def test_explicit_limit_override(self):
        g = standard_circulant(25)
        assert independence_number_oracle(g, limit=25).oracle == 11
