import re
from itertools import combinations

import pytest

import oracles
from circulant_tdc import (
    BudgetExceededError,
    CirculantGraph,
    OracleLimitError,
    SearchBudget,
    build_circulant,
    common_neighborhood,
    construct_tdc,
    formula_tdc,
    is_tdc,
    standard_circulant,
    tdc_feasible,
    tdc_number_exact,
)
from circulant_tdc.graphs import is_standard_13
from circulant_tdc.solver import chromatic_number_oracle, total_domination_number_oracle


# every connection set of 1-3 distances on up to 9 vertices, and C_n(1,3) up
# to 12; the id is n alone for C_n(1,3)
PLAIN_CASES = [
    pytest.param(
        n,
        dists,
        id=str(n)
        if set(dists) == oracles.normalized_distances(n, (1, 3))
        else f"{n}-{','.join(map(str, dists))}",
    )
    for n in range(3, 10)
    for r in (1, 2, 3)
    for dists in combinations(range(1, n // 2 + 1), r)
] + [pytest.param(n, (1, 3), id=str(n)) for n in range(10, 13)]


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

    # C_34(1,3) with 11 classes is infeasible after a tree of 29265 nodes
    @pytest.mark.parametrize("max_nodes", [1, 5, 777, 4095, 4096, 20000, 29264])
    def test_node_budget_stops_at_the_next_node(self, max_nodes):
        # the node that exceeds the budget is counted, then the search stops
        out = tdc_feasible(standard_circulant(34), 11, SearchBudget(max_nodes=max_nodes))
        assert (out.status, out.nodes_explored) == ("budget_exceeded", max_nodes + 1)

    def test_node_budget_equal_to_the_tree_is_enough(self):
        out = tdc_feasible(standard_circulant(34), 11, SearchBudget(max_nodes=29265))
        assert (out.status, out.nodes_explored) == ("infeasible", 29265)

    def test_deadline_is_polled_every_4096_nodes(self):
        out = tdc_feasible(standard_circulant(34), 11, SearchBudget(max_seconds=1e-9))
        assert (out.status, out.nodes_explored) == ("budget_exceeded", 4096)

    @pytest.mark.parametrize(
        "field,value",
        [("max_nodes", 0), ("max_nodes", -5), ("max_nodes", 100.5), ("max_nodes", 100.0),
         ("max_nodes", True), ("max_seconds", float("nan")), ("max_seconds", 0.0),
         ("max_seconds", -1.0), ("max_seconds", True), ("max_seconds", "5")],
    )
    def test_rejects_bad_budget(self, field, value):
        with pytest.raises(ValueError, match="budget"):
            SearchBudget(**{field: value})

    def test_rejects_bad_color_count(self):
        with pytest.raises(ValueError):
            tdc_feasible(standard_circulant(9), 0)
        with pytest.raises(ValueError):
            tdc_feasible(standard_circulant(9), 10)
        # a bool or a non-int is named, not run as a count or failed deep in the search
        for bad in (True, 2.5, 3.0, "3"):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                tdc_feasible(standard_circulant(12), bad)

    @pytest.mark.parametrize("n,dists", PLAIN_CASES)
    def test_agrees_with_plain_search(self, n, dists):
        """Pruned search vs pruning-free reference, all class counts.

        The prunes are sound and the branching order is the reference's, so
        the search must return the reference's first coloring, not just agree
        on whether one exists.
        """
        adj = oracles.neighbors(n, oracles.normalized_distances(n, dists))
        g = build_circulant(n, dists)
        for k in range(1, n + 1):
            out = tdc_feasible(g, k)
            witness = out.coloring.as_lists() if out.coloring else None
            assert witness == oracles.tdc_feasible_plain(n, adj, k), (n, dists, k)


# (n, connection set, k) -> (status, nodes_explored, witness classes).  Any
# change to the branching order or to the pruning tests moves these numbers;
# a change that only makes nodes cheaper must keep them.
SEARCH_TREE = {
    (12, (1, 3), 5): ("infeasible", 177, None),
    (12, (1, 3), 6): ("feasible", 18, [[1, 3, 5, 7], [2, 4, 6, 8], [9], [10], [11], [12]]),
    (16, (1, 3), 6): (
        "feasible", 63, [[1, 3, 5, 9, 11, 13], [2, 4, 6, 10, 12, 14], [7], [8], [15], [16]]
    ),
    (20, (1, 3), 7): ("infeasible", 338, None),
    (20, (1, 3), 8): (
        "feasible",
        57,
        [[1, 3, 5, 7], [2, 4, 6, 8], [9], [10], [11, 13, 15, 17], [12, 14, 16, 18], [19], [20]],
    ),
    (13, (2, 6), 5): ("infeasible", 429, None),
    (17, (2, 6), 7): (
        "feasible", 26, [[1, 2, 5, 6, 9, 10], [3, 4, 7, 8, 11, 12], [13], [14], [15], [16], [17]]
    ),
    (14, (1, 4), 6): ("feasible", 21, [[1, 3, 6, 12], [2, 4, 7, 13], [5, 8, 14], [9], [10], [11]]),
    (18, (1, 4), 7): ("infeasible", 1205, None),
    (18, (1, 4), 8): (
        "feasible",
        115,
        [[1, 3, 6, 16], [2, 4, 7, 12, 14], [5, 8, 13, 15], [9], [10], [11], [17], [18]],
    ),
    (20, (1, 4), 7): ("infeasible", 279, None),
    (16, (2, 5), 6): ("infeasible", 568, None),
    (16, (2, 5), 7): (
        "feasible", 530, [[1, 2, 5, 11], [3, 6, 12, 15], [4, 7, 13, 16], [8], [9], [10], [14]]
    ),
    (19, (2, 5), 7): ("infeasible", 1173, None),
    (19, (2, 5), 8): (
        "feasible",
        526,
        [[1, 2, 5, 9, 13, 17], [3, 4, 7, 11, 15, 19], [6, 18], [8], [10], [12], [14], [16]],
    ),
    # levels whose disjoint-needs counts often repeat a union already walked
    # (55% of lookups at C_25(4,12) with 9 classes): each of these trees
    # moves if a count is remembered under the wrong vertex
    (25, (4, 12), 8): ("infeasible", 1735, None),
    (25, (4, 12), 9): (
        "feasible",
        27610,
        [[1, 2, 3, 4, 10, 11, 20, 21], [5], [6, 7, 8, 13, 14, 15, 22, 24], [9, 17, 25], [12], [16],
         [18], [19], [23]],
    ),
    (21, (4, 12), 8): (
        "feasible",
        5030,
        [[1, 2, 4, 9, 12, 15, 20], [3, 5, 6, 8, 13, 16, 19], [7], [10, 18], [11], [14], [17], [21]],
    ),
}

# total nodes of tdc_number_exact(standard_circulant(n)) over the levels it searches
EXACT_NODES = {
    6: 0, 7: 0, 8: 0, 9: 5, 10: 0, 11: 16, 12: 189, 13: 251, 14: 34, 15: 40,
    16: 12, 17: 345, 18: 371, 19: 3940, 20: 350,
}


class TestSearchTree:
    @pytest.mark.parametrize("level", sorted(SEARCH_TREE), ids=str)
    def test_level_is_pinned(self, level):
        n, connection_set, k = level
        out = tdc_feasible(build_circulant(n, connection_set), k)
        witness = out.coloring.as_lists() if out.coloring else None
        assert (out.status, out.nodes_explored, witness) == SEARCH_TREE[level]

    def test_exact_node_totals_are_pinned(self):
        nodes = {n: tdc_number_exact(standard_circulant(n)).nodes_explored for n in EXACT_NODES}
        assert nodes == EXACT_NODES


class TestExactValue:
    @pytest.mark.parametrize("n", range(6, 15))
    def test_matches_formula_small(self, n):
        out = tdc_number_exact(standard_circulant(n))
        assert out.chi_dt == formula_tdc(n)

    @pytest.mark.parametrize("n", range(19, 41))
    def test_matches_formula_past_default_limit(self, n):
        # every class count below the formula is exhausted, so each value
        # here rests on a search, not on the closed form
        g = standard_circulant(n)
        out = tdc_number_exact(g, limit=40)
        assert out.chi_dt == formula_tdc(n)
        assert is_tdc(g, out.witness).tdc

    def test_n18_boundary_value(self):
        # the one point in the solvable range where the closed form overshoots:
        # a 7-class coloring exists (its class common neighborhoods tile the
        # vertex set exactly) while the case formula gives 8
        g = standard_circulant(18)
        out = tdc_number_exact(g)
        assert out.chi_dt == 7
        assert formula_tdc(18) == 8
        assert is_tdc(g, out.witness).tdc
        # the scan stops below the construction, whose bound is still reported
        assert out.levels == ((6, "infeasible"), (7, "feasible"))
        assert (out.upper_bound_used, out.upper_bound_source) == (8, "construction")
        assert sum(len(common_neighborhood(g, cls)) for cls in out.witness.as_lists()) == 18
        adj = oracles.neighbors(18, {1, 3})
        assert oracles.is_tdc_classes(18, adj, out.witness.as_lists())

    @pytest.mark.parametrize("n", [6, 7, 8, 10])
    def test_construction_at_the_lower_bound_is_not_searched(self, n):
        out = tdc_number_exact(standard_circulant(n))
        assert out.lower_bound_used == out.upper_bound_used == out.chi_dt
        assert out.levels == ((out.chi_dt, "feasible"),)
        assert out.nodes_explored == 0
        assert out.witness == construct_tdc(n).coloring

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
        with pytest.raises(OracleLimitError, match="limit="):
            tdc_number_exact(standard_circulant(25))

    @pytest.mark.parametrize("search", [tdc_number_exact, total_domination_number_oracle])
    def test_edgeless_graph_has_no_total_domination(self, search):
        with pytest.raises(ValueError, match="isolated vertex"):
            search(CirculantGraph(6, ()))

    def test_levels_recorded(self):
        out = tdc_number_exact(standard_circulant(12))
        statuses = dict(out.levels)
        assert statuses[4] == "infeasible" and statuses[5] == "infeasible"
        assert statuses[6] == "feasible"


class TestBracket:
    """Off the standard graph the scan runs from the lower bound to gamma_t + chi."""

    # every circulant with 1-3 distances on n vertices except C_n(1,3)
    @pytest.mark.parametrize("n", range(5, 15))
    def test_levels_climb_to_the_first_feasible_one(self, n):
        graphs = [
            build_circulant(n, dists)
            for r in (1, 2, 3)
            for dists in combinations(range(1, n // 2 + 1), r)
        ]
        for g in graphs:
            if is_standard_13(g):
                continue
            out = tdc_number_exact(g)
            gamma_t = total_domination_number_oracle(g).oracle
            assert out.upper_bound_used == gamma_t + chromatic_number_oracle(g).oracle
            ks = [k for k, _ in out.levels]
            assert ks == list(range(out.lower_bound_used, out.lower_bound_used + len(ks)))
            assert out.levels[-1] == (out.chi_dt, "feasible")
            assert all(status == "infeasible" for _, status in out.levels[:-1])

    def test_value_at_the_upper_bound_is_searched(self):
        # C_19(2,6), an isomorph of C_19(1,3) in its own vertex order, has its
        # value at gamma_t + chi: that level is searched, not assumed
        out = tdc_number_exact(build_circulant(19, [2, 6]))
        assert out.levels == ((5, "infeasible"), (6, "infeasible"), (7, "infeasible"),
                              (8, "feasible"))
        assert (out.upper_bound_used, out.upper_bound_source) == (8, "total-domination+chromatic")
        assert out.nodes_explored == 3736
