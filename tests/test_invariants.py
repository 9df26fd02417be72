import random
from itertools import combinations

import pytest

import oracles
from circulant_tdc import (
    OracleLimitError,
    build_circulant,
    chromatic_number_oracle,
    independence_number_formula,
    independence_number_oracle,
    is_proper,
    open_packing_number_formula,
    open_packing_number_oracle,
    standard_circulant,
    total_domination_number_formula,
    total_domination_number_oracle,
)
from circulant_tdc.solver import (
    _clique_cover_tops,
    _first_independent_set,
    _independence_window_bound,
    _packing_graph,
)


# C_n(1,3) cases are named by n alone, other connection sets "n-gens"; an n
# where two generators give the same circular distance is skipped
REFERENCE_CASES = [pytest.param(n, (1, 3), id=str(n)) for n in range(5, 13)] + [
    pytest.param(n, gens, id=f"{n}-{','.join(map(str, gens))}")
    for gens in ((1, 2), (2, 5), (1, 4), (1, 4, 6))
    for n in range(5, 14)
    if len(oracles.normalized_distances(n, gens)) == len(gens)
]

# every connection set of 1-3 circular distances for n = 5..14, named like
# REFERENCE_CASES (C_n(1,3) by n alone)
ALL_SMALL_CASES = [
    pytest.param(
        n,
        dists,
        id=str(n)
        if set(dists) == oracles.normalized_distances(n, (1, 3))
        else f"{n}-{','.join(map(str, dists))}",
    )
    for n in range(5, 15)
    for r in (1, 2, 3)
    for dists in combinations(range(1, n // 2 + 1), r)
]

# ALL_SMALL_CASES, plus the REFERENCE_CASES that name one of its graphs by
# other generators (C_6(2,5) is C_6(1,2)), so that their ids stay
_ALL_SMALL_IDS = {case.id for case in ALL_SMALL_CASES}
WITNESS_CASES = ALL_SMALL_CASES + [
    case for case in REFERENCE_CASES if case.id not in _ALL_SMALL_IDS
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

    def test_c9(self):
        assert independence_number_oracle(standard_circulant(9)).oracle == 3

    def test_c4_cycle(self):
        # the 4-cycle is the degenerate standard-family member at n=4
        inv = independence_number_oracle(build_circulant(4, [1]))
        assert independence_number_formula(4) == 2
        assert inv.oracle == 2

    def test_witness_is_independent(self):
        for n in range(6, 16):
            g = standard_circulant(n)
            inv = independence_number_oracle(g)
            w = inv.witness
            assert all(b not in g.neighbors(a) for i, a in enumerate(w) for b in w[i + 1:])

    @pytest.mark.parametrize("n,gens", WITNESS_CASES)
    def test_matches_reference(self, n, gens):
        adj = oracles.neighbors(n, oracles.normalized_distances(n, gens))
        inv = independence_number_oracle(build_circulant(n, gens))
        assert inv.oracle == oracles.max_independent_size(n, adj)
        assert inv.witness == oracles.max_independent_set(n, adj)


class TestOpenPackingOracle:
    def test_c14(self):
        inv = open_packing_number_oracle(standard_circulant(14))
        assert inv.oracle == 2

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
        assert open_packing_number_formula(4) == 1
        assert inv.oracle == 2

    def test_witness_neighborhoods_disjoint(self):
        for n in range(6, 18):
            g = standard_circulant(n)
            w = open_packing_number_oracle(g).witness
            for i, a in enumerate(w):
                for b in w[i + 1:]:
                    assert not (g.neighbors(a) & g.neighbors(b))

    @pytest.mark.parametrize("n,gens", WITNESS_CASES)
    def test_matches_reference(self, n, gens):
        adj = oracles.neighbors(n, oracles.normalized_distances(n, gens))
        inv = open_packing_number_oracle(build_circulant(n, gens))
        assert inv.oracle == oracles.open_packing_number(n, adj)
        assert inv.witness == oracles.max_open_packing(n, adj)

    @pytest.mark.parametrize("n", range(7, 25))
    def test_regularity_upper_bound(self, n):
        assert open_packing_number_oracle(standard_circulant(n)).oracle <= n // 4


class TestPackingGraph:
    @pytest.mark.parametrize("n", range(3, 21))
    def test_joins_exactly_the_pairs_with_a_common_neighbour(self, n):
        # every connection set of 1-3 circular distances on n vertices
        for r in (1, 2, 3):
            for dists in combinations(range(1, n // 2 + 1), r):
                shared = oracles.shared_neighbour_graph(oracles.neighbors(n, set(dists)))
                expected = [sum(1 << (w - 1) for w in shared[u]) for u in range(1, n + 1)]
                assert list(_packing_graph(build_circulant(n, dists)).masks) == expected, dists


def _brute_alpha(adj, vertices):
    """Largest independent subset of `vertices` under dict-of-set adjacency."""
    for size in range(len(vertices), 0, -1):
        for subset in combinations(vertices, size):
            if all(b not in adj[a] for a, b in combinations(subset, 2)):
                return size
    return 0


class TestCliqueCoverBound:
    @pytest.mark.parametrize(
        "n,gens",
        [
            pytest.param(n, gens, id=f"{n}-{','.join(map(str, gens))}")
            for n in (7, 9, 11, 12)
            for gens in ((1, 3), (1, 2), (2, 3), (1, 2, 4))
        ],
    )
    def test_bounds_every_suffix_of_avail(self, n, gens):
        # the searches read the number of tops >= v as a bound on the
        # vertices of avail from v up, in the graph and in its packing
        # graph (whose independent sets are open packings)
        g = build_circulant(n, gens)
        adj = oracles.neighbors(n, oracles.normalized_distances(n, gens))
        shared = oracles.shared_neighbour_graph(adj)
        rng = random.Random(n * 100 + sum(gens))
        for masks, graph_adj in ((g.masks, adj), (_packing_graph(g).masks, shared)):
            for _ in range(20):
                avail = rng.getrandbits(n)
                tops = _clique_cover_tops(list(masks), avail)
                assert tops == sorted(set(tops), reverse=True)
                members = [v for v in range(n) if avail >> v & 1]
                for i, v in enumerate(members):
                    bound = sum(1 for t in tops if t >= v)
                    assert bound >= _brute_alpha(graph_adj, [u + 1 for u in members[i:]])


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

    @pytest.mark.parametrize("n,dists", ALL_SMALL_CASES)
    def test_matches_reference(self, n, dists):
        adj = oracles.neighbors(n, set(dists))
        inv = total_domination_number_oracle(build_circulant(n, dists))
        witness = oracles.min_total_dominating_set(n, adj)
        assert (inv.oracle, inv.witness) == (len(witness), witness)

    @pytest.mark.parametrize("n", range(25, 65))
    def test_formula_past_default_limit(self, n):
        # without the disjoint-needs prune the search takes over a minute at
        # n = 50, so this also guards the prune; the independence and open
        # packing oracles, whose closed forms hold for every n >= 7, ride along
        g = standard_circulant(n)
        for oracle, formula in (
            (total_domination_number_oracle, total_domination_number_formula),
            (independence_number_oracle, independence_number_formula),
            (open_packing_number_oracle, open_packing_number_formula),
        ):
            assert oracle(g, limit=64).oracle == formula(n), oracle.__name__


def _connection_sets(n):
    """Every connection set of 1-3 circular distances on n vertices."""
    return [dists for r in (1, 2, 3) for dists in combinations(range(1, n // 2 + 1), r)]


class TestVertexTransitivity:
    @pytest.mark.parametrize("n", range(4, 21))
    def test_window_bounds_are_sound(self, n):
        # checked by one search at the size just past each bound, from every
        # vertex and without a start bound: no independent set (open
        # packing) above the alpha bound; C_2k(k) has an edgeless packing
        # graph, with no window
        for dists in _connection_sets(n):
            g = build_circulant(n, dists)
            for h in (g, _packing_graph(g)):
                h_masks = list(h.masks)
                bound = _independence_window_bound(h, h_masks)
                assert _first_independent_set(h_masks, h.full_mask, bound + 1) is None, (dists, h)
                assert h.connection_set or bound == n

    @pytest.mark.parametrize("n", range(4, 21))
    def test_witnesses_contain_vertex_1(self, n):
        # some rotation of any independent, packing or total dominating set
        # holds vertex 1, so the lex-first one of each size does too
        for dists in _connection_sets(n):
            g = build_circulant(n, dists)
            for oracle in (
                independence_number_oracle,
                open_packing_number_oracle,
                total_domination_number_oracle,
            ):
                assert oracle(g).witness[0] == 1, (dists, oracle.__name__)


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

    # ALL_SMALL_CASES, plus the graphs of the exact workload past n = 14
    @pytest.mark.parametrize(
        "n,dists",
        ALL_SMALL_CASES
        + [pytest.param(19, (2, 6), id="19-2,6")]
        + [pytest.param(n, (1, 4), id=f"{n}-1,4") for n in range(20, 24)]
        + [pytest.param(25, (4, 12), id="25-4,12")],
    )
    def test_matches_reference(self, n, dists):
        inv = chromatic_number_oracle(build_circulant(n, dists), limit=n)
        k, classes = oracles.chromatic_number(n, oracles.neighbors(n, set(dists)))
        assert (inv.oracle, inv.witness.as_lists()) == (k, classes)


class TestPackingStructure:
    def test_n16_two_edges_everywhere(self):
        rep = oracles.max_open_packing_structure(standard_circulant(16))
        assert rep.packing_number == 4
        assert rep.conforms
        assert all(len(p.induced_edges) == 2 for p in rep.packings)

    def test_n13_edge_plus_isolated(self):
        rep = oracles.max_open_packing_structure(standard_circulant(13))
        assert rep.conforms
        assert all(len(p.induced_edges) == 1 and len(p.isolated) == 1 for p in rep.packings)

    def test_n15_has_spread_counterexamples(self):
        # {1, 6, 11} is a maximum open packing inducing no edge at all, so
        # the expected 1-edge-plus-isolated shape does not hold universally
        rep = oracles.max_open_packing_structure(standard_circulant(15))
        assert not rep.conforms
        assert (1, 6, 11) in {p.vertices for p in rep.packings}

    def test_n10_spread_pair(self):
        rep = oracles.max_open_packing_structure(standard_circulant(10))
        assert not rep.conforms
        assert (1, 6) in {p.vertices for p in rep.packings}

    def test_rejects_non_standard(self):
        with pytest.raises(ValueError):
            oracles.max_open_packing_structure(build_circulant(12, [1, 4]))


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
