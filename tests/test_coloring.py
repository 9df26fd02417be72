import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from circulant_tdc import (
    Coloring,
    ColoringError,
    build_circulant,
    common_neighborhood,
    construct_tdc,
    is_proper,
    is_tdc,
    standard_circulant,
)
from oracles import class_size_capacity_check, random_greedy_coloring


@st.composite
def circulant_colorings(draw, max_n=40):
    """A circulant graph C_n(S), its distance set and any partition of {1..n}.

    n = 3..5 gives the degenerate graphs and d = n/2 the diametral distance;
    partitions are greedy proper colorings or arbitrary labellings, which
    are mostly improper.
    """
    n = draw(st.integers(min_value=3, max_value=max_n))
    distances = draw(st.sets(st.integers(min_value=1, max_value=n // 2), min_size=1, max_size=4))
    g = build_circulant(n, sorted(distances))
    if draw(st.booleans()):
        coloring = random_greedy_coloring(g, draw(st.integers(0, 10**6)))
    else:
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        groups: dict[int, list[int]] = {}
        for v, label in enumerate(labels, start=1):
            groups.setdefault(label, []).append(v)
        coloring = Coloring.from_classes(n, groups.values())
    return g, distances, coloring


class TestColoringValidation:
    def test_round_trip(self):
        c = Coloring.from_classes(8, [[1, 3, 5, 7], [2, 4, 6, 8]])
        assert len(c) == 2

    def test_rejects_empty_class(self):
        with pytest.raises(ColoringError, match="empty"):
            Coloring.from_classes(4, [[1, 2, 3, 4], []])

    def test_rejects_duplicate_vertex(self):
        with pytest.raises(ColoringError, match="vertex 2"):
            Coloring.from_classes(4, [[1, 2], [2, 3, 4]])

    def test_rejects_missing_vertex(self):
        with pytest.raises(ColoringError, match="vertex 3"):
            Coloring.from_classes(4, [[1, 2], [4]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ColoringError, match="vertex 9"):
            Coloring.from_classes(8, [[1, 2, 9], [3, 4, 5, 6, 7, 8]])


class TestIsProper:
    def test_bipartition_c8(self):
        g = standard_circulant(8)
        assert is_proper(g, Coloring.from_classes(8, [[1, 3, 5, 7], [2, 4, 6, 8]]))

    def test_adjacent_pair_in_one_class(self):
        g = standard_circulant(8)
        c = Coloring.from_classes(8, [[1, 2]] + [[v] for v in range(3, 9)])
        assert not is_proper(g, c)

    def test_table_coloring_c9(self):
        g = standard_circulant(9)
        assert is_proper(g, Coloring.from_classes(9, [[1, 8], [2, 9], [3, 5, 7], [4, 6]]))

    def test_rejects_wrong_order(self):
        g = standard_circulant(8)
        c = Coloring.from_classes(9, [[v] for v in range(1, 10)])
        with pytest.raises(ColoringError):
            is_proper(g, c)


class TestCommonNeighborhood:
    def test_distance_two_pair_c12(self):
        g = standard_circulant(12)
        assert common_neighborhood(g, {1, 3}) == {2, 4, 12}

    def test_diametral_pair_c12(self):
        # distance 6 is diametral on 12 vertices; both wraparound common
        # neighbors survive, value frozen from the reference oracle
        g = standard_circulant(12)
        assert common_neighborhood(g, {1, 7}) == {4, 10}

    def test_singleton_gives_open_neighborhood(self):
        g = standard_circulant(10)
        for v in g.vertices():
            assert common_neighborhood(g, {v}) == g.neighbors(v)

    def test_rejects_empty_class(self):
        with pytest.raises(ColoringError):
            common_neighborhood(standard_circulant(8), set())

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=20),
        data=st.data(),
    )
    def test_matches_reference(self, n, data):
        g = standard_circulant(n)
        cls = data.draw(
            st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=4)
        )
        ref = oracles.common_neighbors(oracles.neighbors(n, {1, 3}), cls)
        assert common_neighborhood(g, cls) == ref


class TestIsTdc:
    def test_c8_bipartition(self):
        g = standard_circulant(8)
        rep = is_tdc(g, Coloring.from_classes(8, [[1, 3, 5, 7], [2, 4, 6, 8]]))
        assert rep.tdc and rep.proper
        assert [r.cn_size for r in rep.classes] == [4, 4]
        assert rep.uncovered == ()

    def test_c9_table(self):
        g = standard_circulant(9)
        rep = is_tdc(g, Coloring.from_classes(9, [[1, 8], [2, 9], [3, 5, 7], [4, 6]]))
        assert rep.tdc

    def test_c10_singletons(self):
        g = standard_circulant(10)
        rep = is_tdc(g, Coloring.from_classes(10, [[v] for v in range(1, 11)]))
        assert rep.tdc

    def test_uncovered_is_sorted_and_explains_failure(self):
        g = standard_circulant(12)
        rep = is_tdc(g, Coloring.from_classes(12, [[1, 3, 5, 7, 9, 11], [2, 4, 6, 8, 10, 12]]))
        assert rep.proper and not rep.tdc
        assert list(rep.uncovered) == sorted(rep.uncovered)
        assert len(rep.uncovered) == 12  # both classes have empty CN

    @pytest.mark.parametrize("n", range(9, 17))
    def test_cn_sum_at_least_n_when_tdc(self, n):
        g = standard_circulant(n)
        for seed in range(60):
            rep = is_tdc(g, random_greedy_coloring(g, seed))
            if rep.tdc:
                assert rep.cn_size_sum >= n

    @settings(max_examples=150, deadline=None)
    @given(case=circulant_colorings())
    def test_matches_reference_verdict(self, case):
        g, distances, c = case
        n = g.n
        adj = oracles.neighbors(n, distances)
        rep = is_tdc(g, c)
        assert rep.proper == oracles.is_proper_classes(adj, c.classes)
        assert len(rep.classes) == len(c.classes)
        covered = set()
        for rec, cls in zip(rep.classes, c.classes):
            cn = oracles.common_neighbors(adj, cls)
            assert rec.vertices == tuple(sorted(cls)) and rec.size == len(cls)
            assert rec.common_neighborhood == tuple(sorted(cn)) and rec.cn_size == len(cn)
            covered |= cn
        assert rep.uncovered == tuple(sorted(set(range(1, n + 1)) - covered))
        assert rep.tdc == oracles.is_tdc_classes(n, adj, c.as_lists())

    def test_leaves_masks_unbuilt(self):
        g = standard_circulant(10**5)
        assert is_tdc(g, construct_tdc(10**5).coloring).tdc
        assert "masks" not in vars(g)


class TestCapacityCheck:
    def test_c9_table(self):
        g = standard_circulant(9)
        c = Coloring.from_classes(9, [[1, 8], [2, 9], [3, 5, 7], [4, 6]])
        assert class_size_capacity_check(g, c)

    def test_c12_bipartition_large_classes(self):
        g = standard_circulant(12)
        c = Coloring.from_classes(12, [[1, 3, 5, 7, 9, 11], [2, 4, 6, 8, 10, 12]])
        assert class_size_capacity_check(g, c)

    def test_c10_construction(self):
        g = standard_circulant(10)
        c = Coloring.from_classes(10, [[1], [2], [3, 5, 7, 9], [4, 6, 8, 10]])
        assert class_size_capacity_check(g, c)

    def test_rejects_small_n(self):
        g = standard_circulant(8)
        c = Coloring.from_classes(8, [[1, 3, 5, 7], [2, 4, 6, 8]])
        with pytest.raises(ValueError, match="n >= 9"):
            class_size_capacity_check(g, c)

    def test_rejects_improper(self):
        g = standard_circulant(9)
        c = Coloring.from_classes(9, [[1, 2], [3, 5, 7, 9], [4, 6, 8]])
        with pytest.raises(ColoringError, match="proper"):
            class_size_capacity_check(g, c)

    @pytest.mark.parametrize("n", range(9, 17))
    def test_holds_for_random_proper_colorings(self, n):
        g = standard_circulant(n)
        for seed in range(100):
            assert class_size_capacity_check(g, random_greedy_coloring(g, seed)), (n, seed)


class TestRandomGreedyColoring:
    def test_deterministic_per_seed(self):
        g = standard_circulant(14)
        assert random_greedy_coloring(g, 7) == random_greedy_coloring(g, 7)

    def test_always_proper(self):
        g = standard_circulant(13)
        for seed in range(50):
            assert is_proper(g, random_greedy_coloring(g, seed))
