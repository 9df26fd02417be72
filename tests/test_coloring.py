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


@st.composite
def mixed_size_colorings(draw, max_n=24):
    """A circulant C_n(S) with 1-3 distances, S, and classes of mixed sizes.

    The classes cut a random vertex order into runs whose sizes are drawn
    from 1, 2..degree and degree+1 upwards, so singletons, classes that can
    cover and classes too large to cover all occur; most are improper.
    Half the time the classes are a greedy proper coloring instead.
    """
    n = draw(st.integers(min_value=3, max_value=max_n))
    distances = draw(st.sets(st.integers(min_value=1, max_value=n // 2), min_size=1, max_size=3))
    g = build_circulant(n, sorted(distances))
    if draw(st.booleans()):
        greedy = random_greedy_coloring(g, draw(st.integers(0, 10**6)))
        return g, distances, greedy.as_lists()
    degree = g.degree
    order = draw(st.permutations(range(1, n + 1)))
    sizes = st.one_of(
        st.just(1), st.integers(2, max(2, degree)), st.integers(degree + 1, degree + 4)
    )
    classes, start = [], 0
    while start < n:
        size = draw(sizes)
        classes.append(order[start : start + size])
        start += size
    return g, distances, classes


class TestColoringValidation:
    def test_round_trip(self):
        c = Coloring.from_classes(8, [[1, 3, 5, 7], [2, 4, 6, 8]])
        assert len(c) == 2

    @staticmethod
    def _message(n, classes):
        with pytest.raises(ColoringError) as exc:
            Coloring.from_classes(n, classes)
        return str(exc.value)

    def test_rejects_empty_class(self):
        assert self._message(4, [[1, 2, 3, 4], []]) == "class 2 is empty"

    def test_rejects_duplicate_vertex(self):
        assert self._message(4, [[1, 2], [2, 3, 4]]) == "vertex 2 appears in more than one class"

    def test_rejects_missing_vertex(self):
        assert self._message(4, [[1, 2], [4]]) == "vertex 3 is not covered by any class"

    def test_rejects_out_of_range(self):
        for label in (0, 9):
            message = self._message(8, [[1, 2, label], [3, 4, 5, 6, 7, 8]])
            assert message == f"vertex {label} is outside 1..8"

    # a float label equal to an integer, like 2.0, hashes as that integer,
    # and True is an int subclass equal to 1; a string or None does not
    # even compare with the integer labels
    @pytest.mark.parametrize("label", [1.5, 2.0, "a", None, True])
    def test_rejects_non_integer_label(self, label):
        assert self._message(6, [[1, 3, 5], [label, 4, 6]]) == f"label {label!r} is not an integer"

    @pytest.mark.parametrize(
        "classes, message",
        [
            ([[1, 2], [], [3, 4, 5]], "class 2 is empty"),
            # the sizes sum to n, so only the union shows the repeat
            ([[1, 2], [2, 3]], "vertex 2 appears in more than one class"),
        ],
        ids=["empty-before-out-of-range", "repeat-before-missing"],
    )
    def test_reports_first_fault(self, classes, message):
        assert self._message(4, classes) == message

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_accepts_exactly_the_partitions(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        groups: dict[int, list[int]] = {}
        for v, label in enumerate(labels, start=1):
            groups.setdefault(label, []).append(v)
        classes = list(groups.values())
        # perturb a partition: add an empty class, or drop, add or replace a
        # label; a replaced label keeps the sizes summing to n
        for _ in range(data.draw(st.integers(0, 2))):
            kind = data.draw(st.sampled_from(["class", "drop", "add", "replace"]))
            idx = data.draw(st.integers(0, len(classes) - 1))
            label = data.draw(st.integers(-1, n + 2))
            if kind == "class":
                classes.insert(idx, [])
            elif kind == "drop":
                classes[idx] = classes[idx][1:]
            elif kind == "add":
                classes[idx] = classes[idx] + [label]
            elif classes[idx]:
                classes[idx] = [label] + classes[idx][1:]
        expected = oracles.is_partition(n, classes)
        try:
            c = Coloring.from_classes(n, classes)
        except ColoringError:
            assert not expected
        else:
            assert expected
            assert c.as_lists() == [sorted(set(cls)) for cls in classes]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_first_fault_matches_reference(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        groups: dict[int, list] = {}
        for v, label in enumerate(labels, start=1):
            groups.setdefault(label, []).append(v)
        classes = list(groups.values())
        # perturb the partition: an empty class, a float label, a label out
        # of range, a label copied from some class (a repeat within one class
        # is absorbed by the set), a missing vertex
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(["empty", "float", "range", "repeat", "missing"]))
            idx = data.draw(st.integers(0, len(classes) - 1))
            cls = classes[idx]
            if kind == "empty":
                classes.insert(idx, [])
            elif kind == "float" and cls:
                pos = data.draw(st.integers(0, len(cls) - 1))
                cls[pos] = data.draw(st.sampled_from([float(cls[pos]), cls[pos] + 0.5]))
            elif kind == "range":
                cls.append(data.draw(st.sampled_from([-1, 0, n + 1, n + 2])))
            elif kind == "repeat":
                other = classes[data.draw(st.integers(0, len(classes) - 1))]
                if other:
                    cls.append(data.draw(st.sampled_from(other)))
            elif kind == "missing" and cls:
                del cls[data.draw(st.integers(0, len(cls) - 1))]
        expected = oracles.first_partition_fault(n, classes)
        try:
            c = Coloring.from_classes(n, classes)
        except ColoringError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            # a class is a set: a label repeated within it counts once
            assert c.as_lists() == [sorted(set(cls)) for cls in classes]


class TestFromColors:
    @staticmethod
    def _message(n, color):
        with pytest.raises(ColoringError) as exc:
            Coloring.from_colors(n, color)
        return str(exc.value)

    def test_round_trip(self):
        c = Coloring.from_colors(6, [1, 0, 1, 0, 2, 0])
        assert len(c) == 3 and c.color == (1, 0, 1, 0, 2, 0)
        assert c.as_lists() == [[2, 4, 6], [1, 3], [5]]
        assert c == Coloring.from_classes(6, [[2, 4, 6], [1, 3], [5]])

    @pytest.mark.parametrize("color", [[0, 1, 0], [0, 1, 0, 1, 0]])
    def test_rejects_wrong_length(self, color):
        assert self._message(4, color) == f"{len(color)} colors given for 4 vertices"

    def test_rejects_unused_index(self):
        assert self._message(5, [0, 2, 0, 3, 3]) == "class 2 is empty: no vertex has color 1"

    @pytest.mark.parametrize("color", [-1, 4])
    def test_rejects_out_of_range_index(self, color):
        message = self._message(4, [0, 1, color, 1])
        assert message == f"color {color} of vertex 3 is outside 0..3"

    @pytest.mark.parametrize("color", [1.0, "1", None, True])
    def test_rejects_non_int_entry(self, color):
        message = self._message(4, [0, 1, 0, color])
        assert message == f"color {color!r} of vertex 4 is not an integer"

    @pytest.mark.parametrize("n", [6, 11, 12, 19, 100, 1001])
    def test_construction_array_gives_the_same_coloring(self, n):
        c = construct_tdc(n).coloring
        from_colors = Coloring.from_colors(n, c.color)
        from_classes = Coloring.from_classes(n, c.as_lists())
        assert from_colors == from_classes == c
        assert len(from_colors) == len(from_classes) and from_colors.as_lists() == c.as_lists()


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
        c = Coloring.from_classes(8, [[1, 3, 5, 7], [2, 4, 6, 8]])
        rep = is_tdc(g, c)
        assert rep.tdc and rep.proper
        assert [len(common_neighborhood(g, cls)) for cls in c.as_lists()] == [4, 4]
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
            c = random_greedy_coloring(g, seed)
            if is_tdc(g, c).tdc:
                assert sum(len(common_neighborhood(g, cls)) for cls in c.as_lists()) >= n

    @settings(max_examples=150, deadline=None)
    @given(case=circulant_colorings())
    def test_matches_reference_verdict(self, case):
        g, distances, c = case
        n = g.n
        adj = oracles.neighbors(n, distances)
        rep = is_tdc(g, c)
        classes = c.as_lists()
        assert rep.proper == oracles.is_proper_classes(adj, classes)
        ref_cn = [oracles.common_neighbors(adj, cls) for cls in classes]
        covered = set().union(*ref_cn)
        assert rep.uncovered == tuple(sorted(set(range(1, n + 1)) - covered))
        assert rep.tdc == oracles.is_tdc_classes(n, adj, classes)
        for cls, cn in zip(classes, ref_cn):
            assert common_neighborhood(g, cls) == cn

    @settings(max_examples=200, deadline=None)
    @given(case=mixed_size_colorings())
    def test_matches_reference_on_color_arrays(self, case):
        g, distances, classes = case
        n = g.n
        color = [0] * n
        for idx, cls in enumerate(classes):
            for v in cls:
                color[v - 1] = idx
        c = Coloring.from_colors(n, color)
        adj = oracles.neighbors(n, distances)
        rep = is_tdc(g, c)
        covered = set().union(*(oracles.common_neighbors(adj, cls) for cls in classes))
        assert rep.proper == oracles.is_proper_classes(adj, classes)
        assert rep.uncovered == tuple(sorted(set(range(1, n + 1)) - covered))
        assert rep.tdc == oracles.is_tdc_classes(n, adj, classes)

    def test_leaves_masks_unbuilt(self):
        g = standard_circulant(10**5)
        report = is_tdc(g, construct_tdc(10**5).coloring)
        assert report.tdc
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
