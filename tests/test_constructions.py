import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from circulant_tdc import (
    construct_tdc,
    formula_tdc,
    reduce_to_standard,
    standard_circulant,
    verify_construction,
)
from circulant_tdc.constructions import _residue_colors

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
        singleton_members = {c[0] for c in plan.coloring.as_lists() if len(c) == 1}
        assert plan.packing <= singleton_members

    @pytest.mark.parametrize("n", range(12, 20))
    def test_smallest_instantiation_of_each_residue(self, n):
        """The first n of every residue class gets an independent TDC check."""
        adj = oracles.neighbors(n, {1, 3})
        plan = construct_tdc(n)
        assert oracles.is_tdc_classes(n, adj, plan.coloring.as_lists()), plan.coloring.as_lists()
        assert len(plan.coloring) == formula_tdc(n)

    def test_matches_set_algebra(self):
        """The color array gives the classes, order and packing of the set algebra."""
        for n in range(12, 2001):
            packing, classes = oracles.residue_classes_reference(n)
            plan = construct_tdc(n)
            assert plan.packing == packing, n
            assert plan.coloring.as_lists() == [sorted(c) for c in classes], n

    @pytest.mark.parametrize("n", range(12, 40))
    def test_packing_is_open_packing(self, n):
        g = standard_circulant(n)
        packing = sorted(construct_tdc(n).packing)
        assert len(packing) == 2 * (n // 8)
        for i, a in enumerate(packing):
            for b in packing[i + 1:]:
                assert not (g.neighbors(a) & g.neighbors(b)), (n, a, b)


# the types of the vertices 8i+1..8i+8 away from the tail: two packing
# singletons, then the odd and even leftovers in turn
BLOCK = ["P", "P", "O", "E", "O", "E", "O", "E"]


def _types(n: int) -> list[str]:
    """The class type of each vertex of the construction for n >= 12.

    P is a packing singleton, O and E the odd and even leftover, and Tj the
    tail class j, counted from the first tail class.
    """
    color = _residue_colors(n)
    k, odd = n // 8, max(color) - 1
    names = ["P"] * (2 * k) + [f"T{j}" for j in range(odd - 2 * k)] + ["O", "E"]
    return list(map(names.__getitem__, color))


def _windows(types: list[str]) -> set[tuple[str, ...]]:
    """The cyclic windows of 7 types: each vertex with the 3 on either side."""
    n, ring = len(types), types + types[:6]
    return {tuple(ring[i : i + 7]) for i in range(n)}


class TestEveryN:
    """The construction is a TDC with formula_tdc(n) classes for every n >= 6.

    Read the construction for n >= 12 as its cyclic word of types (_types).
    Away from n = 12..15, where k = n // 8 = 1, the word for n + 8 is the
    word for n with BLOCK inserted after position 8: two more packing
    singletons, the tail classes unchanged as offsets below n, and three
    more members in each leftover.

    From n = 20 on, both leftovers have more than 4 members, the degree, so
    they dominate nothing.  A vertex's verdict then depends only on its
    window of the 3 types on either side, which name its neighbors v +- 1
    and v +- 3: an edge joins two vertices of one class iff their types are
    equal and not P, since every P is its own class; and v dominates a
    class iff some P is its neighbor, or the neighbors of type Tj number
    |Tj|, a size that depends only on n % 8.  For n >= 20 every window of
    the word for n + 8 occurs in the word for n: checked at n = 20..27, and
    past that the insertion identity keeps the set of windows the same
    (the words for n, n + 8 and n + 16 differ only by more copies of
    BLOCK).  So if the construction for n >= 20 is a TDC, so is the one
    for n + 8, and its class count grows by the 2 new singletons, as
    formula_tdc does.  The base, n = 6..27, is checked directly by
    TestVerifyConstruction.test_sweep_small.
    """

    def test_insertion_identity(self):
        types = {n: _types(n) for n in range(16, 2009)}
        for n in range(16, 2001):
            assert types[n + 8] == types[n][:8] + BLOCK + types[n][8:], n

    @pytest.mark.parametrize("n", range(20, 28))
    def test_windows_recur(self, n):
        types, grown = _types(n), _types(n + 8)
        assert min(types.count("O"), types.count("E")) > 4
        assert _windows(grown) <= _windows(types)

    def test_formula_grows_by_two(self):
        assert all(formula_tdc(n + 8) == formula_tdc(n) + 2 for n in range(12, 2001))


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

    @pytest.mark.parametrize("n", [*range(12, 20), 40007])
    def test_certificate_builds_no_class_sets(self, n):
        verdict = verify_construction(n)
        assert verdict.ok

    @pytest.mark.parametrize("n", range(100000, 100008))
    def test_large_n_every_residue(self, n):
        # the certificate is linear in n; an n^2-bit graph would need ~600 MB here
        assert verify_construction(n).ok

    def test_large_n_through_a_reduction(self):
        n = 100003
        verdict = verify_construction(n, reduce_to_standard(n, 5, 15))
        assert verdict.ok and verdict.num_classes == formula_tdc(n)
