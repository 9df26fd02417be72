import random
import re
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from circulant_tdc import (
    GraphConstructionError,
    build_circulant,
    circular_distance,
    reduce_to_standard,
    standard_circulant,
    standard_connection_set,
    verify_isomorphism,
)


class TestBuildCirculant:
    def test_c6_is_k33(self):
        g = build_circulant(6, [1, 3])
        assert g.degree == 3
        odds, evens = {1, 3, 5}, {2, 4, 6}
        for o in odds:
            assert g.neighbors(o) == frozenset(evens)

    def test_c8_neighborhood(self):
        g = build_circulant(8, [1, 3])
        assert g.degree == 4
        assert sorted(g.neighbors(1)) == [2, 4, 6, 8]

    def test_c5_12_is_complete(self):
        g = build_circulant(5, [1, 2])
        assert all(g.masks[i - 1] >> (j - 1) & 1 for i, j in combinations(range(1, 6), 2))

    def test_generator_normalization(self):
        # distance 3 and distance n-3 give the same graph
        a = build_circulant(14, [1, 3])
        b = build_circulant(14, [1, 11])
        assert a.connection_set == b.connection_set == (1, 3)
        assert a.masks == b.masks

    def test_rejects_small_n(self):
        with pytest.raises(GraphConstructionError):
            build_circulant(2, [1])

    def test_rejects_zero_generator(self):
        with pytest.raises(GraphConstructionError, match="self-loop"):
            build_circulant(6, [1, 6])

    def test_rejects_duplicate_after_normalization(self):
        with pytest.raises(GraphConstructionError, match="duplicates"):
            build_circulant(8, [1, 7])
        with pytest.raises(GraphConstructionError, match="duplicates"):
            build_circulant(4, [1, 3])

    def test_rejects_empty_generators(self):
        with pytest.raises(GraphConstructionError):
            build_circulant(8, [])

    # (n, generators, the value the error names)
    @pytest.mark.parametrize(
        "n,generators,bad",
        [(12.0, [1, 3], 12.0), (True, [1], True), (12, [1.0, 3], 1.0), (12, [True, 3], True),
         (12, [1, "3"], "3")],
    )
    def test_rejects_a_non_integer(self, n, generators, bad):
        with pytest.raises(GraphConstructionError, match=re.escape(repr(bad))):
            build_circulant(n, generators)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=40),
        raw=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=4),
    )
    def test_regularity_symmetry_irreflexivity(self, n, raw):
        distances = oracles.normalized_distances(n, raw)
        if len(distances) != len(raw):
            return  # collapsing generator lists are rejected by the builder
        g = build_circulant(n, raw)
        s = set(g.connection_set)
        expected_degree = 2 * len(s) - 1 if n % 2 == 0 and n // 2 in s else 2 * len(s)
        for v in g.vertices():
            assert len(g.neighbors(v)) == expected_degree
            assert v not in g.neighbors(v)
            for u in g.neighbors(v):
                assert v in g.neighbors(u)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=3, max_value=40), data=st.data())
    def test_lazy_masks_match_reference(self, n, data):
        distances = data.draw(
            st.sets(st.integers(min_value=1, max_value=n // 2), min_size=1, max_size=4)
        )
        g = build_circulant(n, sorted(distances))
        ref = oracles.neighbors(n, distances)
        assert "masks" not in vars(g)
        assert g.degree == len(ref[1])
        for v in g.vertices():
            assert {u for u in g.vertices() if g.masks[v - 1] >> (u - 1) & 1} == ref[v]
            assert g.neighbors(v) == ref[v]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=3, max_value=60))
    def test_matches_reference_adjacency(self, n):
        g = standard_circulant(n)
        ref = oracles.neighbors(n, oracles.normalized_distances(n, [1, 3]))
        for v in g.vertices():
            assert g.neighbors(v) == ref[v]


class TestStandardFamily:
    def test_small_collapses(self):
        assert standard_connection_set(3) == (1,)
        assert standard_connection_set(4) == (1,)
        assert standard_connection_set(5) == (1, 2)
        assert standard_connection_set(6) == (1, 3)
        assert standard_circulant(4).degree == 2
        assert standard_circulant(5).degree == 4

    def test_rejects_n_below_3(self):
        with pytest.raises(GraphConstructionError, match="need n >= 3, got n=2"):
            standard_connection_set(2)

    @pytest.mark.parametrize("n", [12.0, True, "12"])
    def test_rejects_a_non_integer_n(self, n):
        for build in (standard_connection_set, standard_circulant):
            with pytest.raises(GraphConstructionError, match=re.escape(repr(n))):
                build(n)


class TestReduction:
    def test_reduce_7_2_6(self):
        r = reduce_to_standard(7, 2, 6)
        assert r.standard_c == 3
        assert r.a_inverse == 4
        assert r.vertex_map[1] == 4
        assert r.vertex_map[7] == 7  # 4*7 = 28 = 0 mod 7 -> label 7

    def test_reduce_identity(self):
        for n in (7, 10, 16):
            r = reduce_to_standard(n, 1, 3)
            assert r.standard_c == 3
            assert all(r.vertex_map[x] == x for x in range(1, n + 1))
            assert r.congruence == "direct"

    def test_reduce_11_4_1(self):
        r = reduce_to_standard(11, 4, 1)
        assert r.standard_c == 3
        assert r.a_inverse == 3

    def test_mirrored_congruence(self):
        # 1^-1 * 11 = 11 = -3 mod 14, folds to distance 3
        r = reduce_to_standard(14, 1, 11)
        assert r.standard_c == 3
        assert r.congruence == "mirrored"

    def test_rejects_non_coprime(self):
        with pytest.raises(GraphConstructionError, match="gcd"):
            reduce_to_standard(9, 3, 1)

    def test_rejects_zero_generators(self):
        with pytest.raises(GraphConstructionError, match=re.escape("9 is 0 mod 9 (self-loop)")):
            reduce_to_standard(9, 9, 1)
        with pytest.raises(GraphConstructionError, match=re.escape("9 is 0 mod 9 (self-loop)")):
            reduce_to_standard(9, 2, 9)

    # (n, a, b, the value the error names): checked as build_circulant checks them
    @pytest.mark.parametrize(
        "n,a,b,bad", [(13, 1, 3.0, 3.0), (13, True, 3, True), (12.0, 1, 3, 12.0)]
    )
    def test_rejects_a_non_integer(self, n, a, b, bad):
        with pytest.raises(GraphConstructionError, match=re.escape(repr(bad))):
            reduce_to_standard(n, a, b)


class TestVerifyIsomorphism:
    def test_witnessed_reduction(self):
        r = reduce_to_standard(7, 2, 6)
        g1 = build_circulant(7, [2, 6])
        g2 = build_circulant(7, [1, 3])
        assert verify_isomorphism(g1, g2, r.vertex_map)

    def test_identity(self):
        g = build_circulant(8, [1, 3])
        assert verify_isomorphism(g, g, {v: v for v in range(1, 9)})

    def test_non_isomorphic_map(self):
        g1 = build_circulant(8, [1, 3])
        g2 = build_circulant(8, [1, 2])
        # edge {1,4} exists in the first graph, not the second
        assert 4 in g1.neighbors(1) and 4 not in g2.neighbors(1)
        assert not verify_isomorphism(g1, g2, {v: v for v in range(1, 9)})

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError, match="vertex counts"):
            verify_isomorphism(
                build_circulant(8, [1, 3]), build_circulant(9, [1, 3]), {v: v for v in range(1, 9)}
            )

    def test_rejects_non_bijection(self):
        g = build_circulant(8, [1, 3])
        bad = {v: 1 for v in range(1, 9)}
        with pytest.raises(ValueError, match="bijection"):
            verify_isomorphism(g, g, bad)

    @pytest.mark.parametrize("n", range(6, 15))
    def test_matches_pair_loop(self, n):
        """Neighborhood masks agree with the pair loop on random bijections."""
        rng = random.Random(n)
        verdicts = set()
        for _ in range(20):
            a = rng.choice([x for x in range(1, n) if gcd(x, n) == 1])
            r = reduce_to_standard(n, a, rng.randrange(1, n))
            d1 = oracles.normalized_distances(n, [a, r.b])
            d2 = oracles.normalized_distances(n, [1, r.standard_c])
            g1, g2 = build_circulant(n, sorted(d1)), build_circulant(n, sorted(d2))
            shift = rng.randrange(n)
            swapped = dict(r.vertex_map)
            i, j = rng.sample(range(1, n + 1), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            shuffled = list(range(1, n + 1))
            rng.shuffle(shuffled)
            for images in (
                # x -> a^-1 x + shift is an isomorphism: C_n(1,c) is rotation-invariant
                {x: (y + shift - 1) % n + 1 for x, y in r.vertex_map.items()},
                swapped,
                dict(zip(range(1, n + 1), shuffled)),
            ):
                adj1, adj2 = oracles.neighbors(n, d1), oracles.neighbors(n, d2)
                expected = oracles.is_isomorphism(n, adj1, adj2, images)
                assert verify_isomorphism(g1, g2, images) == expected, (n, a, r.b, images)
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_leaves_masks_unbuilt(self):
        n = 10**5
        r = reduce_to_standard(n, 7, 33)
        g1, g2 = build_circulant(n, [7, 33]), build_circulant(n, [1, r.standard_c])
        assert verify_isomorphism(g1, g2, r.vertex_map)
        assert "masks" not in vars(g1) and "masks" not in vars(g2)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_all_reductions_small(self, n):
        """Every coprime (a, b) pair reduces correctly, collapsing sets included."""
        for a in range(1, n):
            if gcd(a, n) != 1:
                continue
            for b in range(1, n):
                r = reduce_to_standard(n, a, b)
                d1 = oracles.normalized_distances(n, [a, b])
                d2 = oracles.normalized_distances(n, [1, r.standard_c])
                g1 = build_circulant(n, sorted(d1))
                g2 = build_circulant(n, sorted(d2))
                assert verify_isomorphism(g1, g2, r.vertex_map), (n, a, b)


def test_circular_distance():
    assert circular_distance(1, 3, 12) == 2
    assert circular_distance(1, 12, 12) == 1
    assert circular_distance(2, 10, 11) == 3
