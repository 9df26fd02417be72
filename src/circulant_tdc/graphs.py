"""Circulant graphs with 1-based vertex labels, stored by their offsets.

Vertices are labelled 1..n to match the usual convention for these graphs.
A graph is its vertex count and its connection set; every neighborhood is
a rotation of the same offsets, so N(v) = {v + o mod n : o in offsets}.
The certificate checks (`is_tdc`, `verify_isomorphism`) read only the
offsets and run in O(n * degree); `is_tdc` returns its verdict without
building any per-class set.  The exhaustive searches want neighborhoods as
bitmasks (bit v-1 stands for vertex v): `masks` builds them on first use
and keeps them, about n^2/16 bytes, so only the graphs that are searched
ever pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Mapping, Sequence


def circular_distance(i: int, j: int, n: int) -> int:
    """Length of the shorter arc between vertices i and j on the cycle (1..n)."""
    d = (i - j) % n
    return min(d, n - d)


class GraphConstructionError(ValueError):
    """Raised for invalid circulant parameters (bad n, zero or duplicate generators)."""


@dataclass(frozen=True)
class CirculantGraph:
    """Immutable circulant graph: vertex set {1..n}, edges by circular distance.

    `connection_set` is the normalized set of distances, sorted ascending,
    each in 1..n//2.  `offsets` are the distinct residues +-d mod n, sorted,
    so vertex v is adjacent to v + o for each o; their count is the degree
    (3 for C_6(1,3), where 3 = -3 mod 6).  `masks[v-1]` is the open
    neighborhood of vertex v as a bitmask, built on first use.  Instances
    are safe to share across threads: the cached attributes depend only on
    the fields, so two threads racing on first use compute the same tuple
    twice and one of them is kept.
    """

    n: int
    connection_set: tuple[int, ...]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        n = self.n
        return tuple(sorted({r for d in self.connection_set for r in (d, n - d)}))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        n, full = self.n, self.full_mask
        base = sum(1 << o for o in self.offsets)
        # vertex i+1 is vertex 1 rotated by i: bit o moves to bit (o + i) mod n
        return tuple((base << i | base >> (n - i)) & full for i in range(n))

    @property
    def degree(self) -> int:
        return len(self.offsets)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        n = self.n
        return frozenset([(v - 1 + o) % n + 1 for o in self.offsets])

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def mask_to_vertices(mask: int) -> tuple[int, ...]:
    """Decode a bitmask into a sorted tuple of 1-based vertex labels."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _check_order(n: int) -> None:
    """Refuse an n that is not an int (a bool included) or is below 3."""
    if type(n) is not int:
        raise GraphConstructionError(f"n must be an integer, got n={n!r}")
    if n < 3:
        raise GraphConstructionError(f"need n >= 3, got n={n}")


def _generator_distance(g: int, n: int) -> int:
    """The circular distance of generator g; refuses a g that is not an int (a bool
    included) or is 0 mod n (a self-loop)."""
    if type(g) is not int:
        raise GraphConstructionError(f"generators must be integers, got {g!r}")
    d = circular_distance(g, 0, n)
    if d == 0:
        raise GraphConstructionError(f"generator {g} is 0 mod {n} (self-loop)")
    return d


def build_circulant(n: int, generators: Sequence[int]) -> CirculantGraph:
    """Build the circulant graph on {1..n} with the given generators.

    Each generator g is normalized to the circular distance min(g mod n,
    n - g mod n).  Rejects n as _check_order does, each generator as
    _generator_distance does, and generators that collide after
    normalization.
    """
    _check_order(n)
    if not generators:
        raise GraphConstructionError("need at least one generator")
    distances = []
    for g in generators:
        d = _generator_distance(g, n)
        if d in distances:
            raise GraphConstructionError(
                f"generator {g} duplicates circular distance {d} after normalization"
            )
        distances.append(d)
    return CirculantGraph(n=n, connection_set=tuple(sorted(distances)))


def standard_connection_set(n: int) -> tuple[int, ...]:
    """Connection set of the standard distance-{1,3} graph on n vertices.

    For n >= 6 this is (1, 3).  For n = 3, 4, 5 the distance 3 collapses
    (3 = 0, 1, 2 mod n respectively), so the family degenerates to the
    triangle, the 4-cycle and the complete graph K_5.  Rejects n as
    build_circulant does.
    """
    _check_order(n)
    distances = {1}
    d = circular_distance(3, 0, n)
    if d:
        distances.add(d)
    return tuple(sorted(distances))


def standard_circulant(n: int) -> CirculantGraph:
    """The graph C_n(1,3) for n >= 6, with the degenerate collapse for n = 3..5."""
    return CirculantGraph(n=n, connection_set=standard_connection_set(n))


def is_standard_13(g: CirculantGraph) -> bool:
    """True when g equals the standard distance-{1,3} graph on its vertex count."""
    return g.connection_set == standard_connection_set(g.n)


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of rewriting C_n(a,b) with gcd(a,n)=1 as the standard form C_n(1,c).

    `raw_c` is a^{-1} b mod n; `standard_c` folds it into 1..n//2 (both describe
    the same graph).  `congruence` records which of the two residues matched:
    "direct" when raw_c already lies in 1..n//2, "mirrored" otherwise.
    `vertex_map[x]` is the image a^{-1} x mod n of vertex x, with residue 0
    written as n.
    """

    n: int
    a: int
    b: int
    a_inverse: int
    raw_c: int
    standard_c: int
    congruence: str
    vertex_map: Mapping[int, int]


def reduce_to_standard(n: int, a: int, b: int) -> ReductionResult:
    """Compute c = a^{-1} b mod n and the vertex bijection x -> a^{-1} x.

    The bijection carries edges of C_n(a,b) onto edges of C_n(1,c); use
    verify_isomorphism to certify that on a concrete instance.  Rejects n,
    a and b as build_circulant does, and then gcd(a, n) != 1.
    """
    _check_order(n)
    _generator_distance(a, n)
    _generator_distance(b, n)
    if gcd(a, n) != 1:
        raise GraphConstructionError(
            f"gcd(a, n) = gcd({a}, {n}) = {gcd(a, n)} != 1; reduction is undefined"
        )
    a_inv = pow(a, -1, n)
    raw_c = (a_inv * b) % n
    standard_c = circular_distance(raw_c, 0, n)
    congruence = "direct" if raw_c <= n // 2 else "mirrored"
    vertex_map = {x: (a_inv * x) % n or n for x in range(1, n + 1)}
    return ReductionResult(
        n=n,
        a=a,
        b=b,
        a_inverse=a_inv,
        raw_c=raw_c,
        standard_c=standard_c,
        congruence=congruence,
        vertex_map=vertex_map,
    )


def reduce_either_order(n: int, a: int, b: int) -> ReductionResult:
    """The reduction of C_n(a,b) onto C_n(1,3): of (a, b), or else of (b, a).

    C_n(a,b) and C_n(b,a) are one graph, but reduce_to_standard maps its
    first generator to 1, so only one order may reduce: C_11(3,1) does as
    (1, 3), and C_14(9,3) as (3, 9).  The distance 3 is read mod n, as in
    standard_connection_set.  n, a and b are checked once, before either
    order, as reduce_to_standard checks them; when neither order reduces,
    the GraphConstructionError names both.
    """
    _check_order(n)
    _generator_distance(a, n)
    _generator_distance(b, n)
    failures = []
    for x, y in ((a, b), (b, a)):
        try:
            reduction = reduce_to_standard(n, x, y)
        except GraphConstructionError as exc:
            failures.append(f"(a, b) = ({x}, {y}): {exc}.")
            continue
        if reduction.standard_c == circular_distance(3, 0, n):
            return reduction
        failures.append(
            f"(a, b) = ({x}, {y}): a^-1 b = {reduction.raw_c} (mod {n}), "
            f"distance {reduction.standard_c}."
        )
    raise GraphConstructionError(
        "hypothesis a^-1 b = +-3 (mod n) fails in both generator orders. " + " ".join(failures)
    )


def verify_isomorphism(
    g1: CirculantGraph,
    g2: CirculantGraph,
    mapping: Mapping[int, int],
) -> bool:
    """Check that `mapping` carries edges of g1 exactly onto edges of g2.

    Rejects graphs of different order and maps that are not bijections on
    {1..n}.  Returns True iff {i,j} is an edge of g1 exactly when
    {mapping[i], mapping[j]} is an edge of g2.  For a bijection f that holds
    exactly when f maps N(i) in g1 onto N(f(i)) in g2 for every i.  As
    offsets, N(f(i)) is f(i) + offsets(g2), so the check compares the set
    {f(i + o) - f(i) : o in offsets(g1)} with offsets(g2), in O(n * degree).
    """
    if g1.n != g2.n:
        raise ValueError(f"vertex counts differ: {g1.n} vs {g2.n}")
    n = g1.n
    labels = list(range(1, n + 1))
    if sorted(mapping) != labels or sorted(mapping.values()) != labels:
        raise ValueError("map is not a bijection on {1..n}")
    image = [mapping[x] for x in labels]
    source, target = g1.offsets, set(g2.offsets)
    for i, fi in enumerate(image):
        if {(image[(i + o) % n] - fi) % n for o in source} != target:
            return False
    return True
