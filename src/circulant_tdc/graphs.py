"""Circulant graphs with 1-based vertex labels and bitset adjacency.

Vertices are labelled 1..n to match the usual convention for these graphs;
internally every neighborhood is a Python int used as a bitmask (bit v-1
stands for vertex v), which makes the set intersections that dominate this
package's workload single machine-word operations for the sizes we care
about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterator, Mapping, Sequence


def circular_distance(i: int, j: int, n: int) -> int:
    """Length of the shorter arc between vertices i and j on the cycle (1..n)."""
    d = (i - j) % n
    return min(d, n - d)


def normalize_generator(g: int, n: int) -> int:
    """Reduce a generator to a circular distance in 0..n//2 (0 means degenerate)."""
    r = g % n
    return min(r, n - r)


class GraphConstructionError(ValueError):
    """Raised for invalid circulant parameters (bad n, zero or duplicate generators)."""


@dataclass(frozen=True)
class CirculantGraph:
    """Immutable circulant graph: vertex set {1..n}, edges by circular distance.

    `connection_set` is the normalized set of distances, sorted ascending,
    each in 1..n//2.  `masks[v-1]` is the open neighborhood of vertex v as a
    bitmask.  Instances are safe to share across threads.
    """

    n: int
    connection_set: tuple[int, ...]
    masks: tuple[int, ...] = field(repr=False)

    @property
    def degree(self) -> int:
        return self.masks[0].bit_count()

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbor_mask(self, v: int) -> int:
        return self.masks[v - 1]

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_bits_to_vertices(self.masks[v - 1]))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.masks[i - 1] >> (j - 1) & 1)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def _bits_to_vertices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def mask_to_vertices(mask: int) -> tuple[int, ...]:
    """Decode a bitmask into a sorted tuple of 1-based vertex labels."""
    return tuple(_bits_to_vertices(mask))


def vertices_to_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def _graph_from_distances(n: int, distances: Sequence[int]) -> CirculantGraph:
    masks = []
    for v in range(n):
        m = 0
        for d in distances:
            m |= 1 << ((v + d) % n)
            m |= 1 << ((v - d) % n)
        masks.append(m)
    return CirculantGraph(n=n, connection_set=tuple(sorted(distances)), masks=tuple(masks))


def build_circulant(n: int, generators: Sequence[int]) -> CirculantGraph:
    """Build the circulant graph on {1..n} with the given generators.

    Each generator g is normalized to the circular distance min(g mod n,
    n - g mod n).  Rejects n < 3, generators congruent to 0 mod n (would be
    self-loops) and generators that collide after normalization.
    """
    if n < 3:
        raise GraphConstructionError(f"need n >= 3, got n={n}")
    if not generators:
        raise GraphConstructionError("need at least one generator")
    distances = []
    for g in generators:
        d = normalize_generator(g, n)
        if d == 0:
            raise GraphConstructionError(f"generator {g} is 0 mod {n} (self-loop)")
        if d in distances:
            raise GraphConstructionError(
                f"generator {g} duplicates circular distance {d} after normalization"
            )
        distances.append(d)
    return _graph_from_distances(n, distances)


def standard_connection_set(n: int) -> tuple[int, ...]:
    """Connection set of the standard distance-{1,3} graph on n vertices.

    For n >= 6 this is (1, 3).  For n = 3, 4, 5 the distance 3 collapses
    (3 = 0, 1, 2 mod n respectively), so the family degenerates to the
    triangle, the 4-cycle and the complete graph K_5.
    """
    if n < 3:
        raise GraphConstructionError(f"need n >= 3, got n={n}")
    distances = {1}
    d = normalize_generator(3, n)
    if d:
        distances.add(d)
    return tuple(sorted(distances))


def standard_circulant(n: int) -> CirculantGraph:
    """The graph C_n(1,3) for n >= 6, with the degenerate collapse for n = 3..5."""
    return _graph_from_distances(n, standard_connection_set(n))


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

    def apply(self, x: int) -> int:
        return self.vertex_map[x]


def reduce_to_standard(n: int, a: int, b: int) -> ReductionResult:
    """Compute c = a^{-1} b mod n and the vertex bijection x -> a^{-1} x.

    The bijection carries edges of C_n(a,b) onto edges of C_n(1,c); use
    verify_isomorphism to certify that on a concrete instance.  Requires
    gcd(a, n) = 1 and a, b nonzero mod n.
    """
    if n < 3:
        raise GraphConstructionError(f"need n >= 3, got n={n}")
    if a % n == 0 or b % n == 0:
        raise GraphConstructionError(f"generators must be nonzero mod n: a={a}, b={b}")
    if gcd(a, n) != 1:
        raise GraphConstructionError(
            f"gcd(a, n) = gcd({a}, {n}) = {gcd(a, n)} != 1; reduction is undefined"
        )
    a_inv = pow(a, -1, n)
    raw_c = (a_inv * b) % n
    standard_c = min(raw_c, n - raw_c)
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


def verify_isomorphism(
    g1: CirculantGraph,
    g2: CirculantGraph,
    mapping: Mapping[int, int] | Callable[[int], int],
) -> bool:
    """Check that `mapping` carries edges of g1 exactly onto edges of g2.

    Rejects graphs of different order and maps that are not bijections on
    {1..n}.  Returns True iff {i,j} is an edge of g1 exactly when
    {mapping(i), mapping(j)} is an edge of g2.
    """
    if g1.n != g2.n:
        raise ValueError(f"vertex counts differ: {g1.n} vs {g2.n}")
    n = g1.n
    if callable(mapping) and not isinstance(mapping, Mapping):
        images = {x: mapping(x) for x in range(1, n + 1)}
    else:
        images = dict(mapping)
    if sorted(images) != list(range(1, n + 1)) or sorted(images.values()) != list(
        range(1, n + 1)
    ):
        raise ValueError("map is not a bijection on {1..n}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if g1.has_edge(i, j) != g2.has_edge(images[i], images[j]):
                return False
    return True
