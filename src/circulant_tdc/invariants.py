"""Exhaustive oracles for independence, open packing and total domination.

The oracles work on any circulant graph of at most DEFAULT_ORACLE_LIMIT
vertices, or up to the `limit` argument when the caller passes one.  An
oracle returns only what it searched: the paper's closed forms live in
formulas.py, and the CLI decides which of them applies to a graph and
compares the two.  The chromatic number oracle lives in solver.py, since it
runs on the solver's coloring search.

Independence and open packing share one search, _independent_sets_of_size,
which yields the independent sets of a given size in lex order: it includes
the lowest available vertex before it excludes it.  A set is an open packing
exactly when no two of its members share a neighbour, that is, when it is
independent in the graph that joins two vertices whenever they have a common
neighbour; the open packing oracle and the census of maximum packings search
that graph.  The search prunes with a greedy clique cover of the available
vertices (Balas and Yu, SIAM J. Comput. 15, 1986; Tomita and Seki, DMTCS
2003): an independent set holds at most one vertex of each clique, so the
number of cliques bounds what a branch can still add.  The same cover of all
vertices bounds the maximum, and sizes are tried downward from it; the first
size that has a set is the maximum, and its sets come in lex order, so the
oracles' witness is the lex-least maximum set and the census lists every one.

Total domination scans sizes upward and stops at the first set in lex order.
Its search prunes with a greedy open-packing bound (Henning and Slater, "Open
packing in graphs", 1999): uncovered vertices whose available neighbourhoods
are pairwise disjoint each need their own new member.  The bound is sound, so
it cuts no branch that holds a solution and the first set found is still the
lex-first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .coloring import Coloring
from .graphs import CirculantGraph, is_standard_13, mask_to_vertices

DEFAULT_ORACLE_LIMIT = 24


class OracleLimitError(ValueError):
    """Raised when an exhaustive search is asked to run above its vertex limit."""

    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(
            f"refusing exhaustive search on n={n} vertices (limit {limit}; "
            "raise via limit= or --limit)"
        )


def _check_limit(n: int, limit: int | None) -> None:
    eff = DEFAULT_ORACLE_LIMIT if limit is None else limit
    if n > eff:
        raise OracleLimitError(n, eff)


@dataclass(frozen=True)
class InvariantValue:
    """An invariant as an exhaustive search found it, with its witness."""

    oracle: int
    witness: tuple[int, ...] | Coloring


# ---------------------------------------------------------------------------
# brute-force searches


def _clique_cover_tops(masks: list[int], avail: int) -> list[int]:
    """Top vertices of a greedy partition of `avail` into cliques, decreasing.

    Each clique starts at the highest vertex left and keeps adding the
    highest vertex adjacent to every member so far.  An independent set has
    at most one vertex per clique, and a clique whose top is below v has no
    vertex >= v, so the number of tops >= v bounds the independent sets
    within the vertices of `avail` from v up.  `masks` must be symmetric.
    """
    tops = []
    while avail:
        top = avail.bit_length() - 1
        tops.append(top)
        avail ^= 1 << top
        candidates = avail & masks[top]
        while candidates:
            v = candidates.bit_length() - 1
            avail ^= 1 << v
            candidates &= masks[v]
    return tops


def _independent_sets_of_size(
    masks: list[int], avail: int, need: int, chosen: int = 0
) -> Iterator[int]:
    """Yield every independent set of `need` more vertices from `avail`, in lex order."""
    if need == 0:
        yield chosen
        return
    tops = _clique_cover_tops(masks, avail)
    while avail:
        low = avail & -avail
        v = low.bit_length() - 1
        while tops[-1] < v:
            tops.pop()
        if len(tops) < need:
            return
        avail ^= low
        yield from _independent_sets_of_size(masks, avail & ~masks[v], need - 1, chosen | low)


def _maximum_independent_sets(masks: list[int], avail: int) -> Iterator[int]:
    """Yield every maximum independent set within `avail`, in lex order.

    Sizes are tried downward from the clique cover of `avail`; the first size
    that has a set is the maximum.
    """
    for size in range(len(_clique_cover_tops(masks, avail)), -1, -1):
        sets = _independent_sets_of_size(masks, avail, size)
        first = next(sets, None)
        if first is not None:
            yield first
            yield from sets
            return


def _shared_neighbour_masks(g: CirculantGraph) -> list[int]:
    """Vertices other than v that share a neighbour with v, as bitmasks.

    Open packings of g are exactly the independent sets of this graph.
    """
    conflict = []
    for v, nv in enumerate(g.masks):
        m = 0
        for u in mask_to_vertices(nv):
            m |= g.masks[u - 1]
        conflict.append(m & ~(1 << v))
    return conflict


def independence_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Maximum independent set size by exhaustive search, with lex-least witness."""
    _check_limit(g.n, limit)
    witness = next(_maximum_independent_sets(list(g.masks), g.full_mask))
    return InvariantValue(witness.bit_count(), mask_to_vertices(witness))


def open_packing_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Maximum open packing size by exhaustive search, with lex-least witness."""
    _check_limit(g.n, limit)
    witness = next(_maximum_independent_sets(_shared_neighbour_masks(g), g.full_mask))
    return InvariantValue(witness.bit_count(), mask_to_vertices(witness))


@dataclass(frozen=True)
class PackingShape:
    """Induced shape of one maximum open packing: its edges and isolated vertices."""

    vertices: tuple[int, ...]
    induced_edges: tuple[tuple[int, int], ...]
    isolated: tuple[int, ...]


@dataclass(frozen=True)
class PackingStructureReport:
    """Shape census over all maximum open packings of one standard graph.

    `conforms` holds when every maximum packing induces exactly
    `expected_edges` edges plus `expected_isolated` isolated vertices.
    """

    n: int
    packing_number: int
    expected_edges: int
    expected_isolated: int
    packings: tuple[PackingShape, ...]
    conforms: bool


def max_open_packing_structure(
    g: CirculantGraph, limit: int | None = None
) -> PackingStructureReport:
    """Enumerate every maximum open packing and classify its induced subgraph.

    On the standard graph the expectation is n//8 induced edges, plus one
    isolated vertex exactly when n = 5 or 7 mod 8.  The claim quantifies over
    all maximum packings, so all of them are enumerated.
    """
    if not is_standard_13(g) or g.n < 7:
        raise ValueError("structure census applies to the standard distance-{1,3} graph, n >= 7")
    _check_limit(g.n, limit)
    maximum = list(_maximum_independent_sets(_shared_neighbour_masks(g), g.full_mask))
    shapes = []
    conforms = True
    expected_edges = g.n // 8
    expected_isolated = 1 if g.n % 8 in (5, 7) else 0
    for mask in maximum:
        packing = mask_to_vertices(mask)
        edges = [
            (u, v) for u, v in combinations(packing, 2) if g.has_edge(u, v)
        ]
        matched = {x for e in edges for x in e}
        isolated = tuple(v for v in packing if v not in matched)
        shapes.append(
            PackingShape(vertices=packing, induced_edges=tuple(edges), isolated=isolated)
        )
        if len(edges) != expected_edges or len(isolated) != expected_isolated:
            conforms = False
    return PackingStructureReport(
        n=g.n,
        packing_number=maximum[0].bit_count(),
        expected_edges=expected_edges,
        expected_isolated=expected_isolated,
        packings=tuple(shapes),
        conforms=conforms,
    )


def _lex_first_total_dominating(
    masks: list[int], n: int, target: int
) -> tuple[int, ...] | None:
    """First total dominating set of exactly `target` vertices in lex order.

    Two prunes, both sound.  Coverage: each added vertex covers at most
    `deg` new vertices.  Disjoint needs (an open-packing bound): walking the
    uncovered vertices in increasing order, take each one's neighbourhood
    among the still available vertices (those >= start); an empty one is
    fatal, and a vertex whose neighbourhood misses the union of those counted
    so far is counted.  Counted vertices need pairwise distinct new members,
    so more of them than `remaining` is fatal.  A sound prune only cuts
    branches that hold no solution, so the lex-order scan still meets the
    lex-first set first.
    """
    full = (1 << n) - 1
    deg = max(m.bit_count() for m in masks)
    chosen: list[int] = []

    def rec(start: int, covered: int) -> bool:
        remaining = target - len(chosen)
        if covered == full and remaining == 0:
            return True
        if remaining == 0:
            return False
        uncovered = full & ~covered
        if uncovered.bit_count() > remaining * deg:
            return False
        avail = full >> start << start
        union = 0
        need = 0
        while uncovered:
            low = uncovered & -uncovered
            uncovered ^= low
            options = masks[low.bit_length() - 1] & avail
            if not options:
                return False
            if not options & union:
                union |= options
                need += 1
                if need > remaining:
                    return False
        for v in range(start, n):
            if n - v < remaining:
                return False
            chosen.append(v + 1)
            if rec(v + 1, covered | masks[v]):
                return True
            chosen.pop()
        return False

    if rec(0, 0):
        return tuple(chosen)
    return None


def total_domination_number_oracle(
    g: CirculantGraph, limit: int | None = None
) -> InvariantValue:
    """Minimum total dominating set size by increasing-cardinality search."""
    _check_limit(g.n, limit)
    masks = list(g.masks)
    # a single vertex never dominates itself and each vertex covers <= deg others
    start = max(2, -(-g.n // g.degree))
    for size in range(start, g.n + 1):
        witness = _lex_first_total_dominating(masks, g.n, size)
        if witness is not None:
            return InvariantValue(size, witness)
    raise AssertionError("graph has an isolated vertex; no total dominating set exists")
