"""Exhaustive oracles for independence, open packing and total domination.

The oracles work on any circulant graph of at most DEFAULT_ORACLE_LIMIT
vertices, or up to the `limit` argument when the caller passes one.  An
oracle returns only what it searched: the paper's closed forms live in
formulas.py, and the CLI decides which of them applies to a graph and
compares the two.  The chromatic number oracle lives in solver.py, since it
runs on the solver's coloring search.

Every search here is a plain recursive function that returns the lex-first
hit as a bitmask, or None; lex order includes the lowest available vertex
before it excludes it.  Each oracle scans sizes from a proven bound and
stops at the first size with a hit, so its witness is the lex-first set of
the optimal size.

Independence and open packing share _first_independent_set.  A set is an
open packing exactly when no two of its members share a neighbour.  In
C_n(S) two vertices share a neighbour exactly when they differ by o - p for
offsets o != p, so the open packings are the independent sets of another
circulant, C_n(D) with D = {o - p} (C_n(2,4,6) for C_n(1,3)), and the open
packing number is the independence oracle run on that graph.  The search
prunes with a greedy clique cover of the available vertices (Balas and Yu,
SIAM J. Comput. 15, 1986; Tomita and Seki, DMTCS 2003): an independent set
holds at most one vertex of each clique, so the number of cliques bounds
what a branch can still add.  The same cover of all vertices bounds the
maximum, and sizes are tried downward from it.  Nothing here lists every
maximum set: the census of maximum packings behind the paper's
packing-shape claim is a test reference, built from the definitions in
tests/oracles.py.

Total domination scans sizes upward from max(2, ceil(n / degree)).  Its
search prunes with a greedy open-packing bound (Henning and Slater, "Open
packing in graphs", 1999): uncovered vertices whose available
neighbourhoods are pairwise disjoint each need their own new member.  The
bound is sound, so it cuts no branch that holds a solution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring
from .graphs import CirculantGraph, circular_distance, mask_to_vertices

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


def _first_independent_set(
    masks: list[int], avail: int, need: int, chosen: int = 0
) -> int | None:
    """`chosen` plus the lex-first independent set of `need` vertices from `avail`, or None."""
    if need == 0:
        return chosen
    tops = _clique_cover_tops(masks, avail)
    while avail:
        low = avail & -avail
        v = low.bit_length() - 1
        while tops[-1] < v:
            tops.pop()
        if len(tops) < need:
            return None
        avail ^= low
        found = _first_independent_set(masks, avail & ~masks[v], need - 1, chosen | low)
        if found is not None:
            return found
    return None


def _packing_graph(g: CirculantGraph) -> CirculantGraph:
    """The circulant whose independent sets are the open packings of g.

    Vertices u and v share a neighbour exactly when v - u = o - p for two
    offsets o != p of g, so this is C_n(D) with D the circular distances of
    those differences; C_n(1,3) gives C_n(2,4,6).  It reads only the offsets.
    """
    n = g.n
    diffs = {(o - p) % n for o in g.offsets for p in g.offsets} - {0}
    return CirculantGraph(n, tuple(sorted({circular_distance(d, 0, n) for d in diffs})))


def independence_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Maximum independent set size by exhaustive search, with lex-least witness."""
    _check_limit(g.n, limit)
    masks, full = list(g.masks), g.full_mask
    size = len(_clique_cover_tops(masks, full))
    while (witness := _first_independent_set(masks, full, size)) is None:
        size -= 1
    return InvariantValue(size, mask_to_vertices(witness))


def open_packing_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Maximum open packing size by exhaustive search, with lex-least witness."""
    return independence_number_oracle(_packing_graph(g), limit)


def _first_total_dominating_set(
    masks: list[int], full: int, deg: int, avail: int, need: int, covered: int = 0, chosen: int = 0
) -> int | None:
    """`chosen` plus the lex-first `need` vertices from `avail` that cover the rest, or None.

    `covered` is what `chosen` dominates, and `avail` the vertices above its
    last member.  Two prunes, both sound.  Coverage: each added vertex covers at most `deg`
    new vertices.  Disjoint needs (an open-packing bound): walking the
    uncovered vertices in increasing order, take each one's neighbourhood
    within `avail`; an empty one is fatal, and a vertex whose neighbourhood
    misses the union of those counted so far is counted.  Counted vertices
    need pairwise distinct new members, so more of them than `need` is
    fatal.  A sound prune only cuts branches that hold no solution, so the
    lex-order scan still meets the lex-first set first.
    """
    if need == 0:
        return chosen if covered == full else None
    uncovered = full & ~covered
    if uncovered.bit_count() > need * deg:
        return None
    union = 0
    counted = 0
    while uncovered:
        low = uncovered & -uncovered
        uncovered ^= low
        options = masks[low.bit_length() - 1] & avail
        if not options:
            return None
        if not options & union:
            union |= options
            counted += 1
            if counted > need:
                return None
    # the first member is one of the lowest |avail| - need + 1 vertices
    for _ in range(avail.bit_count() - need + 1):
        low = avail & -avail
        avail ^= low
        found = _first_total_dominating_set(
            masks, full, deg, avail, need - 1, covered | masks[low.bit_length() - 1], chosen | low
        )
        if found is not None:
            return found
    return None


def total_domination_number_oracle(
    g: CirculantGraph, limit: int | None = None
) -> InvariantValue:
    """Minimum total dominating set size by increasing-cardinality search.

    A single vertex never dominates itself and each vertex covers at most
    `degree` others; the scan ends by size n, as every vertex has a neighbour.
    """
    _check_limit(g.n, limit)
    masks, full, deg = list(g.masks), g.full_mask, g.degree
    size = max(2, -(-g.n // deg))
    while (witness := _first_total_dominating_set(masks, full, deg, full, size)) is None:
        size += 1
    return InvariantValue(size, mask_to_vertices(witness))
