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
exactly when no two of its members share a neighbour.  In C_n(S) two
vertices share a neighbour exactly when they differ by o - p for offsets
o != p, so the open packings are the independent sets of another circulant,
C_n(D) with D = {o - p} (C_n(2,4,6) for C_n(1,3)), and the open packing
number is the independence oracle run on that graph.  The search prunes with
a greedy clique cover of the available vertices (Balas and Yu, SIAM J.
Comput. 15, 1986; Tomita and Seki, DMTCS 2003): an independent set holds at
most one vertex of each clique, so the number of cliques bounds what a
branch can still add.  The same cover of all vertices bounds the maximum,
and sizes are tried downward from it; the first size that has a set is the
maximum, and the first set of that size is the oracle's witness, the
lex-least maximum set.  Nothing here lists every maximum set: the census of
maximum packings behind the paper's packing-shape claim is a test
reference, built from the definitions in tests/oracles.py.

Total domination scans sizes upward and stops at the first set in lex order.
Its search prunes with a greedy open-packing bound (Henning and Slater, "Open
packing in graphs", 1999): uncovered vertices whose available neighbourhoods
are pairwise disjoint each need their own new member.  The bound is sound, so
it cuts no branch that holds a solution and the first set found is still the
lex-first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .coloring import Coloring
from .graphs import CirculantGraph, mask_to_vertices

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


def _maximum_independent_set(masks: list[int], avail: int) -> int:
    """Lex-least maximum independent set within `avail`.

    Sizes are tried downward from the clique cover of `avail`; the first size
    that has a set is the maximum, and its first set is the lex-least.
    """
    size = len(_clique_cover_tops(masks, avail))
    while (found := next(_independent_sets_of_size(masks, avail, size), None)) is None:
        size -= 1
    return found


def _packing_graph(g: CirculantGraph) -> CirculantGraph:
    """The circulant whose independent sets are the open packings of g.

    Vertices u and v share a neighbour exactly when v - u = o - p for two
    offsets o != p of g, so this is C_n(D) with D the circular distances of
    those differences; C_n(1,3) gives C_n(2,4,6).  It reads only the offsets.
    """
    n = g.n
    diffs = {(o - p) % n for o in g.offsets for p in g.offsets} - {0}
    return CirculantGraph(n, tuple(sorted({min(d, n - d) for d in diffs})))


def independence_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Maximum independent set size by exhaustive search, with lex-least witness."""
    _check_limit(g.n, limit)
    witness = _maximum_independent_set(list(g.masks), g.full_mask)
    return InvariantValue(witness.bit_count(), mask_to_vertices(witness))


def open_packing_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Maximum open packing size by exhaustive search, with lex-least witness."""
    return independence_number_oracle(_packing_graph(g), limit)


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
