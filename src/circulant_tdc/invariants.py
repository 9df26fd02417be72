"""Closed forms and brute-force oracles for independence, open packing,
total domination and chromatic number.

The closed forms are specific to the standard distance-{1,3} family; the
oracles work on any circulant graph of at most DEFAULT_ORACLE_LIMIT vertices,
or up to the `limit` argument when the caller passes one.

Independence and open packing share one branch-and-bound.  A set is an open
packing exactly when no two of its members share a neighbour, that is, when
it is independent in the graph that joins two vertices whenever they have a
common neighbour; the open packing oracle and the census of maximum packings
search that graph.

Oracle witnesses are deterministic: ties are broken toward the
lexicographically smallest vertex set.  The branch-and-bound includes the
lowest available vertex before it excludes it, so it reaches sets of equal
size in lex order.  Until the lex-least maximum set is found, every branch
that holds it can still beat the best size so far, so the bound never prunes
it; the first maximum set recorded is therefore the lex-least one.  Total
domination scans sizes upward and stops at the first set in lex order.
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
    """A named invariant with closed-form and/or brute-force value.

    closed_form is present only for the standard distance-{1,3} graph inside
    the formula's stated range; oracle is present when a search ran.  When
    both are present, agree records their equality.
    """

    name: str
    closed_form: int | None
    oracle: int | None
    witness: tuple[int, ...] | Coloring | None
    agree: bool | None


def _combine(name: str, closed: int | None, oracle_val: int, witness) -> InvariantValue:
    agree = None if closed is None else (closed == oracle_val)
    return InvariantValue(
        name=name, closed_form=closed, oracle=oracle_val, witness=witness, agree=agree
    )


# ---------------------------------------------------------------------------
# closed forms (standard distance-{1,3} graph)


def independence_number_formula(n: int) -> int:
    """Independence number of the standard graph: n/2 for even n, (n-3)/2 for odd."""
    if n < 4:
        raise ValueError(f"independence closed form needs n >= 4, got {n}")
    return n // 2 if n % 2 == 0 else (n - 3) // 2


def open_packing_number_formula(n: int) -> int:
    """Open packing number of the standard graph.

    n//3 for 3 <= n <= 6, then n//4 - 1 when n = 4 or 6 mod 8 and n//4
    otherwise.
    """
    if n < 3:
        raise ValueError(f"open packing closed form needs n >= 3, got {n}")
    if n <= 6:
        return n // 3
    if n % 8 in (4, 6):
        return n // 4 - 1
    return n // 4


def total_domination_number_formula(n: int) -> int:
    """Total domination number of the standard graph: ceil(n/4), +1 when n = 2,4 mod 8."""
    if n < 4:
        raise ValueError(f"total domination closed form needs n >= 4, got {n}")
    value = (n + 3) // 4
    return value + 1 if n % 8 in (2, 4) else value


# ---------------------------------------------------------------------------
# brute-force searches


def _max_independent(
    masks: list[int], avail: int, chosen: int = 0, best: tuple[int, int] = (0, 0)
) -> tuple[int, int]:
    """Lex-least maximum independent set extending `chosen` within `avail`.

    Returns (size, bitmask), or `best` when nothing beats it.  Branches on the
    lowest available vertex: include it, then loop on with it excluded.
    """
    size = chosen.bit_count()
    while avail:
        if size + avail.bit_count() <= best[0]:
            return best
        low = avail & -avail
        v = low.bit_length() - 1
        best = _max_independent(masks, avail & ~(low | masks[v]), chosen | low, best)
        avail ^= low
    return (size, chosen) if size > best[0] else best


def _independent_sets_of_size(
    masks: list[int], avail: int, need: int, chosen: int = 0
) -> Iterator[int]:
    """Yield every independent set of `need` more vertices from `avail`, in lex order."""
    if need == 0:
        yield chosen
        return
    while avail.bit_count() >= need:
        low = avail & -avail
        avail ^= low
        v = low.bit_length() - 1
        yield from _independent_sets_of_size(masks, avail & ~masks[v], need - 1, chosen | low)


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
    size, witness = _max_independent(list(g.masks), g.full_mask)
    closed = None
    if is_standard_13(g) and g.n >= 4:
        closed = independence_number_formula(g.n)
    return _combine("independence", closed, size, mask_to_vertices(witness))


def open_packing_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Maximum open packing size by exhaustive search, with lex-least witness."""
    _check_limit(g.n, limit)
    size, witness = _max_independent(_shared_neighbour_masks(g), g.full_mask)
    closed = None
    if is_standard_13(g) and g.n >= 3:
        closed = open_packing_number_formula(g.n)
    return _combine("open_packing", closed, size, mask_to_vertices(witness))


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
    conflict = _shared_neighbour_masks(g)
    size, _ = _max_independent(conflict, g.full_mask)
    shapes = []
    conforms = True
    expected_edges = g.n // 8
    expected_isolated = 1 if g.n % 8 in (5, 7) else 0
    for mask in _independent_sets_of_size(conflict, g.full_mask, size):
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
        packing_number=size,
        expected_edges=expected_edges,
        expected_isolated=expected_isolated,
        packings=tuple(shapes),
        conforms=conforms,
    )


def _lex_first_total_dominating(
    masks: list[int], n: int, target: int
) -> tuple[int, ...] | None:
    """First total dominating set of exactly `target` vertices in lex order.

    Prunes on coverage: each added vertex covers at most `deg` new vertices,
    and the lowest uncovered vertex must still have an available neighbor.
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
        missing = (full & ~covered).bit_count()
        if missing > remaining * deg:
            return False
        if covered != full:
            lowest = (full & ~covered) & -(full & ~covered)
            u = lowest.bit_length() - 1
            avail = full & ~((1 << start) - 1)
            if not masks[u] & avail:
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
            closed = None
            if is_standard_13(g) and g.n >= 4:
                closed = total_domination_number_formula(g.n)
            return _combine("total_domination", closed, size, witness)
    raise AssertionError("graph has an isolated vertex; no total dominating set exists")


def _greedy_clique(masks: list[int], n: int) -> list[int]:
    clique: list[int] = []
    common = (1 << n) - 1
    for v in range(n):
        if common >> v & 1:
            clique.append(v + 1)
            common &= masks[v]
    return clique


def _proper_coloring_search(masks: list[int], n: int, num_colors: int) -> list[int] | None:
    """Backtracking proper coloring with first-use color ordering.

    Returns per-vertex colors (1-based) or None when no proper coloring with
    at most `num_colors` colors exists.
    """
    colors = [0] * n
    class_masks = [0] * (num_colors + 1)

    def rec(v: int, used: int) -> bool:
        if v == n:
            return True
        nv = masks[v]
        top = min(used + 1, num_colors)
        for c in range(1, top + 1):
            if class_masks[c] & nv:
                continue
            colors[v] = c
            class_masks[c] |= 1 << v
            if rec(v + 1, max(used, c)):
                return True
            class_masks[c] &= ~(1 << v)
        colors[v] = 0
        return False

    return colors[:] if rec(0, 0) else None


def chromatic_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Chromatic number by backtracking, starting from a greedy clique lower bound."""
    _check_limit(g.n, limit)
    masks = list(g.masks)
    lower = max(1, len(_greedy_clique(masks, g.n)))
    for k in range(lower, g.n + 1):
        colors = _proper_coloring_search(masks, g.n, k)
        if colors is not None:
            classes: dict[int, set[int]] = {}
            for v, c in enumerate(colors, start=1):
                classes.setdefault(c, set()).add(v)
            witness = Coloring.from_classes(g.n, [classes[c] for c in sorted(classes)])
            return _combine("chromatic", None, k, witness)
    raise AssertionError("unreachable: n colors always suffice")
