"""Independent brute-force reference implementations for the tests.

Everything here is built straight from the definitions using dict-of-set
adjacency, deliberately sharing no code with the package's offset and
bitmask fast paths, so the two sides of every comparison stay independent.
The chromatic number reference runs on bitmasks, but builds them from the
dict adjacency itself.  The census of maximum open packings, which tests the
paper's packing-shape claim, and the coloring helpers at the end take the
package's graph, but read only its vertex count and connection set; the
coloring helpers return its Coloring.  The construction reference restates
the residue scheme as the set algebra it is defined by, where the package
writes a color array.
"""

import random
from dataclasses import dataclass
from itertools import combinations

from circulant_tdc import Coloring, ColoringError


def neighbors(n, distances):
    """Adjacency by circular distance on the cycle (1..n)."""
    adj = {v: set() for v in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d = min((i - j) % n, (j - i) % n)
            if d in distances:
                adj[i].add(j)
                adj[j].add(i)
    return adj


def normalized_distances(n, generators):
    """Connection set as circular distances, dropping zeros and duplicates."""
    out = set()
    for g in generators:
        d = min(g % n, (n - g) % n)
        if d:
            out.add(d)
    return out


def common_neighbors(adj, cls):
    result = None
    for v in cls:
        result = adj[v] if result is None else result & adj[v]
    return result if result is not None else set()


def is_partition(n, classes):
    """True iff the classes, each read as a set, are nonempty and every
    label in 1..n lies in exactly one of them."""
    sets = [set(c) for c in classes]
    return all(sets) and sorted(v for s in sets for v in s) == list(range(1, n + 1))


def first_partition_fault(n, classes):
    """The message naming the first fault of `classes` as a partition of {1..n}, or None.

    The classes are read in order, each iterated as its frozenset.  In a
    class, the faults are: being empty; then, label by label, a label that
    is not an int (bool included), one outside 1..n, and one already seen
    in an earlier class.  After all classes, the least vertex of 1..n that
    no class holds is the fault.
    """
    seen = set()
    for number, cls in enumerate(map(frozenset, classes), start=1):
        if not cls:
            return f"class {number} is empty"
        for v in cls:
            if not isinstance(v, int) or isinstance(v, bool):
                return f"label {v!r} is not an integer"
            if v < 1 or v > n:
                return f"vertex {v} is outside 1..{n}"
            if v in seen:
                return f"vertex {v} appears in more than one class"
            seen.add(v)
    missing = sorted(set(range(1, n + 1)) - seen)
    return f"vertex {missing[0]} is not covered by any class" if missing else None


def is_proper_classes(adj, classes):
    return all(not (set(c) & adj[v]) for c in classes for v in c)


def is_tdc_classes(n, adj, classes):
    if not is_proper_classes(adj, classes):
        return False
    covered = set()
    for c in classes:
        covered |= common_neighbors(adj, c)
    return covered == set(range(1, n + 1))


def independent_sets(n, adj):
    """All nonempty independent sets, as tuples in increasing vertex order."""
    out = []

    def rec(start, current):
        for v in range(start, n + 1):
            if adj[v] & set(current):
                continue
            current.append(v)
            out.append(tuple(current))
            rec(v + 1, current)
            current.pop()

    rec(1, [])
    return out


def max_independent_size(n, adj):
    best = 0
    for s in independent_sets(n, adj):
        best = max(best, len(s))
    return best


def _first_maximum(n, ok):
    """Lex-least largest set of vertices whose pairs all satisfy ok(a, b).

    combinations yields each size in lex order, so the first hit is lex-least.
    """
    for r in range(n, 0, -1):
        for s in combinations(range(1, n + 1), r):
            if all(ok(a, b) for a, b in combinations(s, 2)):
                return s
    return ()


def max_independent_set(n, adj):
    return _first_maximum(n, lambda a, b: b not in adj[a])


def max_open_packing(n, adj):
    return _first_maximum(n, lambda a, b: not (adj[a] & adj[b]))


def open_packing_number(n, adj):
    return len(max_open_packing(n, adj))


def shared_neighbour_graph(adj):
    """Joins two vertices with a common neighbour; its independent sets are the open packings."""
    return {u: {w for w in adj if w != u and adj[u] & adj[w]} for u in adj}


@dataclass(frozen=True)
class PackingShape:
    """Induced shape of one maximum open packing: its edges and isolated vertices."""

    vertices: tuple
    induced_edges: tuple
    isolated: tuple


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
    packings: tuple
    conforms: bool


def max_open_packing_structure(g):
    """Every maximum open packing of C_n(1,3), n >= 7, with its induced shape.

    The paper's claim: every maximum packing induces n//8 edges, plus one
    isolated vertex exactly when n = 5 or 7 mod 8.  The claim quantifies over
    all maximum packings, so all of them are listed, in lex order: the open
    packings are the independent sets of shared_neighbour_graph, and
    independent_sets yields the sets of each size in lex order.  Reads only
    the package graph's vertex count and connection set.
    """
    n = g.n
    if n < 7 or set(g.connection_set) != {1, 3}:
        raise ValueError("structure census applies to the standard distance-{1,3} graph, n >= 7")
    adj = neighbors(n, {1, 3})
    packings = independent_sets(n, shared_neighbour_graph(adj))
    size = max(map(len, packings))
    expected_edges = n // 8
    expected_isolated = 1 if n % 8 in (5, 7) else 0
    shapes = []
    for packing in packings:
        if len(packing) != size:
            continue
        edges = tuple((u, v) for u, v in combinations(packing, 2) if v in adj[u])
        matched = {x for e in edges for x in e}
        isolated = tuple(v for v in packing if v not in matched)
        shapes.append(PackingShape(packing, edges, isolated))
    return PackingStructureReport(
        n=n,
        packing_number=size,
        expected_edges=expected_edges,
        expected_isolated=expected_isolated,
        packings=tuple(shapes),
        conforms=all(
            len(p.induced_edges) == expected_edges and len(p.isolated) == expected_isolated
            for p in shapes
        ),
    )


def min_total_dominating_set(n, adj):
    """Lex-least smallest set in which every vertex has a neighbour.

    combinations yields each size in lex order, so the first hit is lex-least.
    """
    for r in range(1, n + 1):
        for s in combinations(range(1, n + 1), r):
            chosen = set(s)
            if all(adj[v] & chosen for v in adj):
                return s
    return None


def tdc_feasible_plain(n, adj, num_colors):
    """Plain backtracking over proper colorings with a leaf TDC check.

    No domination-based pruning at all; used to cross-validate the pruned
    search in the package.  Vertices go in increasing order and colors in
    first-use order, as there.  Returns the first total dominator coloring
    found, as sorted classes in first-use order, or None.
    """
    classes = [set() for _ in range(num_colors)]

    def rec(v, used):
        if v > n:
            return is_tdc_classes(n, adj, [c for c in classes if c])
        top = min(used + 1, num_colors)
        for idx in range(top):
            if adj[v] & classes[idx]:
                continue
            classes[idx].add(v)
            if rec(v + 1, max(used, idx + 1)):
                return True
            classes[idx].discard(v)
        return False

    return [sorted(c) for c in classes if c] if rec(1, 0) else None


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


def chromatic_number(n, adj):
    """Least k with a proper k-coloring, and the first one found, as sorted classes.

    The search is the standalone first-use backtracking the package's
    chromatic oracle ran before it moved onto the solver's coloring search,
    kept unchanged so that the two stay comparable witness for witness.
    """
    masks = [sum(1 << (u - 1) for u in adj[v]) for v in range(1, n + 1)]
    for k in range(1, n + 1):
        colors = _proper_coloring_search(masks, n, k)
        if colors is not None:
            return k, [[v for v in range(1, n + 1) if colors[v - 1] == c] for c in range(1, k + 1)]
    return None


def is_isomorphism(n, adj1, adj2, images):
    """Pair by pair: {i,j} is an edge of adj1 exactly when its image is one of adj2."""
    return all(
        (j in adj1[i]) == (images[j] in adj2[images[i]])
        for i, j in combinations(range(1, n + 1), 2)
    )


def random_greedy_coloring(g, seed):
    """Proper coloring of g by greedy assignment over a seed-shuffled vertex order.

    Each vertex in turn takes the least color that no colored neighbor has.
    Deterministic for a fixed seed, which keeps property-test failures
    reproducible.
    """
    adj = neighbors(g.n, set(g.connection_set))
    order = list(range(1, g.n + 1))
    random.Random(seed).shuffle(order)
    color = {}
    for v in order:
        taken = {color[u] for u in adj[v] if u in color}
        color[v] = min(set(range(len(taken) + 1)) - taken)
    classes = [[] for _ in range(max(color.values()) + 1)]
    for v, c in color.items():
        classes[c].append(v)
    return Coloring.from_classes(g.n, classes)


def class_size_capacity_check(g, coloring):
    """Size/common-neighborhood capacity predicate for proper colorings.

    On the standard distance-{1,3} graph with n >= 9, every class of a proper
    coloring satisfies: size + |CN| <= 5 when size <= 4, and |CN| = 0 when
    size >= 5.  Returns True iff every class of `coloring` does.
    """
    if g.n < 9 or set(g.connection_set) != {1, 3}:
        raise ValueError("capacity check applies to the standard distance-{1,3} graph with n >= 9")
    adj = neighbors(g.n, {1, 3})
    classes = coloring.as_lists()
    if not is_proper_classes(adj, classes):
        raise ColoringError("capacity check requires a proper coloring")
    for cls in classes:
        size, cn_size = len(cls), len(common_neighbors(adj, cls))
        if (size <= 4 and size + cn_size > 5) or (size >= 5 and cn_size):
            return False
    return True


# Row r = n % 8 of the residue scheme: (tail classes as offsets below n,
# offsets of the vertices that change parity class).  Restated here, so the
# reference does not read the package's own table.
_RESIDUE_ROWS = (
    ((), ()),
    (((6, 4, 2, 0),), ()),
    (((6, 4, 2, 0), (7, 5, 3, 1)), ()),
    (((7, 5, 3, 1), (6, 4, 2)), (0,)),
    (((6, 4, 2), (7, 5, 3)), ()),
    (((7, 5, 3), (6, 4)), (2, 1, 0)),
    (((6, 4), (7, 5)), ()),
    (((6,), (7, 5)), (4, 3, 2, 1, 0)),
)


def residue_classes_reference(n):
    """(packing, ordered classes) of the construction for n >= 12, by set algebra.

    The packing L = {8i+1, 8i+2 : i < n // 8} gives singleton classes in
    increasing order, then come the tail classes, then the two parity
    leftovers (odd - T - M) | (even & M) and (even - T - M) | (odd & M),
    with T the packing plus the tails and M the moved vertices.
    """
    k, r = divmod(n, 8)
    tail_offsets, move_offsets = _RESIDUE_ROWS[r]
    packing = frozenset(v for i in range(k) for v in (8 * i + 1, 8 * i + 2))
    tails = [frozenset(n - o for o in offsets) for offsets in tail_offsets]
    taken = packing.union(*tails)
    moved = frozenset(n - o for o in move_offsets)
    odd = frozenset(range(1, n + 1, 2))
    even = frozenset(range(2, n + 1, 2))
    leftovers = [(odd - taken - moved) | (even & moved), (even - taken - moved) | (odd & moved)]
    return packing, [frozenset({v}) for v in sorted(packing)] + tails + leftovers
