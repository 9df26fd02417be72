"""Every exhaustive search: the alpha, rho, gamma_t and chi oracles, and exact chi_dt.

The paper bounds chi_dt between max(chi, gamma_t) and gamma_t + chi, so the
exact search needs the gamma_t and chi searches.  Each search refuses a
graph of more than DEFAULT_ORACLE_LIMIT vertices, or more than `limit` when
the caller passes one, with OracleLimitError.  An oracle returns only what
it searched: the closed forms live in formulas.py, and the CLI decides which
of them applies to a graph and compares the two.

There are three backtracking searches, each a plain recursive function:

* _first_independent_set, for independent sets and open packings.  Two
  vertices of C_n(S) share a neighbour exactly when they differ by o - p for
  offsets o != p, so the open packings are the independent sets of C_n(D),
  D = {o - p} (C_n(2,4,6) for C_n(1,3)).  A greedy clique cover of the
  available vertices prunes it (Balas and Yu, SIAM J. Comput. 15, 1986;
  Tomita and Seki, DMTCS 2003): an independent set holds at most one vertex
  of each clique.  Sizes are tried downward from the smaller of the cover
  of all vertices and the window bound below.  The census of all maximum
  packings behind the paper's packing-shape claim is a test reference, in
  tests/oracles.py.
* _first_total_dominating_set, for total domination.  Sizes are tried
  upward from 1.  A branch is cut when the members still to add, `degree`
  vertices each, cannot cover the rest (at the root, every size below
  n / degree), and by disjoint needs, which makes sizes below gamma_t cheap.
* _search, the coloring search, below.

The two set scans use, at their top level only, that a circulant is
vertex-transitive: the rotation v -> v + 1 maps it onto itself.  An inner
branch, with some vertices chosen, is not vertex-transitive, so the
recursion does not use it.

* Vertex 1 is fixed.  Some rotation of any independent or total dominating
  set holds vertex 1, so a size has a set exactly when it has one through
  vertex 1, and the lex-first set of the size holds vertex 1.  Each size is
  searched with vertex 1 already in the set.
* The window bound starts the alpha scan, and so the rho scan.  It reads
  the windows W = {1..w}, with w at most n, 2 * (largest distance) + 1 and
  2 * degree + 1; an edgeless graph has none.  A vertex lies in |W| of the
  n rotations of W, so an independent set S meets them in |S| * |W|
  vertices in all, and each in at most alpha(G[W]); so alpha <= floor(n *
  alpha(G[W]) / |W|) (the no-homomorphism lemma of Albertson and Collins,
  1985).  alpha(G[W]) grows by at most one per added vertex, so each width
  costs one small search.

Every prune is sound: it cuts only subtrees that hold no solution.  So each
search meets first the hit that plain backtracking in the same order meets
(the lowest available vertex is included before it is excluded, and colors
are assigned in first-use order), and as each scan starts at a sound bound
and stops at the first size or class count with a hit, a set oracle's
witness is the lex-first set of the optimal size.

Disjoint needs is an open-packing bound (Henning and Slater, "Open packing
in graphs", 1999).  Walk the vertices still to cover in increasing order,
each with its options: what a new member, or a new class, could still cover
it from.  A vertex whose options miss those of every vertex counted before
it is counted.  Counted vertices need pairwise distinct new members or
classes, so more of them than there are left is fatal.  Each search inlines
its own copy of the walk behind a cheaper count test: on the exact benchmark
(Python 3.11, 2-core Xeon), one shared helper for the walk made wall time
4-6% worse, and dropping the coloring search's O(1) slack test cost about 9%
CPU per pass.

The coloring search backtracks over vertices 1..n with colors assigned in
first-use order, and checks properness against per-class member masks.
Each vertex v comes with a demand set, what a class holding v can still
cover; a class covers the intersection of its members' demand sets, and
every vertex must be covered.  tdc_feasible asks for demand[v] = N(v), the
common neighborhoods of a total dominator coloring.  chromatic_number_oracle
asks for nothing: every demand set is full, so it is plain proper-coloring
backtracking.  Three forward checks prune the tree:

* coverage: a class's common neighborhood only shrinks as the class grows,
  so a vertex outside the union of the common neighborhoods can only be
  covered by a class still empty, from an uncolored vertex;
* counting: so those vertices number at most |demand| (the degree, for a
  total dominator coloring) times the number of classes still empty;
* disjoint needs, against the classes still empty: the options of such a
  vertex x are demand[x] among the uncolored vertices (demand is symmetric:
  u is in demand[x] exactly when x is in demand[u]).

The first two are kept incrementally, so a child node costs O(1) unless its
class loses common neighbors: the search carries the union of the common
neighborhoods and the slack (their sizes summed, plus |demand| per empty
class, minus n) down the recursion and updates them only for the class that
changed.  A union is never larger than the sum, so a negative slack fails
the counting test.  That test runs first; the union is rebuilt only for a
child that passes it and whose class lost vertices; the walk runs last, and
only when more vertices lie outside the union than there are empty classes.
The walk's count depends only on the union and on v (through the uncolored
vertices); the number of empty classes decides only whether it is fatal.
So each vertex keeps, for one level, the full count of every union walked
there and looks a repeated one up: the verdicts, and so the tree, are those
of the walk (C_34(3,9) at 11 classes looks up 82% of its counts).
The checks need only that the demand sets have one size and are symmetric,
as neighborhoods in a regular graph and the full sets are.

tdc_number_exact scans class counts upward from max(chi, gamma_t) and stops
at the first feasible one or, on C_n(1,3), below the verified construction,
which is then the witness: every smaller count is exhausted first.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from .coloring import Coloring, is_tdc
from .constructions import construct_tdc
from .graphs import CirculantGraph, circular_distance, is_standard_13, mask_to_vertices

DEFAULT_ORACLE_LIMIT = 24

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget_exceeded"


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
    """Refuse n above the limit, and a limit that is not an int (a bool included) or is below 1."""
    if limit is None:
        limit = DEFAULT_ORACLE_LIMIT
    elif type(limit) is not int or limit < 1:
        raise ValueError(f"vertex limit must be an integer of at least 1, got {limit!r}")
    if n > limit:
        raise OracleLimitError(n, limit)


@dataclass(frozen=True)
class InvariantValue:
    """An invariant as an exhaustive search found it, with its witness."""

    oracle: int
    witness: tuple[int, ...] | Coloring


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


def _independence_window_bound(g: CirculantGraph, masks: list[int]) -> int:
    """min of floor(n * alpha(G[W]) / |W|) over the windows W, or n without one.

    The degree cap keeps the windows of a graph with a long distance from
    growing to n: alpha on seven such isomorphs, C_25(4,12), C_23(10,30),
    C_21(4,12), C_19(2,6), C_34(3,9), C_40(7,19) and C_37(5,15), takes
    0.5 ms with it and 1.3 to 2.0 ms without, while alpha and rho on the
    21 graphs of the benchmark's CLI mix take about 3.2 ms either way
    (best of 7, graph builds included; Python 3.11, 2-core Xeon).
    """
    n = g.n
    if not g.connection_set:
        return n
    bound = n
    alpha = window = 0
    for w in range(1, min(n, 2 * g.connection_set[-1] + 1, 2 * g.degree + 1) + 1):
        bit = 1 << (w - 1)
        # alpha(G[W]) grows, by one, exactly when the old window holds alpha
        # independent vertices that are not neighbours of vertex w
        if _first_independent_set(masks, window & ~masks[w - 1], alpha, bit) is not None:
            alpha += 1
        window |= bit
        bound = min(bound, n * alpha // w)
    return bound


def independence_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Maximum independent set size by exhaustive search, with lex-least witness."""
    _check_limit(g.n, limit)
    masks, full = list(g.masks), g.full_mask
    size = min(len(_clique_cover_tops(masks, full)), _independence_window_bound(g, masks))
    rest = full & ~masks[0] & ~1
    while (witness := _first_independent_set(masks, rest, size - 1, 1)) is None:
        size -= 1
    return InvariantValue(size, mask_to_vertices(witness))


def open_packing_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Maximum open packing size by exhaustive search, with lex-least witness."""
    return independence_number_oracle(_packing_graph(g), limit)


def _first_total_dominating_set(
    masks: list[int], full: int, deg: int, avail: int, need: int, covered: int, chosen: int
) -> int | None:
    """`chosen` plus the lex-first `need` vertices from `avail` that cover the rest, or None.

    `covered` is what `chosen` dominates, and `avail` the vertices above its
    last member.  A vertex's options are its neighbours within `avail`; one
    with none is fatal, and the disjoint-needs walk counts against `need`.
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

    The scan starts at size 1, and the root's counting test rejects each
    size below n / degree in O(1); it ends by size n, as every vertex has a
    neighbour.  Raises ValueError on an edgeless graph, where it never would.
    """
    _check_limit(g.n, limit)
    if not g.degree:
        raise ValueError("graph has an isolated vertex; no total dominator coloring exists")
    masks, full, deg = list(g.masks), g.full_mask, g.degree
    size = 1
    while (
        witness := _first_total_dominating_set(masks, full, deg, full ^ 1, size - 1, masks[0], 1)
    ) is None:
        size += 1
    return InvariantValue(size, mask_to_vertices(witness))


@dataclass(frozen=True)
class SearchBudget:
    """Per-level search budget; whichever of nodes or seconds runs out first.

    The deadline is polled every 4096 nodes, so a level may overrun it by up
    to that many nodes.  Rejects a max_nodes that is not an int (a bool
    included) or is below 1, and a max_seconds that is not an int or a float
    (a bool or a string included), or is NaN or not positive.
    """

    max_nodes: int = 10**8
    max_seconds: float = 300.0

    def __post_init__(self) -> None:
        if type(self.max_nodes) is not int or self.max_nodes < 1:
            raise ValueError(f"node budget must be an integer of at least 1, got {self.max_nodes!r}")
        if type(self.max_seconds) not in (int, float) or not self.max_seconds > 0:
            raise ValueError(f"time budget must be positive seconds, got {self.max_seconds!r}")


@dataclass(frozen=True)
class FeasibilityOutcome:
    """Tri-state result of one feasibility level.

    Budget exhaustion is its own status, never conflated with infeasibility.
    """

    status: str
    num_colors: int
    coloring: Coloring | None
    nodes_explored: int
    elapsed_seconds: float


class BudgetExceededError(RuntimeError):
    """Search ran out of budget; carries the bracketing interval found so far."""

    def __init__(self, lower: int, upper: int, nodes_explored: int, elapsed_seconds: float):
        self.lower = lower
        self.upper = upper
        self.nodes_explored = nodes_explored
        self.elapsed_seconds = elapsed_seconds
        super().__init__(
            f"budget exceeded; exact value bracketed in [{lower}, {upper}] "
            f"after {nodes_explored} nodes"
        )


class _BudgetHit(Exception):
    pass


def tdc_feasible(
    g: CirculantGraph, num_colors: int, budget: SearchBudget | None = None
) -> FeasibilityOutcome:
    """Search for a total dominator coloring with at most `num_colors` classes.

    Every child node counts toward the node budget once it passes the
    properness test; the O(1) slack test then runs before the coverage union
    is built, the counting and coverage tests run on that union, and the
    disjoint-needs count runs last, walked once per union and vertex within
    the level.  A budget stop returns BUDGET_EXCEEDED.  Raises ValueError for
    a num_colors that is not an int (a bool included) or is not in 1..n.
    """
    if type(num_colors) is not int or not 1 <= num_colors <= g.n:
        raise ValueError(f"need an integer 1 <= num_colors <= {g.n}, got {num_colors!r}")
    return _search(g, num_colors, budget or SearchBudget(), g.masks)


def _search(
    g: CirculantGraph, num_colors: int, budget: SearchBudget, demand: Sequence[int]
) -> FeasibilityOutcome:
    """The coloring search: proper colorings in which every vertex is covered.

    A class covers the intersection of demand[v] over its members v.  All
    demand sets must have one size, and demand must be symmetric.
    """
    n = g.n
    full = g.full_mask
    nbr = g.masks
    outside = [full ^ d for d in demand]

    # can_cover_later[v] = vertices that some class holding a vertex of the
    # still-uncolored suffix {v+1..n} (0-based: bits v..n-1) could cover
    can_cover_later = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        can_cover_later[v] = can_cover_later[v + 1] | demand[v]

    # room[u] = the most vertices that the num_colors - u still-empty classes
    # can cover between them
    room = [demand[0].bit_count() * (num_colors - u) for u in range(num_colors + 1)]
    member = [0] * (num_colors + 1)
    cn = [full] * (num_colors + 1)
    # walked[v] maps a cover to its disjoint-needs count at vertex v
    walked = [{} for _ in range(n)]
    max_nodes = budget.max_nodes
    nodes = 0
    # both budgets are tested when nodes reaches poll: every 4096 nodes for
    # the deadline, and at max_nodes + 1 for the node budget
    poll = min(0x1000, max_nodes + 1)
    start = time.monotonic()
    deadline = start + budget.max_seconds

    def rec(v: int, used: int, slack: int, cover: int) -> list[int] | None:
        # cover = union of cn[1..used]; slack = sum of |cn[1..used]| plus
        # room[used], minus n: at least |cover| + room[used] - n, which the
        # counting test needs to be nonnegative
        nonlocal nodes, poll
        if v == n:
            return member[1 : used + 1] if cover == full else None
        bit = 1 << v
        nv = nbr[v]
        dv = demand[v]
        out = outside[v]
        future = can_cover_later[v + 1]
        rest = full >> (v + 1) << (v + 1)
        seen = walked[v]
        for c in range(1, (used + 1 if used < num_colors else num_colors) + 1):
            saved_member = member[c]
            if saved_member & nv:
                continue
            nodes += 1
            if nodes == poll:
                if nodes > max_nodes or time.monotonic() > deadline:
                    raise _BudgetHit
                poll = min(nodes + 0x1000, max_nodes + 1)
            saved_cn = cn[c]
            if c > used:
                # a new class's common neighborhood is demand[v], of full size
                if slack < 0:
                    continue
                now_used, now_slack, new_cn = c, slack, dv
                now_cover = cover | dv
            else:
                lost = saved_cn & out
                if lost:
                    now_slack = slack - lost.bit_count()
                    if now_slack < 0:
                        continue
                    new_cn = saved_cn ^ lost
                    now_cover = new_cn
                    for d in range(1, used + 1):
                        if d != c:
                            now_cover |= cn[d]
                else:
                    now_slack, new_cn, now_cover = slack, saved_cn, cover
                now_used = used
            uncovered = n - now_cover.bit_count()
            if uncovered > room[now_used] or now_cover | future != full:
                continue
            free = num_colors - now_used
            if uncovered > free:
                # disjoint needs: x's options are demand[x] & rest; union lies
                # in rest, so demand[x] meets it exactly when the options do.
                # The count reads only now_cover and v, so it is walked once
                counted = seen.get(now_cover)
                if counted is None:
                    needs = full & ~now_cover
                    union = counted = 0
                    while needs:
                        low = needs & -needs
                        needs ^= low
                        dx = demand[low.bit_length() - 1]
                        if not dx & union:
                            union |= dx & rest
                            counted += 1
                    seen[now_cover] = counted
                if counted > free:
                    continue
            member[c] = saved_member | bit
            cn[c] = new_cn
            result = rec(v + 1, now_used, now_slack, now_cover)
            member[c], cn[c] = saved_member, saved_cn
            if result is not None:
                return result
        return None

    try:
        masks = rec(0, 0, room[0] - n, 0)
        status = INFEASIBLE if masks is None else FEASIBLE
    except _BudgetHit:
        masks, status = None, BUDGET_EXCEEDED
    elapsed = time.monotonic() - start
    return FeasibilityOutcome(
        status=status,
        num_colors=num_colors,
        coloring=None if masks is None else Coloring.from_classes(n, map(mask_to_vertices, masks)),
        nodes_explored=nodes,
        elapsed_seconds=elapsed,
    )


# the chromatic oracle has no budget: the vertex cap alone bounds it
_UNBOUNDED = SearchBudget(max_nodes=sys.maxsize, max_seconds=math.inf)


def chromatic_number_oracle(g: CirculantGraph, limit: int | None = None) -> InvariantValue:
    """Chromatic number: the coloring search with nothing to cover.

    Class counts are tried upward from the size of a greedy clique (each
    vertex in turn joins if it is adjacent to every member so far).  The
    witness is the first coloring found, classes in first-use order.
    """
    _check_limit(g.n, limit)
    k, common = 0, g.full_mask
    for v, nv in enumerate(g.masks):
        if common >> v & 1:  # v joins the greedy clique
            k += 1
            common &= nv
    demand = [g.full_mask] * g.n
    while (coloring := _search(g, k, _UNBOUNDED, demand).coloring) is None:
        k += 1
    return InvariantValue(k, coloring)


@dataclass(frozen=True)
class SearchOutcome:
    """Exact total dominator chromatic number with witness and bound provenance."""

    chi_dt: int
    witness: Coloring
    lower_bound_used: int
    lower_bound_source: str
    upper_bound_used: int
    upper_bound_source: str
    nodes_explored: int
    elapsed_seconds: float
    levels: tuple[tuple[int, str], ...] = field(default_factory=tuple)


def tdc_number_exact(
    g: CirculantGraph,
    budget: SearchBudget | None = None,
    limit: int | None = None,
) -> SearchOutcome:
    """Exact total dominator chromatic number of g.

    Tests each class count upward from max(chromatic, total domination) to
    an upper bound.  On the standard distance-{1,3} graph that is the explicit
    construction, verified first; its level is not searched, as it is the
    witness once every smaller count is infeasible.  Otherwise it is
    gamma_t + chi, and searched (Kazemi, Trans. Comb. 2015): a minimum total
    dominating set as singleton classes plus a proper coloring of the rest
    is a TDC, since every vertex dominates the singleton of a neighbour in
    the set.  Raises BudgetExceededError with the bracket found so far if
    any level exhausts its budget, OracleLimitError above the vertex limit,
    and ValueError, from the total domination oracle, on an edgeless graph.
    """
    started = time.monotonic()

    chi = chromatic_number_oracle(g, limit=limit).oracle
    gamma_t = total_domination_number_oracle(g, limit=limit).oracle
    if chi >= gamma_t:
        lower, lower_source = chi, "chromatic"
    else:
        lower, lower_source = gamma_t, "total-domination"

    witness: Coloring | None = None
    if is_standard_13(g) and g.n >= 6:
        # verified even when a lower level turns out feasible (n = 18)
        witness = construct_tdc(g.n).coloring
        assert is_tdc(g, witness).tdc, f"construction for n={g.n} failed its own verification"
        upper, upper_source = len(witness), "construction"
        searched = range(lower, upper)
    else:
        upper, upper_source = gamma_t + chi, "total-domination+chromatic"
        searched = range(lower, upper + 1)

    nodes_total = 0
    levels: list[tuple[int, str]] = []
    for k in searched:
        outcome = tdc_feasible(g, k, budget)
        nodes_total += outcome.nodes_explored
        levels.append((k, outcome.status))
        if outcome.status == BUDGET_EXCEEDED:
            raise BudgetExceededError(
                lower=k,
                upper=upper,
                nodes_explored=nodes_total,
                elapsed_seconds=time.monotonic() - started,
            )
        if outcome.coloring is not None:
            witness = outcome.coloring
            assert is_tdc(g, witness).tdc, "search returned a non-TDC witness"
            break
    else:
        assert witness is not None, f"no coloring within the upper bound {upper} ({upper_source})"
        k = upper
        levels.append((k, FEASIBLE))
    return SearchOutcome(
        chi_dt=k,
        witness=witness,
        lower_bound_used=lower,
        lower_bound_source=lower_source,
        upper_bound_used=upper,
        upper_bound_source=upper_source,
        nodes_explored=nodes_total,
        elapsed_seconds=time.monotonic() - started,
        levels=tuple(levels),
    )
