"""The one coloring search, and the exact total dominator chromatic number.

_search backtracks over vertices 1..n with colors assigned in first-use
order, and checks properness incrementally against per-class member masks.
Each vertex v comes with a demand set, what a class holding v can still
cover; a class covers the intersection of its members' demand sets, and
every vertex must be covered.  tdc_feasible asks for demand[v] = N(v), the
common neighborhoods of a total dominator coloring.  chromatic_number_oracle
asks for nothing: demand[v] is every vertex, so it is plain proper-coloring
backtracking.  Three sound forward checks prune the tree:

* coverage: a class's common neighborhood only shrinks as the class grows,
  so a vertex not in the union of the current common neighborhoods can only
  be rescued by a class that is still empty, and only if an uncolored vertex
  remains inside its neighborhood;
* counting: for the same reason, the vertices outside that union number at
  most |demand| (what one class can cover: the degree, for a total
  dominator coloring) times the number of classes still empty;
* disjoint needs (an open-packing bound, as in the total domination
  oracle): an empty class that covers such a vertex x has all its members
  in demand[x] (demand is symmetric: u is in demand[x] exactly when x is
  in demand[u]) and among the uncolored vertices, its options.  Walking
  those vertices in increasing order, one is counted when its options miss
  the options of every vertex counted before it; counted vertices need
  pairwise distinct empty classes, so more of them than the classes still
  empty is fatal.

The first two are kept incrementally, so a child node costs O(1) unless its
class loses common neighbors: the search carries the union of the common
neighborhoods and the slack (their sizes summed, plus |demand| per empty
class, minus n) down the recursion and updates them only for the class that
changed.  A union is never larger than the sum, so a negative slack fails
the counting test; this O(1) test runs first, and the union is rebuilt, over
the other classes, only for a child that passes it and whose class lost
vertices.  The walk runs last, and only for a child with more vertices
outside the union than empty classes.

The checks assume only that the demand sets all have one size and that
demand is symmetric, as neighborhoods in a regular graph and the full sets
are, so verdicts are search-exact.  They cut only subtrees that hold no
solution, so the first coloring found is the one that plain backtracking in
the same order finds.  tdc_number_exact scans class counts upward from
max(chromatic number, total domination number) to a proven upper bound;
minimality never relies on monotonicity of feasibility because every
smaller count is exhausted first.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from .coloring import Coloring, is_tdc
from .constructions import verify_construction
from .graphs import CirculantGraph, is_standard_13, mask_to_vertices
from .invariants import InvariantValue, _check_limit, total_domination_number_oracle

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchBudget:
    """Per-level search budget; whichever of nodes or seconds runs out first.

    The deadline is polled every 4096 nodes, so a level may overrun it by up
    to that many nodes.  Rejects max_nodes < 1 and a max_seconds that is NaN
    or not positive.
    """

    max_nodes: int = 10**8
    max_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError(f"node budget must be at least 1, got {self.max_nodes}")
        if not self.max_seconds > 0:
            raise ValueError(f"time budget must be positive seconds, got {self.max_seconds}")


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
    disjoint-needs walk runs last.  A budget stop returns BUDGET_EXCEEDED.
    """
    if not (1 <= num_colors <= g.n):
        raise ValueError(f"need 1 <= num_colors <= {g.n}, got {num_colors}")
    return _search(g, num_colors, budget or SearchBudget(), g.masks)


def _search(
    g: CirculantGraph, num_colors: int, budget: SearchBudget, demand: Sequence[int]
) -> FeasibilityOutcome:
    """The coloring search: proper colorings in which every vertex is covered.

    A class covers the vertices in the intersection of demand[v] over its
    members v, and every vertex must be covered by some class.  With
    demand[v] = N(v) that is a total dominator coloring.  With every demand
    set full, every class covers everything, so the coverage, counting and
    disjoint-needs prunes never fire and the search is plain first-use
    proper-coloring backtracking.  All demand sets must have the same size,
    and demand must be symmetric: u in demand[v] exactly when v in demand[u].
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
                # disjoint needs: a counted vertex x's options, demand[x] &
                # rest, miss those of every vertex counted before it, so each
                # one needs an empty class of its own; union lies in rest, so
                # demand[x] meets it exactly when the options do
                needs = full & ~now_cover
                union = counted = 0
                while needs:
                    low = needs & -needs
                    needs ^= low
                    dx = demand[low.bit_length() - 1]
                    if not dx & union:
                        union |= dx & rest
                        counted += 1
                        if counted > free:
                            break
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
    clique, common = 0, g.full_mask
    for v, nv in enumerate(g.masks):
        if common >> v & 1:
            clique += 1
            common &= nv
    demand = [g.full_mask] * g.n
    for k in range(clique, g.n + 1):
        coloring = _search(g, k, _UNBOUNDED, demand).coloring
        if coloring is not None:
            return InvariantValue(k, coloring)
    raise AssertionError("unreachable: n colors always suffice")


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
    an upper bound: the explicit construction on the standard distance-{1,3}
    graph, which needs no search at its level, and gamma_t + chi otherwise
    (Kazemi, Trans. Comb. 2015): a minimum total dominating set as singleton
    classes plus a proper coloring of the rest is a TDC, since every vertex
    dominates the singleton of a neighbour in the set.  Raises
    BudgetExceededError with the bracket found so far if any level exhausts
    its budget, and OracleLimitError above the vertex limit.
    """
    _check_limit(g.n, limit)
    if not g.degree:
        raise ValueError("graph has an isolated vertex; no total dominator coloring exists")
    budget = budget or SearchBudget()
    started = time.monotonic()

    chromatic = chromatic_number_oracle(g, limit=limit)
    domination = total_domination_number_oracle(g, limit=limit)
    chi = chromatic.oracle
    gamma_t = domination.oracle
    if chi >= gamma_t:
        lower, lower_source = chi, "chromatic"
    else:
        lower, lower_source = gamma_t, "total-domination"

    construction_witness: Coloring | None = None
    if is_standard_13(g) and g.n >= 6:
        verdict = verify_construction(g.n)
        assert verdict.report.tdc, f"construction for n={g.n} failed its own verification"
        construction_witness = verdict.coloring
        upper, upper_source = verdict.num_classes, "construction"
    else:
        upper, upper_source = gamma_t + chi, "total-domination+chromatic"

    nodes_total = 0
    levels: list[tuple[int, str]] = []
    for k in range(lower, upper + 1):
        if k == upper and construction_witness is not None:
            # every smaller class count was exhausted; the verified
            # construction is the witness, no search needed at this level
            witness = construction_witness
            levels.append((k, FEASIBLE))
            break
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
        if outcome.status == FEASIBLE:
            assert outcome.coloring is not None
            witness = outcome.coloring
            report = is_tdc(g, witness)
            assert report.tdc, "search returned a non-TDC witness"
            break
    else:
        raise AssertionError(f"no coloring within the proven upper bound {upper} ({upper_source})")
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
