"""Exact total dominator chromatic number by feasibility search.

tdc_feasible decides, for one class budget, whether a total dominator
coloring exists, by backtracking over vertices 1..n with colors assigned in
first-use order.  Properness is checked incrementally against per-class
member masks.  Two sound forward checks prune the tree:

* coverage: a class's common neighborhood only shrinks as the class grows,
  so a vertex not in the union of the current common neighborhoods can only
  be rescued by a class that is still empty, and only if an uncolored vertex
  remains inside its neighborhood;
* counting: the final common neighborhood sizes sum to at least n in any
  total dominator coloring, each bounded by the current size (nonempty
  classes) or the graph degree (classes still empty).

Neither check assumes anything beyond the graph being regular of known
degree, so verdicts are search-exact.  tdc_number_exact scans class counts
upward from max(chromatic number, total domination number); minimality never
relies on monotonicity of feasibility because every smaller count is
exhausted first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .coloring import Coloring, is_tdc
from .constructions import verify_construction
from .graphs import CirculantGraph, is_standard_13
from .invariants import chromatic_number_oracle, total_domination_number_oracle

DEFAULT_SOLVER_LIMIT = 24

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget_exceeded"


class SolverLimitError(ValueError):
    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(
            f"refusing exact search on n={n} vertices (limit {limit}; "
            "raise via limit= or --limit)"
        )


@dataclass(frozen=True)
class SearchBudget:
    """Per-level search budget; whichever of nodes or seconds runs out first."""

    max_nodes: int = 10**8
    max_seconds: float = 300.0


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
    """Search for a total dominator coloring with at most `num_colors` classes."""
    if not (1 <= num_colors <= g.n):
        raise ValueError(f"need 1 <= num_colors <= {g.n}, got {num_colors}")
    budget = budget or SearchBudget()
    n = g.n
    full = g.full_mask
    nbr = list(g.masks)
    degree = g.degree

    # has_future_neighbor[v] = vertices with at least one neighbor among the
    # still-uncolored suffix {v+1..n} (0-based: bits v..n-1); adjacency is
    # symmetric, so that is the union of the suffix's neighborhoods
    has_future_neighbor = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        has_future_neighbor[v] = has_future_neighbor[v + 1] | nbr[v]

    member = [0] * (num_colors + 1)
    cn = [full] * (num_colors + 1)
    nodes = 0
    deadline = time.monotonic() + budget.max_seconds
    start = time.monotonic()

    def rec(v: int, used: int) -> list[int] | None:
        nonlocal nodes
        if v == n:
            union = 0
            for c in range(1, used + 1):
                union |= cn[c]
            if union == full:
                return member[1 : used + 1]
            return None
        bit = 1 << v
        nv = nbr[v]
        top = used + 1 if used < num_colors else num_colors
        for c in range(1, top + 1):
            if member[c] & nv:
                continue
            nodes += 1
            if nodes > budget.max_nodes:
                raise _BudgetHit
            if not nodes & 0xFFF and time.monotonic() > deadline:
                raise _BudgetHit
            saved_member, saved_cn = member[c], cn[c]
            member[c] = saved_member | bit
            cn[c] = saved_cn & nv
            now_used = used + 1 if c > used else used
            union = 0
            cn_total = 0
            for d in range(1, now_used + 1):
                union |= cn[d]
                cn_total += cn[d].bit_count()
            reachable = union
            if now_used < num_colors:
                reachable |= has_future_neighbor[v + 1]
            if reachable == full and cn_total + degree * (num_colors - now_used) >= n:
                result = rec(v + 1, now_used)
                if result is not None:
                    member[c], cn[c] = saved_member, saved_cn
                    return result
            member[c], cn[c] = saved_member, saved_cn
        return None

    try:
        masks = rec(0, 0)
    except _BudgetHit:
        return FeasibilityOutcome(
            status=BUDGET_EXCEEDED,
            num_colors=num_colors,
            coloring=None,
            nodes_explored=nodes,
            elapsed_seconds=time.monotonic() - start,
        )
    elapsed = time.monotonic() - start
    if masks is None:
        return FeasibilityOutcome(
            status=INFEASIBLE,
            num_colors=num_colors,
            coloring=None,
            nodes_explored=nodes,
            elapsed_seconds=elapsed,
        )
    classes = [
        frozenset(i + 1 for i in range(n) if m >> i & 1) for m in masks if m
    ]
    return FeasibilityOutcome(
        status=FEASIBLE,
        num_colors=num_colors,
        coloring=Coloring.from_classes(n, classes),
        nodes_explored=nodes,
        elapsed_seconds=elapsed,
    )


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

    Brackets the value between max(chromatic, total domination) and, for the
    standard distance-{1,3} graph, the size of the explicit construction
    (otherwise their sum), then tests each class count in increasing order.
    Raises BudgetExceededError with the bracket found so far if any level
    exhausts its budget, and SolverLimitError above the vertex limit.
    """
    eff_limit = DEFAULT_SOLVER_LIMIT if limit is None else limit
    if g.n > eff_limit:
        raise SolverLimitError(g.n, eff_limit)
    if any(not m for m in g.masks):
        raise ValueError("graph has an isolated vertex; no total dominator coloring exists")
    budget = budget or SearchBudget()
    started = time.monotonic()

    chromatic = chromatic_number_oracle(g, limit=eff_limit)
    domination = total_domination_number_oracle(g, limit=eff_limit)
    chi = chromatic.oracle
    gamma_t = domination.oracle
    assert chi is not None and gamma_t is not None
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
    for k in range(lower, g.n + 1):
        if construction_witness is not None and k == upper:
            # every smaller class count was exhausted; the verified
            # construction is the witness, no search needed at this level
            witness = construction_witness
            levels.append((k, FEASIBLE))
        else:
            outcome = tdc_feasible(g, k, budget)
            nodes_total += outcome.nodes_explored
            levels.append((k, outcome.status))
            if outcome.status == BUDGET_EXCEEDED:
                raise BudgetExceededError(
                    lower=k,
                    upper=max(upper, k),
                    nodes_explored=nodes_total,
                    elapsed_seconds=time.monotonic() - started,
                )
            if outcome.status != FEASIBLE:
                continue
            assert outcome.coloring is not None
            witness = outcome.coloring
            report = is_tdc(g, witness)
            assert report.tdc, "search returned a non-TDC witness"
        return SearchOutcome(
            chi_dt=k,
            witness=witness,
            lower_bound_used=lower,
            lower_bound_source=lower_source,
            upper_bound_used=max(upper, k),
            upper_bound_source=upper_source,
            nodes_explored=nodes_total,
            elapsed_seconds=time.monotonic() - started,
            levels=tuple(levels),
        )
    raise AssertionError("unreachable: the all-singletons coloring is always a TDC")
