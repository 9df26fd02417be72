"""Explicit total dominator colorings of the standard distance-{1,3} graph,
one per n >= 6, with exactly formula_tdc(n) classes.

For n = 6 the coloring is the odd/even bipartition (the graph is K_{3,3});
for 7 <= n <= 11 the classes are a fixed table; for n >= 12 a residue-class
scheme of period 8 is written straight into the color array.  Every vertex
starts in the leftover class of its parity, odd or even, the last two
classes.  The vertices of the open packing L = {8i+1, 8i+2 : 0 <= i < k},
k = n // 8, become the singleton classes 0..2k-1 in increasing order: two
slice assignments of step 8.  Then _RESIDUE_TABLE gives, for r = n % 8, the
tail classes near the wrap boundary {n-7 .. n} as offsets below n, which
take the indices between, and the offsets of the vertices M that change
parity class (M is empty except for r = 3, 5, 7, where it dodges the
wraparound edges); together they set at most 8 entries.  With T the packing
plus the tails, the leftovers are (odd - T - M) | (even & M) and
(even - T - M) | (odd & M); Coloring.from_colors rejects an array that
leaves a class empty.

verify_construction builds a construction and tests it, on C_n(1,3) or,
through a reduction, on C_n(a,b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .coloring import Coloring, ColoringReport, is_tdc
from .formulas import formula_tdc
from .graphs import ReductionResult, build_circulant, circular_distance, standard_circulant


_SMALL_TABLE: dict[int, tuple[tuple[int, ...], ...]] = {
    6: ((1, 3, 5), (2, 4, 6)),
    7: ((1,), (2, 7), (3, 5), (4, 6)),
    8: ((1, 3, 5, 7), (2, 4, 6, 8)),
    9: ((1, 8), (2, 9), (3, 5, 7), (4, 6)),
    10: ((1,), (2,), (3, 5, 7, 9), (4, 6, 8, 10)),
    11: ((1, 3, 5), (2, 11), (7, 9), (8, 10), (4, 6)),
}


@dataclass(frozen=True)
class ConstructionPlan:
    """A constructed coloring together with the pieces it was assembled from.

    k = n // 8 and residue = n % 8 pick the row of the residue scheme;
    `coloring` is the Coloring, its color array and class count, and
    `coloring.as_lists()` lists its classes.
    packing is the open packing whose members become singleton classes
    (empty for n <= 11, where the table is used verbatim).  It is built on
    first read, so certifying the coloring never pays for it.
    """

    n: int
    k: int
    residue: int
    coloring: Coloring

    @cached_property
    def packing(self) -> frozenset[int]:
        if self.n <= 11:
            return frozenset()
        return frozenset(chain(range(1, 8 * self.k, 8), range(2, 8 * self.k, 8)))


# Row r = n % 8: (tail classes as offsets below n, offsets whose vertex moves
# to the other parity's leftover class).  Moves keep the leftovers proper
# across the wraparound: for odd n, vertex n is adjacent to the odd vertices
# 1 and 3.
_RESIDUE_TABLE: tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...] = (
    ((), ()),  # r = 0
    (((6, 4, 2, 0),), ()),  # r = 1
    (((6, 4, 2, 0), (7, 5, 3, 1)), ()),  # r = 2
    (((7, 5, 3, 1), (6, 4, 2)), (0,)),  # r = 3
    (((6, 4, 2), (7, 5, 3)), ()),  # r = 4
    (((7, 5, 3), (6, 4)), (2, 1, 0)),  # r = 5
    (((6, 4), (7, 5)), ()),  # r = 6
    (((6,), (7, 5)), (4, 3, 2, 1, 0)),  # r = 7
)


def _residue_colors(n: int) -> list[int]:
    """The color array for n >= 12, read off _RESIDUE_TABLE."""
    k, r = divmod(n, 8)
    tail_offsets, move_offsets = _RESIDUE_TABLE[r]
    odd = 2 * k + len(tail_offsets)  # the odd leftover class; the even one is odd + 1
    color = [odd, odd + 1] * (n // 2) + [odd] * (n % 2)
    color[0 : 8 * k : 8] = range(0, 2 * k, 2)
    color[1 : 8 * k : 8] = range(1, 2 * k, 2)
    for idx, offsets in enumerate(tail_offsets, start=2 * k):
        for o in offsets:
            color[n - o - 1] = idx
    for o in move_offsets:
        color[n - o - 1] = odd + (n - o) % 2
    return color


def construct_tdc(n: int) -> ConstructionPlan:
    """Emit the explicit total dominator coloring for the standard graph on n vertices.

    Deterministic; class order follows the listing order (packing singletons,
    then boundary sets, then parity leftovers).  Coloring.from_colors raises
    ColoringError if the array ever leaves a class index unused.  Raises
    ValueError for an n that is not an int (a bool included) or is below 6.
    """
    if type(n) is not int or n < 6:
        raise ValueError(f"constructions need an integer n >= 6, got {n!r}")
    if n <= 11:
        coloring = Coloring.from_classes(n, _SMALL_TABLE[n])
    else:
        coloring = Coloring.from_colors(n, _residue_colors(n))
    return ConstructionPlan(n=n, k=n // 8, residue=n % 8, coloring=coloring)


@dataclass(frozen=True)
class ConstructionVerdict:
    """Structured result of checking one constructed coloring.

    `coloring` is the coloring that was tested: the plan's classes, or their
    pull-back when a reduction was given.  ok requires it to pass the total
    dominator test with exactly the closed-form class count.
    """

    expected_classes: int
    plan: ConstructionPlan
    coloring: Coloring
    report: ColoringReport

    @property
    def num_classes(self) -> int:
        return len(self.coloring)

    @property
    def ok(self) -> bool:
        return self.report.tdc and self.num_classes == self.expected_classes


def verify_construction(n: int, reduction: ReductionResult | None = None) -> ConstructionVerdict:
    """Build the construction for n once and run the total dominator test on it.

    Without a reduction the test runs on C_n(1,3).  With the reduction of
    C_n(a,b) to C_n(1,3), the color array is pulled back along the vertex
    map, color'(x) = color(a^{-1}x), so each class S becomes
    {x : a^{-1}x in S}, a coloring of C_n(a,b), and the test runs there.
    A failure (not a TDC, or wrong class count) is reported in the verdict,
    never silently dropped.  Raises ValueError for a reduction of another n,
    or one whose target is not C_n(1,3).
    """
    plan = construct_tdc(n)
    if reduction is None:
        coloring, graph = plan.coloring, standard_circulant(n)
    else:
        if reduction.n != n or reduction.standard_c != circular_distance(3, 0, n):
            raise ValueError(
                f"the reduction of C_{reduction.n}({reduction.a},{reduction.b}) maps onto "
                f"C_{reduction.n}(1,{reduction.standard_c}), not C_{n}(1,3)"
            )
        color, vertex_map = plan.coloring.color, reduction.vertex_map
        coloring = Coloring.from_colors(n, [color[vertex_map[x] - 1] for x in range(1, n + 1)])
        graph = build_circulant(n, [reduction.a, reduction.b])
    return ConstructionVerdict(
        expected_classes=formula_tdc(n),
        plan=plan,
        coloring=coloring,
        report=is_tdc(graph, coloring),
    )
