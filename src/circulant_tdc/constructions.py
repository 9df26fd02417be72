"""Explicit total dominator colorings of the standard distance-{1,3} graph,
one per n >= 6, with exactly formula_tdc(n) classes.

For n = 6 the coloring is the odd/even bipartition (the graph is K_{3,3});
for 7 <= n <= 11 the classes are a fixed table; for n >= 12 a residue-class
scheme of period 8 applies.  The vertices of the open packing
L = {8i+1, 8i+2 : 0 <= i < k}, k = n // 8, become singleton classes.  Then
_RESIDUE_TABLE gives, for r = n % 8, the tail classes near the wrap boundary
{n-7 .. n} as offsets below n, and the offsets of the vertices M that change
parity class (M is empty except for r = 3, 5, 7, where it dodges the
wraparound edges).  With T the packing plus the tails, the last two classes
are (odd - T - M) | (even & M) and (even - T - M) | (odd & M), so the classes
stay disjoint.

verify_construction is the one place that builds a construction and tests
it, on C_n(1,3) or, through a reduction, on C_n(a,b).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring, ColoringReport, is_tdc
from .formulas import formula_tdc
from .graphs import ReductionResult, build_circulant, standard_circulant


class ConstructionError(ValueError):
    """Raised when the set algebra yields an empty class (a construction bug)."""


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

    packing is the open packing whose members become singleton classes
    (empty for n <= 11, where the table is used verbatim).
    """

    n: int
    k: int
    residue: int
    packing: frozenset[int]
    coloring: Coloring

    @property
    def classes(self) -> tuple[frozenset[int], ...]:
        return self.coloring.classes

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "residue": self.residue,
            "packing": sorted(self.packing),
            "num_classes": len(self.coloring),
            "classes": self.coloring.as_lists(),
        }


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


def _tail(n: int, offsets: tuple[int, ...]) -> frozenset[int]:
    return frozenset(n - o for o in offsets)


def _residue_classes(n: int) -> tuple[frozenset[int], list[frozenset[int]]]:
    """Open packing plus ordered class list for n >= 12, read off _RESIDUE_TABLE."""
    k, r = divmod(n, 8)
    tail_offsets, move_offsets = _RESIDUE_TABLE[r]
    packing = frozenset(v for i in range(k) for v in (8 * i + 1, 8 * i + 2))
    tail = [_tail(n, offsets) for offsets in tail_offsets]
    taken = packing.union(*tail)
    moved = _tail(n, move_offsets)
    odd = frozenset(range(1, n + 1, 2))
    even = frozenset(range(2, n + 1, 2))
    leftovers = [(odd - taken - moved) | (even & moved), (even - taken - moved) | (odd & moved)]
    classes = [frozenset({v}) for v in sorted(packing)] + tail + leftovers
    return packing, classes


def construct_tdc(n: int) -> ConstructionPlan:
    """Emit the explicit total dominator coloring for the standard graph on n vertices.

    Deterministic; class order follows the listing order (packing singletons,
    then boundary sets, then parity leftovers).  Raises ConstructionError if
    the set algebra ever produces an empty class.
    """
    if n < 6:
        raise ValueError(f"constructions start at n = 6, got {n}")
    if n <= 11:
        packing: frozenset[int] = frozenset()
        classes = [frozenset(c) for c in _SMALL_TABLE[n]]
    else:
        packing, classes = _residue_classes(n)
    for idx, cls in enumerate(classes):
        if not cls:
            raise ConstructionError(f"class {idx + 1} for n={n} is empty")
    coloring = Coloring.from_classes(n, classes)
    return ConstructionPlan(
        n=n,
        k=n // 8,
        residue=n % 8,
        packing=packing,
        coloring=coloring,
    )


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
    C_n(a,b) to C_n(1,3), each class S is pulled back to {x : a^{-1}x in S},
    a coloring of C_n(a,b), and the test runs there.  A failure (not a TDC,
    or wrong class count) is reported in the verdict, never silently dropped.
    """
    plan = construct_tdc(n)
    if reduction is None:
        coloring, graph = plan.coloring, standard_circulant(n)
    else:
        image = reduction.vertex_map
        coloring = Coloring.from_classes(
            n, [{x for x in image if image[x] in cls} for cls in plan.classes]
        )
        graph = build_circulant(n, [reduction.a, reduction.b])
    return ConstructionVerdict(
        expected_classes=formula_tdc(n),
        plan=plan,
        coloring=coloring,
        report=is_tdc(graph, coloring),
    )
