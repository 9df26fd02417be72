"""Explicit total dominator colorings of the standard distance-{1,3} graph,
one per n >= 6, with exactly formula_tdc(n) classes.

For n = 6 the coloring is the odd/even bipartition (the graph is K_{3,3});
for 7 <= n <= 11 the classes are a fixed table; for n >= 12 a residue-class
scheme applies: the vertices of the open packing L = {8i+1, 8i+2 : 0 <= i < k},
k = n // 8, become singleton classes, a handful of sets near the wrap
boundary {n-7 .. n} become classes of their own, and the remaining odd and
even vertices form the last two classes.  For residues 3, 5 and 7 a few
boundary vertices switch parity class to dodge the wraparound edges; those
vertices are removed from their source class so the classes stay disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import Coloring, ColoringReport, is_tdc
from .formulas import formula_tdc
from .graphs import CirculantGraph, standard_circulant


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


def _tail(n: int, *offsets: int) -> frozenset[int]:
    return frozenset(n - o for o in offsets)


def _residue_classes(n: int) -> tuple[frozenset[int], list[frozenset[int]]]:
    """Open packing plus ordered class list for n >= 12."""
    k, r = divmod(n, 8)
    packing = frozenset(v for i in range(k) for v in (8 * i + 1, 8 * i + 2))
    odd = frozenset(range(1, n + 1, 2))
    even = frozenset(range(2, n + 1, 2))
    # boundary sets at even/odd offsets from n; "same" shares n's parity
    quad_same = _tail(n, 6, 4, 2, 0)   # {n-6, n-4, n-2, n}
    quad_other = _tail(n, 7, 5, 3, 1)  # {n-7, n-5, n-3, n-1}
    tri_same = _tail(n, 6, 4, 2)
    tri_other = _tail(n, 7, 5, 3)
    pair_same = _tail(n, 6, 4)
    pair_other = _tail(n, 7, 5)

    if r == 0:
        tail = [odd - packing, even - packing]
    elif r == 1:
        # n odd, quad_same is odd
        tail = [quad_same, odd - packing - quad_same, even - packing]
    elif r == 2:
        tail = [
            quad_same,
            quad_other,
            odd - packing - quad_other,
            even - packing - quad_same,
        ]
    elif r == 3:
        # vertex n moves from the odd leftover into the even leftover
        tail = [
            quad_other,
            tri_same,
            odd - packing - tri_same - {n},
            (even - packing - quad_other) | {n},
        ]
    elif r == 4:
        tail = [tri_same, tri_other, odd - packing - tri_other, even - packing - tri_same]
    elif r == 5:
        # n-1 joins the odd leftover; n-2 and n join the even leftover
        tail = [
            tri_other,
            pair_same,
            (odd - packing - pair_same - {n - 2, n}) | {n - 1},
            (even - packing - tri_other - {n - 1}) | {n - 2, n},
        ]
    elif r == 6:
        tail = [pair_same, pair_other, odd - packing - pair_other, even - packing - pair_same]
    else:  # r == 7
        # n-3 and n-1 join the odd leftover; n-4, n-2 and n join the even leftover
        tail = [
            frozenset({n - 6}),
            pair_other,
            (odd - packing - {n - 6, n - 4, n - 2, n}) | {n - 3, n - 1},
            (even - packing - pair_other - {n - 3, n - 1}) | {n - 4, n - 2, n},
        ]

    classes = [frozenset({v}) for v in sorted(packing)] + tail
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

    ok requires the coloring to pass the total dominator test with exactly
    the closed-form class count.
    """

    n: int
    num_classes: int
    expected_classes: int
    report: ColoringReport

    @property
    def class_count_ok(self) -> bool:
        return self.num_classes == self.expected_classes

    @property
    def ok(self) -> bool:
        return self.report.tdc and self.class_count_ok

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "num_classes": self.num_classes,
            "expected_classes": self.expected_classes,
            "tdc": self.report.tdc,
            "ok": self.ok,
        }


def verify_construction(n: int, g: CirculantGraph | None = None) -> ConstructionVerdict:
    """Run the total dominator test on the constructed coloring for n.

    A failure (not a TDC, or wrong class count) is reported in the verdict,
    never silently dropped.
    """
    plan = construct_tdc(n)
    graph = g if g is not None else standard_circulant(n)
    report = is_tdc(graph, plan.coloring)
    return ConstructionVerdict(
        n=n,
        num_classes=len(plan.coloring),
        expected_classes=formula_tdc(n),
        report=report,
    )
