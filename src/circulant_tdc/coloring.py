"""Colorings, properness, common neighborhoods and the total dominator test."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Collection, Iterable

from .graphs import CirculantGraph


class ColoringError(ValueError):
    """Raised when class sets do not form a partition of {1..n}."""


@dataclass(frozen=True)
class Coloring:
    """A partition of {1..n} into nonempty color classes, in a fixed order.

    The class order is preserved as given (constructions rely on it for
    readable output).
    """

    n: int
    classes: tuple[frozenset[int], ...]

    @staticmethod
    def from_classes(n: int, classes: Iterable[Iterable[int]]) -> "Coloring":
        """Freeze `classes` into a Coloring, or name the first fault.

        Nonempty classes whose sizes sum to n and whose union has n integer
        members, all in 1..n, are exactly the partitions of {1..n}, and that
        test runs in C: one float label, even 2.0, makes the union's sum a
        float.  Only input that fails it walks the classes in order, so the
        first fault found (empty class, non-integer label, label out of
        range, repeat, uncovered vertex) is the one reported.
        """
        sets = tuple(frozenset(c) for c in classes)
        if all(sets) and sum(map(len, sets)) == n:
            union = frozenset().union(*sets)
            if (
                union
                and len(union) == n
                and min(union) >= 1
                and max(union) <= n
                and type(sum(union)) is int
            ):
                return Coloring(n=n, classes=sets)
        seen: set[int] = set()
        for idx, cls in enumerate(sets):
            if not cls:
                raise ColoringError(f"class {idx + 1} is empty")
            for v in cls:
                if not isinstance(v, int):
                    raise ColoringError(f"label {v!r} is not an integer")
                if not (1 <= v <= n):
                    raise ColoringError(f"vertex {v} is outside 1..{n}")
                if v in seen:
                    raise ColoringError(f"vertex {v} appears in more than one class")
                seen.add(v)
        if len(seen) != n:
            missing = min(set(range(1, n + 1)) - seen)
            raise ColoringError(f"vertex {missing} is not covered by any class")
        return Coloring(n=n, classes=sets)

    def __len__(self) -> int:
        return len(self.classes)

    def as_lists(self) -> list[list[int]]:
        return [sorted(c) for c in self.classes]


@dataclass(frozen=True)
class ClassRecord:
    """Per-class facts used in reports: members, size, common neighborhood."""

    vertices: tuple[int, ...]
    size: int
    common_neighborhood: tuple[int, ...]
    cn_size: int

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "size": self.size,
            "common_neighborhood": list(self.common_neighborhood),
            "cn_size": self.cn_size,
        }


@dataclass(frozen=True)
class ColoringReport:
    """Verdict of the total dominator test on one coloring.

    tdc holds exactly when the coloring is proper and `uncovered` is empty;
    `uncovered` lists, in sorted order, the vertices that totally dominate
    no class.  The per-class records in `classes` are built from `graph`
    and `coloring` on first read and then kept, so a caller that wants only
    the verdict never pays for them.
    """

    n: int
    proper: bool
    uncovered: tuple[int, ...]
    tdc: bool
    graph: CirculantGraph = field(repr=False)
    coloring: Coloring = field(repr=False)

    @cached_property
    def classes(self) -> tuple[ClassRecord, ...]:
        n, offsets = self.n, self.graph.offsets
        offset_set = frozenset(offsets)
        records = []
        for cls in self.coloring.classes:
            cn = sorted(_common_neighbors(n, offsets, offset_set, cls))
            records.append(
                ClassRecord(
                    vertices=tuple(sorted(cls)),
                    size=len(cls),
                    common_neighborhood=tuple(cn),
                    cn_size=len(cn),
                )
            )
        return tuple(records)

    @property
    def cn_size_sum(self) -> int:
        return sum(rec.cn_size for rec in self.classes)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "proper": self.proper,
            "tdc": self.tdc,
            "num_classes": len(self.classes),
            "classes": [rec.to_dict() for rec in self.classes],
            "uncovered": list(self.uncovered),
            "cn_size_sum": self.cn_size_sum,
        }


def _require_same_order(g: CirculantGraph, coloring: Coloring) -> None:
    if coloring.n != g.n:
        raise ColoringError(f"coloring is on {coloring.n} vertices, graph on {g.n}")


def _color_array(coloring: Coloring) -> list[int]:
    """color[v-1] = 0-based index of the class holding vertex v."""
    color = [0] * coloring.n
    for idx, cls in enumerate(coloring.classes):
        for v in cls:
            color[v - 1] = idx
    return color


def is_proper(g: CirculantGraph, coloring: Coloring) -> bool:
    """True iff no edge of g joins two vertices of the same class.

    The edges of distance d join each vertex to the one d steps on, so the
    coloring is proper iff the color list differs everywhere from its
    rotation by d, for every d in the connection set.
    """
    _require_same_order(g, coloring)
    color = _color_array(coloring)
    return not any(
        any(map(operator.eq, color, color[d:] + color[:d])) for d in g.connection_set
    )


def _common_neighbors(
    n: int, offsets: tuple[int, ...], offset_set: Collection[int], members: Collection[int]
) -> list[int]:
    """Common neighbors of the nonempty `members` in the circulant on 1..n.

    A common neighbor is adjacent to every member, so it is some neighbor
    u = first + o of one member, and u is adjacent to another member w
    exactly when (u - w) mod n is an offset (never for u = w).  A class
    larger than the degree has none.
    """
    if len(members) > len(offsets):
        return []
    first, *rest = members
    return [
        (first + o - 1) % n + 1
        for o in offsets
        if all((first + o - w) % n in offset_set for w in rest)
    ]


def common_neighborhood(g: CirculantGraph, cls: Iterable[int]) -> frozenset[int]:
    """All vertices adjacent to every vertex of `cls` (its common neighborhood).

    For a singleton class this is the open neighborhood of its member.
    """
    members = sorted(set(cls))
    if not members:
        raise ColoringError("common neighborhood of an empty class is undefined")
    for v in members:
        if not (1 <= v <= g.n):
            raise ColoringError(f"vertex {v} is outside 1..{g.n}")
    offsets = g.offsets
    return frozenset(_common_neighbors(g.n, offsets, frozenset(offsets), members))


def is_tdc(g: CirculantGraph, coloring: Coloring) -> ColoringReport:
    """Total-dominator-coloring verdict for `coloring` on `g`.

    A proper coloring is a TDC iff the common neighborhoods of its classes
    cover the whole vertex set, so `uncovered` is computed as the complement
    of that union.  One pass over the classes clears each common neighbor
    straight from the offsets: a singleton {v} clears v + o for every offset
    o, and no class is sorted or recorded.  Reads only the graph's offsets:
    O(n * degree) time and O(n) memory.  The report's per-class records are
    built only when first read.
    """
    _require_same_order(g, coloring)
    proper = is_proper(g, coloring)
    n, offsets = g.n, g.offsets
    offset_set = frozenset(offsets)
    # missing[v-1] stays 1 until some class's common neighborhood holds v
    missing = bytearray(b"\x01") * n
    for cls in coloring.classes:
        if len(cls) == 1:
            (v,) = cls
            for o in offsets:
                missing[(v - 1 + o) % n] = 0
        else:
            for u in _common_neighbors(n, offsets, offset_set, cls):
                missing[u - 1] = 0
    uncovered = tuple(compress(range(1, n + 1), missing))
    return ColoringReport(
        n=n,
        proper=proper,
        uncovered=uncovered,
        tdc=proper and not uncovered,
        graph=g,
        coloring=coloring,
    )
