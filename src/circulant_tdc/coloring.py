"""Colorings, properness, common neighborhoods and the total dominator test."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import CirculantGraph, is_standard_13, mask_to_vertices, vertices_to_mask


class ColoringError(ValueError):
    """Raised when class sets do not form a partition of {1..n}."""


@dataclass(frozen=True)
class Coloring:
    """A partition of {1..n} into nonempty color classes, in a fixed order.

    The class order is preserved as given (constructions rely on it for
    readable output); `classes_by_size` is the canonical view sorted by
    descending size.
    """

    n: int
    classes: tuple[frozenset[int], ...]

    @staticmethod
    def from_classes(n: int, classes: Iterable[Iterable[int]]) -> "Coloring":
        sets = tuple(frozenset(c) for c in classes)
        seen: set[int] = set()
        for idx, cls in enumerate(sets):
            if not cls:
                raise ColoringError(f"class {idx + 1} is empty")
            for v in cls:
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

    @property
    def classes_by_size(self) -> tuple[frozenset[int], ...]:
        return tuple(sorted(self.classes, key=lambda c: (-len(c), sorted(c))))

    def color_of(self) -> dict[int, int]:
        """Vertex -> 1-based class index view."""
        out = {}
        for idx, cls in enumerate(self.classes, start=1):
            for v in cls:
                out[v] = idx
        return out

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
    no class.
    """

    n: int
    proper: bool
    classes: tuple[ClassRecord, ...]
    uncovered: tuple[int, ...]
    tdc: bool

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


def is_proper(g: CirculantGraph, coloring: Coloring) -> bool:
    """True iff no edge of g joins two vertices of the same class."""
    _require_same_order(g, coloring)
    for cls in coloring.classes:
        mask = vertices_to_mask(cls)
        for v in cls:
            if g.neighbor_mask(v) & mask:
                return False
    return True


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
    cn = g.full_mask
    for v in members:
        cn &= g.neighbor_mask(v)
        if not cn:
            break
    return frozenset(mask_to_vertices(cn))


def is_tdc(g: CirculantGraph, coloring: Coloring) -> ColoringReport:
    """Full total-dominator-coloring report for `coloring` on `g`.

    A proper coloring is a TDC iff the common neighborhoods of its classes
    cover the whole vertex set, so `uncovered` is computed as the complement
    of that union.
    """
    _require_same_order(g, coloring)
    proper = is_proper(g, coloring)
    records = []
    covered = 0
    for cls in coloring.classes:
        cn = g.full_mask
        for v in cls:
            cn &= g.neighbor_mask(v)
            if not cn:
                break
        covered |= cn
        records.append(
            ClassRecord(
                vertices=tuple(sorted(cls)),
                size=len(cls),
                common_neighborhood=mask_to_vertices(cn),
                cn_size=cn.bit_count(),
            )
        )
    uncovered = mask_to_vertices(g.full_mask & ~covered)
    return ColoringReport(
        n=g.n,
        proper=proper,
        classes=tuple(records),
        uncovered=uncovered,
        tdc=proper and not uncovered,
    )


def class_size_capacity_check(g: CirculantGraph, coloring: Coloring) -> bool:
    """Size/common-neighborhood capacity predicate for proper colorings.

    On the standard distance-{1,3} graph with n >= 9, every class of a proper
    coloring satisfies: size + |CN| <= 5 when size <= 4, and |CN| = 0 when
    size >= 5.  Returns True iff every class of `coloring` does.
    """
    if not is_standard_13(g) or g.n < 9:
        raise ValueError("capacity check applies to the standard distance-{1,3} graph with n >= 9")
    report = is_tdc(g, coloring)
    if not report.proper:
        raise ColoringError("capacity check requires a proper coloring")
    for rec in report.classes:
        if rec.size <= 4 and rec.size + rec.cn_size > 5:
            return False
        if rec.size >= 5 and rec.cn_size != 0:
            return False
    return True


def random_greedy_coloring(g: CirculantGraph, seed: int) -> Coloring:
    """Proper coloring from greedy assignment over a seed-shuffled vertex order.

    Deterministic for a fixed seed, which keeps property-test failures
    reproducible.
    """
    rng = random.Random(seed)
    order = list(g.vertices())
    rng.shuffle(order)
    class_masks: list[int] = []
    classes: list[set[int]] = []
    for v in order:
        nv = g.neighbor_mask(v)
        for idx, mask in enumerate(class_masks):
            if not mask & nv:
                class_masks[idx] |= 1 << (v - 1)
                classes[idx].add(v)
                break
        else:
            class_masks.append(1 << (v - 1))
            classes.append({v})
    return Coloring.from_classes(g.n, classes)
