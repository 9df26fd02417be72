"""Colorings, properness, common neighborhoods and the total dominator test.

A Coloring is its color array and its class count: color[v-1] is the
0-based index of the class of vertex v.  as_lists() is the one class view,
grouped from the array in one pass.  is_proper compares the array with its
rotations, and is_tdc reads coverage from the class sizes and the graph's
offsets, so certifying a coloring builds no per-class set.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from typing import Collection, Iterable, Sequence

from .graphs import CirculantGraph


class ColoringError(ValueError):
    """Raised when class sets or a color array do not form a partition of {1..n}."""


@dataclass(frozen=True)
class Coloring:
    """A partition of {1..n} into k nonempty color classes, in a fixed order.

    `color[v-1]` is the 0-based index of the class holding vertex v, and
    every index in 0..k-1 is used, so the array is a partition by
    construction; `k` is stored, so len() never rescans the array.
    Equality and hashing compare the arrays.  The constructor trusts its
    arguments; `from_classes` and `from_colors` check their input.
    """

    n: int
    color: tuple[int, ...]
    k: int

    @staticmethod
    def from_classes(n: int, classes: Iterable[Iterable[int]]) -> "Coloring":
        """Freeze `classes` into a Coloring, or name the first fault.

        Each class is read as a set, and the classes are walked in order,
        writing each label's class index into the color array.  The first
        fault raises: an empty class, a label that is not an int (a bool or
        2.0 is not), a label outside 1..n, or one already in an earlier
        class; after the walk, the least vertex that no class holds.
        """
        sets = tuple(frozenset(c) for c in classes)
        color = [-1] * n
        for idx, cls in enumerate(sets):
            if not cls:
                raise ColoringError(f"class {idx + 1} is empty")
            for v in cls:
                if type(v) is not int:
                    raise ColoringError(f"label {v!r} is not an integer")
                if not 1 <= v <= n:
                    raise ColoringError(f"vertex {v} is outside 1..{n}")
                if color[v - 1] >= 0:
                    raise ColoringError(f"vertex {v} appears in more than one class")
                color[v - 1] = idx
        if -1 in color:
            raise ColoringError(f"vertex {color.index(-1) + 1} is not covered by any class")
        return Coloring(n, tuple(color), len(sets))

    @staticmethod
    def from_colors(n: int, color: Sequence[int]) -> "Coloring":
        """Wrap the color array `color` into a Coloring, or name the first fault.

        `color[v-1]` is the 0-based class index of vertex v.  The array must
        have n entries, each an int, whose set is exactly 0..k-1 for some k;
        each test is one pass of a builtin.  Only an array that fails them
        is walked, to name the first vertex at fault or the first unused
        index.
        """
        return Coloring(n, tuple(color), _count_classes(n, color))

    def __len__(self) -> int:
        return self.k

    def as_lists(self) -> list[list[int]]:
        """The classes in index order, each an ascending list of its vertices."""
        lists: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.color, start=1):
            lists[c].append(v)
        return lists


def _count_classes(n: int, color: Sequence[int]) -> int:
    """The number k of classes of the color array `color`, or its first fault."""
    if len(color) != n:
        raise ColoringError(f"{len(color)} colors given for {n} vertices")
    if not set(map(type, color)) <= {int}:
        v, c = next((v, c) for v, c in enumerate(color, 1) if type(c) is not int)
        raise ColoringError(f"color {c!r} of vertex {v} is not an integer")
    used = set(color)
    top = max(used, default=-1)
    if used and (min(used) < 0 or top >= n):
        v, c = next((v, c) for v, c in enumerate(color, 1) if not 0 <= c < n)
        raise ColoringError(f"color {c} of vertex {v} is outside 0..{n - 1}")
    if top != len(used) - 1:
        missing = min(set(range(top)) - used)
        raise ColoringError(f"class {missing + 1} is empty: no vertex has color {missing}")
    return len(used)


@dataclass(frozen=True)
class ColoringReport:
    """Verdict of the total dominator test on one coloring.

    tdc holds exactly when the coloring is proper and `uncovered` is empty;
    `uncovered` lists, in sorted order, the vertices that totally dominate
    no class.
    """

    n: int
    proper: bool
    uncovered: tuple[int, ...]
    tdc: bool


def is_proper(g: CirculantGraph, coloring: Coloring) -> bool:
    """True iff no edge of g joins two vertices of the same class.

    The edges of distance d join each vertex to the one d steps on, so the
    coloring is proper iff the color array differs everywhere from its
    rotation by d, for every d in the connection set.  The rotation is read
    in place, so no rotated copy of the array is made.  A coloring of
    another order raises ColoringError.
    """
    if coloring.n != g.n:
        raise ColoringError(f"coloring is on {coloring.n} vertices, graph on {g.n}")
    color = coloring.color
    return not any(
        any(map(operator.eq, color, chain(islice(color, d, None), color[:d])))
        for d in g.connection_set
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
    of that union, from the color array and the offsets alone.  A singleton
    {v} covers v + o for every offset o, so u is covered by a singleton
    exactly when the singleton flags, rotated by some offset, have a 1 at u:
    the flags are OR-ed over the offsets as integers.  A class larger than
    the degree covers nothing, so only classes of size 2..degree have their
    members collected and their common neighbors cleared.  No class set is
    built and none is recorded: O(n * degree) time and O(n) memory.
    is_proper, which runs first, rejects a coloring of another order.
    """
    proper = is_proper(g, coloring)
    n, offsets, color = g.n, g.offsets, coloring.color
    sizes = Counter(color)
    flags = bytes(map(operator.eq, map(sizes.__getitem__, color), repeat(1)))
    covered = 0
    for o in offsets:
        covered |= int.from_bytes(flags[n - o :] + flags[: n - o], "little")
    # missing[v-1] stays 1 until some class's common neighborhood holds v
    missing = bytearray((int.from_bytes(b"\x01" * n, "little") ^ covered).to_bytes(n, "little"))
    small = {c for c, size in sizes.items() if 1 < size <= len(offsets)}
    if small:
        members: dict[int, list[int]] = {}
        for v in compress(range(1, n + 1), map(small.__contains__, color)):
            members.setdefault(color[v - 1], []).append(v)
        offset_set = frozenset(offsets)
        for cls in members.values():
            for u in _common_neighbors(n, offsets, offset_set, cls):
                missing[u - 1] = 0
    uncovered = tuple(compress(range(1, n + 1), missing))
    return ColoringReport(n=n, proper=proper, uncovered=uncovered, tdc=proper and not uncovered)
