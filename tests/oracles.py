"""Independent brute-force reference implementations for the tests.

Everything here is built straight from the definitions using dict-of-set
adjacency, deliberately sharing no code with the package's bitmask fast
paths, so the two sides of every comparison stay independent.
"""

from itertools import combinations


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


def min_total_dominating_size(n, adj):
    vertices = set(range(1, n + 1))
    for r in range(1, n + 1):
        for s in combinations(sorted(vertices), r):
            chosen = set(s)
            if all(adj[v] & chosen for v in vertices):
                return r
    return None


def tdc_feasible_plain(n, adj, num_colors):
    """Plain backtracking over proper colorings with a leaf TDC check.

    No domination-based pruning at all; used to cross-validate the pruned
    search in the package.
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
                classes[idx].discard(v)
                return True
            classes[idx].discard(v)
        return False

    return rec(1, 0)
