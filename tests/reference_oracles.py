"""Reference computations that only the tests use.

The two oracles deliberately share nothing with the sweep: the tour
oracle ``tsp_bruteforce`` scores cyclic permutations of the distance
matrix, and the tree oracle ``steiner_oracle`` runs the Dreyfus-Wagner
dynamic program over terminal subsets on the grid graph (the optimal
rectilinear Steiner tree lies on the Hanan grid, so the finite oracle is
exact). ``steiner_exhaustive`` validates the tree oracle on tiny grids,
and ``l1_mst`` brackets it. ``super_catalan`` and ``catalan`` are the
sequences whose binomial transforms count the frontier states.
``segment_points`` and ``UnionFind`` let the tests replay a solution's
invariants on coordinates, apart from the package's own index checks.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

import numpy as np

from rectisolve.errors import GuardExceeded, InputError
from rectisolve.geometry import Instance, Point, build_grid, l1

MAX_BRUTE_POINTS = 10
MAX_ORACLE_TERMINALS = 10
MAX_ORACLE_GRID = 400

_INF = np.int64(2**31)


def segment_points(instance: Instance, edges) -> list[tuple[Point, Point]]:
    """The two end points of each solution edge, read from its (kind, row,
    col) along the instance's sorted distinct xs and ys."""
    xs = sorted({p.x for p in instance.points})
    ys = sorted({p.y for p in instance.points})
    ends = []
    for kind, row, col, _ in edges:
        assert kind in ("V", "H") and row >= 1 and col >= 1
        x, y = xs[col - 1], ys[row - 1]
        ends.append((Point(x, y), Point(x, ys[row]) if kind == "V" else Point(xs[col], y)))
    return ends


class UnionFind:
    """Connectivity over any hashable vertices."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> bool:
        """Merge; returns False when a and b were already connected."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def distance_matrix(instance: Instance) -> np.ndarray:
    pts = instance.points
    n = len(pts)
    d = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = l1(pts[i], pts[j])
    return d


def tsp_bruteforce(instance: Instance) -> int:
    """Minimum over all cyclic orders of the points."""
    n = len(instance.points)
    if not 1 <= n <= MAX_BRUTE_POINTS:
        raise GuardExceeded(f"brute force supports 1..{MAX_BRUTE_POINTS} points")
    if n == 1:
        return 0
    d = distance_matrix(instance)
    if n == 2:
        return int(2 * d[0, 1])
    best = None
    rest = range(1, n)
    for perm in permutations(rest):
        if perm[0] > perm[-1]:  # each cycle has two directions; score one
            continue
        total = d[0, perm[0]] + d[perm[-1], 0]
        for a, b in zip(perm, perm[1:]):
            total += d[a, b]
        if best is None or total < best:
            best = total
    return int(best)


def _grid_graph(instance: Instance):
    """Vertices, edges and terminal indices of the instance's Hanan grid."""
    grid = build_grid(instance)
    h, v = grid.h, grid.v
    if h * v > MAX_ORACLE_GRID:
        raise GuardExceeded(
            f"oracle grid has {h * v} vertices (limit {MAX_ORACLE_GRID})"
        )

    def vid(i, j):
        return i * v + j

    edges = []
    for i in range(h):
        for j in range(v):
            if i + 1 < h:
                edges.append((vid(i, j), vid(i + 1, j), grid.ys[i + 1] - grid.ys[i]))
            if j + 1 < v:
                edges.append((vid(i, j), vid(i, j + 1), grid.xs[j + 1] - grid.xs[j]))
    terminals = [
        vid(i, j) for i in range(h) for j in range(v) if grid.terminal[i][j]
    ]
    return h * v, edges, terminals


def _all_pairs(n_vertices: int, edges) -> np.ndarray:
    d = np.full((n_vertices, n_vertices), _INF, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for a, b, w in edges:
        if w < d[a, b]:
            d[a, b] = d[b, a] = w
    for k in range(n_vertices):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def steiner_oracle(instance: Instance) -> int:
    """Exact Steiner tree value on the grid graph via Dreyfus-Wagner."""
    k = len(instance.points)
    if not 1 <= k <= MAX_ORACLE_TERMINALS:
        raise GuardExceeded(
            f"tree oracle supports 1..{MAX_ORACLE_TERMINALS} terminals"
        )
    n, edges, terminals = _grid_graph(instance)
    dist = _all_pairs(n, edges)
    full = (1 << k) - 1
    f = np.full((full + 1, n), _INF, dtype=np.int64)
    for t in range(k):
        f[1 << t] = dist[terminals[t]]
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        g = f[mask]
        lo = mask & (-mask)
        sub = (mask - 1) & mask
        while sub:
            if sub & lo:  # enumerate each split once
                np.minimum(g, f[sub] + f[mask ^ sub], out=g)
            sub = (sub - 1) & mask
        # grow the best tree for this subset toward every other vertex
        f[mask] = (g[:, None] + dist).min(axis=0)
    return int(f[full][terminals[0]])


MAX_EXHAUSTIVE_EDGES = 14


def steiner_exhaustive(instance: Instance) -> int:
    """Minimum over all grid-edge subsets that connect the terminals.

    Only for grids with very few edges; used to validate the oracle.
    """
    n, edges, terminals = _grid_graph(instance)
    if len(edges) > MAX_EXHAUSTIVE_EDGES:
        raise GuardExceeded(
            f"exhaustive check supports <= {MAX_EXHAUSTIVE_EDGES} edges"
        )
    if len(terminals) == 1:
        return 0
    best = None
    for r in range(len(edges) + 1):
        for subset in combinations(edges, r):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            touched = set()
            for a, b, _ in subset:
                touched.add(a)
                touched.add(b)
                parent[find(a)] = find(b)
            if any(t not in touched for t in terminals):
                continue
            root = find(terminals[0])
            if any(find(t) != root for t in terminals):
                continue
            total = sum(w for _, _, w in subset)
            if best is None or total < best:
                best = total
    return int(best)


def l1_mst(instance: Instance) -> int:
    """Minimum spanning tree of the terminals under the grid metric
    (Prim); used as a sanity bracket around the tree oracle."""
    pts = instance.points
    n = len(pts)
    if n <= 1:
        return 0
    in_tree = [False] * n
    cost = [l1(pts[0], p) for p in pts]
    in_tree[0] = True
    total = 0
    for _ in range(n - 1):
        best = min(
            (c, i) for i, c in enumerate(cost) if not in_tree[i]
        )
        total += best[0]
        v = best[1]
        in_tree[v] = True
        for i, p in enumerate(pts):
            if not in_tree[i]:
                d = l1(pts[v], p)
                if d < cost[i]:
                    cost[i] = d
    return total



def super_catalan(k: int) -> int:
    """Little Schroeder numbers 1, 1, 3, 11, 45, 197, ... by recurrence."""
    if k < 0:
        raise InputError("k must be >= 0")
    a, b = 1, 1  # S_0, S_1
    if k == 0:
        return a
    for n in range(2, k + 1):
        a, b = b, (3 * (2 * n - 1) * b - (n - 2) * a) // (n + 1)
    return b


def catalan(k: int) -> int:
    if k < 0:
        raise InputError("k must be >= 0")
    return comb(2 * k, k) // (k + 1)
