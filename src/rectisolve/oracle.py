"""Independent brute-force references for validating both solvers.

These deliberately share nothing with the sweep: the tour oracle scores
cyclic permutations of the distance matrix, and the tree oracle runs the
Dreyfus-Wagner dynamic program over terminal subsets on the grid graph
(the optimal rectilinear Steiner tree lies on the Hanan grid, so the
finite oracle is exact).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import GuardExceeded
from .geometry import Instance, build_grid, l1

MAX_BRUTE_POINTS = 10
MAX_ORACLE_TERMINALS = 10
MAX_ORACLE_GRID = 400

_INF = np.int64(2**31)


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
