"""Reference computations that only the tests use.

``steiner_exhaustive`` validates the tree oracle on tiny grids, and
``l1_mst`` brackets it.
"""

from __future__ import annotations

from itertools import combinations

from rectisolve.errors import GuardExceeded
from rectisolve.geometry import Instance, l1
from rectisolve.oracle import _grid_graph

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

