"""Replay check of solver output, independent of the package's own validators.

A solution text is "length L" followed by edge rows "V i j m" / "H i j m",
where i and j are 1-based ranks among the instance's distinct y and x
coordinates. The check rebuilds the edge multiset from the instance points
alone and verifies:

* tour: multiplicities 1 or 2, every vertex of even degree, one connected
  component that touches every point, and edge lengths summing to L; the
  oriented walk is closed, starts at the lowest-leftmost point and uses
  exactly the edge multiset;
* tree: multiplicity 1, no cycle, one connected component that touches
  every point, and edge lengths summing to L;
* both: L equals the optimum the solver returned, and L lies inside the
  rectilinear-MST bracket (MST <= tour <= 2 MST; 2/3 MST <= tree <= MST,
  Hwang 1976), which catches a wrong optimum on seeds without golden values.
"""

from __future__ import annotations

from collections import Counter

Point = tuple[int, int]
Edge = tuple[Point, Point]


class ReplayError(ValueError):
    pass


def rectilinear_mst(points: list[Point]) -> int:
    """Prim's algorithm on the complete L1 graph, O(n^2)."""
    rest = list(points[1:])
    x0, y0 = points[0]
    best = [abs(x - x0) + abs(y - y0) for x, y in rest]
    total = 0
    while rest:
        k = min(range(len(rest)), key=best.__getitem__)
        total += best[k]
        px, py = rest[k]
        rest[k], best[k] = rest[-1], best[-1]
        rest.pop()
        best.pop()
        for i, (x, y) in enumerate(rest):
            d = abs(x - px) + abs(y - py)
            if d < best[i]:
                best[i] = d
    return total


def parse_edges(text: str, points: list[Point]) -> tuple[int, Counter]:
    """Solution text to (stated length, multiset of undirected unit edges)."""
    xs = sorted({x for x, _ in points})
    ys = sorted({y for _, y in points})
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "length" or not head[1].isdigit():
        raise ReplayError("first line is not 'length L'")
    length = int(head[1])
    edges: Counter = Counter()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 4 or not all(t.isdigit() for t in parts[1:]):
            raise ReplayError(f"cannot parse edge line {line!r}")
        kind, (i, j, m) = parts[0], map(int, parts[1:])
        if kind == "V" and 1 <= i < len(ys) and 1 <= j <= len(xs):
            edge = ((xs[j - 1], ys[i - 1]), (xs[j - 1], ys[i]))
        elif kind == "H" and 1 <= i <= len(ys) and 1 <= j < len(xs):
            edge = ((xs[j - 1], ys[i - 1]), (xs[j], ys[i - 1]))
        else:
            raise ReplayError(f"edge {line!r} is not on the Hanan grid")
        if edge in edges:
            raise ReplayError(f"edge {line!r} listed twice")
        edges[edge] = m
    return length, edges


def format_edges(length: int, edges: Counter, points: list[Point]) -> str:
    """Inverse of parse_edges, for building corrupted test solutions."""
    xrank = {x: j for j, x in enumerate(sorted({x for x, _ in points}), start=1)}
    yrank = {y: i for i, y in enumerate(sorted({y for _, y in points}), start=1)}
    rows = [f"length {length}"]
    for ((x1, y1), (x2, y2)), m in edges.items():
        kind = "V" if x1 == x2 else "H"
        rows.append(f"{kind} {yrank[y1]} {xrank[x1]} {m}")
    return "\n".join(rows) + "\n"


def edge_length(edge: Edge) -> int:
    (x1, y1), (x2, y2) = edge
    return abs(x1 - x2) + abs(y1 - y2)


def _find(parent: dict, v):
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _check_spanning(points: list[Point], edges: Counter, tree: bool):
    parent: dict = {}
    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            if tree:
                raise ReplayError(f"cycle closed by edge {a}-{b}")
        else:
            parent[rb] = ra
    missing = [p for p in points if p not in parent]
    if missing:
        raise ReplayError(f"point {missing[0]} is not covered")
    if len({_find(parent, v) for v in parent}) != 1:
        raise ReplayError("solution is not connected")


def _check_bracket(points: list[Point], optimum: int, problem: str):
    mst = rectilinear_mst(points)
    if problem == "tsp":
        ok = mst <= optimum <= 2 * mst
    else:
        ok = 2 * mst <= 3 * optimum and optimum <= mst
    if not ok:
        raise ReplayError(f"{problem} optimum {optimum} outside the MST bracket (MST {mst})")


def check(
    problem: str,
    points: list[Point],
    optimum: int,
    text: str,
    walk: list[Point] | None = None,
    edges_expected: bool = True,
):
    """Raise ReplayError unless the output is a valid solution of length
    ``optimum``. With ``edges_expected`` false the text must be length only."""
    length, edges = parse_edges(text, points)
    if length != optimum:
        raise ReplayError(f"text states length {length}, solver returned {optimum}")
    if len(points) > 1:
        _check_bracket(points, optimum, problem)
    if not edges_expected:
        if edges:
            raise ReplayError("length-only query returned edges")
        return
    if len(points) == 1:
        if edges:
            raise ReplayError("single point needs no edges")
        return
    total = sum(m * edge_length(e) for e, m in edges.items())
    if total != optimum:
        raise ReplayError(f"edge lengths sum to {total}, not {optimum}")
    if problem == "steiner":
        if any(m != 1 for m in edges.values()):
            raise ReplayError("tree edge with multiplicity other than 1")
        _check_spanning(points, edges, tree=True)
        return
    if any(m not in (1, 2) for m in edges.values()):
        raise ReplayError("tour edge multiplicity outside 1..2")
    degree: Counter = Counter()
    for (a, b), m in edges.items():
        degree[a] += m
        degree[b] += m
    odd = [v for v, d in degree.items() if d % 2]
    if odd:
        raise ReplayError(f"odd degree at {odd[0]}")
    _check_spanning(points, edges, tree=False)
    if walk is not None:
        _check_walk(points, edges, walk)


def _check_walk(points: list[Point], edges: Counter, walk: list[Point]):
    start = min(points, key=lambda p: (p[1], p[0]))
    if not walk or walk[0] != start or walk[-1] != start:
        raise ReplayError("walk is not closed at the lowest-leftmost point")
    steps: Counter = Counter()
    for a, b in zip(walk, walk[1:]):
        steps[(a, b) if (a[0], a[1]) <= (b[0], b[1]) else (b, a)] += 1
    if steps != edges:
        raise ReplayError("walk does not use exactly the solution's edges")
