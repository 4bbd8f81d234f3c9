"""The solution layer shared by both solvers: the ``SolutionEdge`` and
``Subgraph`` records, the naming of sweep moves, the text serialization,
and ``check_subgraph``, the invariants every tour subgraph and every
Steiner tree must hold.

An edge is named in the original (untransposed) orientation: "V i j" spans
rows i..i+1 of column j, "H i j" spans columns j..j+1 of row i, both 1-based
over the instance's sorted distinct coordinates (``grid_axes``). The checks
run on grid indices (``vertex``), whose order is (y, x) order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError, InternalInfeasibleError
from .geometry import EdgeEvent, HananGrid, Instance


class SolutionEdge(NamedTuple):
    """One line of the solution text: ``mult`` copies of a segment."""

    kind: str  # "V" or "H" in original orientation
    row: int
    col: int
    mult: int


@dataclass(frozen=True)
class Subgraph:
    """A solver's edge multiset; ``total_length`` is the sweep's optimum,
    which ``check_subgraph`` holds the edges to."""

    edges: tuple[SolutionEdge, ...]
    total_length: int


def grid_axes(instance: Instance) -> tuple[list[int], list[int]]:
    """The instance's sorted distinct xs and ys: the columns and rows that
    edges count from 1."""
    return sorted({p.x for p in instance.points}), sorted({p.y for p in instance.points})


def vertex(xs: list[int], row: int, col: int) -> int:
    """The grid index of the vertex at 1-based (row, col): rows of len(xs)
    vertices, from the lowest."""
    return (row - 1) * len(xs) + col - 1


def edge_ends(edges, xs: list[int], ys: list[int], error: type[Exception]) -> list[int]:
    """Both ends of every edge as grid indices, flat: edge k joins
    ``ends[2k]`` (its lower or left end) and ``ends[2k + 1]``. Raises
    ``error`` at an edge with an end off the grid."""
    w, h = len(xs), len(ys)
    ends = []
    for kind, row, col, _ in edges:
        if kind == "V" and 1 <= row < h and 1 <= col <= w:
            step = w
        elif kind == "H" and 1 <= row <= h and 1 <= col < w:
            step = 1
        else:
            raise error(f"edge {kind} {row} {col} is not on the instance grid")
        a = vertex(xs, row, col)
        ends += (a, a + step)
    return ends


def locate(edges, instance: Instance, error: type[Exception]) -> tuple:
    """The instance's axes and the ends of every edge on them: ``grid_axes``
    and ``edge_ends``, which raises ``error``."""
    xs, ys = grid_axes(instance)
    return xs, ys, edge_ends(edges, xs, ys, error)


def edges_from_moves(
    grid: HananGrid, moves: list[tuple[EdgeEvent, int]]
) -> list[SolutionEdge]:
    """Name normalized sweep moves in the original orientation, sorted. On
    a transposed grid a segment's original name swaps V and H, and row and
    column."""
    if grid.transposed:
        edges = [
            SolutionEdge("H" if e.kind == "V" else "V", e.col, e.row, m)
            for e, m in moves
        ]
    else:
        edges = [SolutionEdge(e.kind, e.row, e.col, m) for e, m in moves]
    edges.sort()  # the sweep moves through each segment once: no ties
    return edges


def format_solution(edges: list[SolutionEdge], length: int) -> str:
    lines = [f"length {length}"]
    lines.extend(f"{e.kind} {e.row} {e.col} {e.mult}" for e in edges)
    return "\n".join(lines) + "\n"


def _field(token: str, lineno: int, line: str) -> int:
    try:
        return int(token)
    except ValueError:  # not an integer, or one of more than 4300 digits
        raise InputError(f"solution line {lineno}: cannot parse {line!r}") from None


def parse_solution(text: str) -> tuple[int, list[SolutionEdge]]:
    """Parse the edge-list text; returns (length, edges). Whether an edge
    lies on an instance's grid is for the reader to check (``edge_ends``)."""
    length = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "length" and len(parts) == 2:
            if length is not None:
                raise InputError(f"solution line {lineno}: second length line {line!r}")
            length = _field(parts[1], lineno, line)
            if length < 0:
                raise InputError(f"solution line {lineno}: negative length {line!r}")
        elif parts[0] in ("V", "H") and len(parts) == 4:
            i, j, mult = (_field(t, lineno, line) for t in parts[1:])
            if mult not in (1, 2):
                raise InputError(f"solution line {lineno}: multiplicity {mult} not 1 or 2")
            edges.append(SolutionEdge(parts[0], i, j, mult))
        else:
            raise InputError(f"solution line {lineno}: cannot parse {line!r}")
    if length is None:
        raise InputError("solution is missing a 'length' line")
    return length, edges


def check_subgraph(
    sub: Subgraph, instance: Instance, max_mult: int, what: str, located=None
):
    """The invariants of both problems' solutions; raises on any violation
    and returns the degree of every grid vertex, by grid index. ``located``
    is the edges' ``locate``, if the caller has it.

    Every edge is on the instance's grid with a multiplicity in
    ``1..max_mult``, every terminal is an endpoint, the edges form one
    component, and their lengths sum to ``total_length``. A one-point
    instance's empty subgraph holds them all; on any other instance an
    empty subgraph misses a terminal.
    """
    xs, ys, ends = located or locate(sub.edges, instance, InternalInfeasibleError)
    degree = [0] * (len(xs) * len(ys))
    if not sub.edges and len(instance.points) == 1:
        return degree
    pairs = iter(ends)
    parent = [-1] * len(degree)  # union-find forest; -1 at a root

    def find(v: int) -> int:
        root = v
        while parent[root] >= 0:
            root = parent[root]
        while v != root:
            parent[v], v = root, parent[v]
        return root

    merged = length = 0
    for (kind, row, col, m), a, b in zip(sub.edges, pairs, pairs):
        if not 1 <= m <= max_mult:
            raise InternalInfeasibleError(f"{what} has multiplicity {m}")
        degree[a] += m
        degree[b] += m
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            merged += 1
        length += m * (ys[row] - ys[row - 1] if kind == "V" else xs[col] - xs[col - 1])
    for t in instance.points:
        if not degree[vertex(xs, bisect_left(ys, t.y) + 1, bisect_left(xs, t.x) + 1)]:
            raise InternalInfeasibleError(f"{what} misses terminal {t}")
    spanned = len(degree) - degree.count(0)
    if merged != spanned - 1:
        raise InternalInfeasibleError(f"{what} has {spanned - merged} components")
    if length != sub.total_length:
        raise InternalInfeasibleError(
            f"{what} edges sum to {length}, not the optimum {sub.total_length}"
        )
    return degree
