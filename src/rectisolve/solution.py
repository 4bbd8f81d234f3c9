"""The solution layer shared by both solvers: the ``Subgraph`` record,
the mapping of sweep moves back to original coordinates, the text
serialization, and ``check_subgraph``, the invariants every tour subgraph
and every Steiner tree must hold.

Edges are expressed in the original (untransposed) orientation: "V i j"
spans rows i..i+1 of column j, "H i j" spans columns j..j+1 of row i, both
1-based over the sorted distinct original coordinates.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError, InternalInfeasibleError
from .geometry import EdgeEvent, HananGrid, Instance, Point, l1


class SolutionEdge(NamedTuple):
    kind: str  # "V" or "H" in original orientation
    row: int
    col: int
    p1: Point
    p2: Point
    mult: int


@dataclass(frozen=True)
class Subgraph:
    """A solver's edge multiset; ``total_length`` is the sweep's optimum,
    which ``check_subgraph`` holds the edges to."""

    edges: tuple[SolutionEdge, ...]
    total_length: int


def edges_from_moves(
    grid: HananGrid, moves: list[tuple[EdgeEvent, int]]
) -> list[SolutionEdge]:
    """Convert normalized sweep moves to original-orientation edges. On a
    transposed grid a segment's original name swaps V and H, and row and
    column."""
    edges = []
    for event, mult in moves:
        kind, row, col = event.kind, event.row, event.col
        p1 = grid.point_at(row, col)
        p2 = grid.point_at(row + 1, col) if kind == "V" else grid.point_at(row, col + 1)
        if grid.transposed:
            kind, row, col = "H" if kind == "V" else "V", col, row
        edges.append(SolutionEdge(kind, row, col, p1, p2, mult))
    edges.sort(key=lambda e: (e.kind, e.row, e.col))
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


def parse_solution(text: str) -> tuple[int, list[tuple[str, int, int, int]]]:
    """Parse the edge-list text; returns (length, raw (kind,i,j,mult) rows)."""
    length = None
    raw = []
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
            raw.append((parts[0], i, j, mult))
        else:
            raise InputError(f"solution line {lineno}: cannot parse {line!r}")
    if length is None:
        raise InputError("solution is missing a 'length' line")
    return length, raw


def resolve_edges(
    instance: Instance, raw: list[tuple[str, int, int, int]]
) -> list[SolutionEdge]:
    """Attach coordinates to raw edge rows, validating grid membership."""
    xs = sorted({p.x for p in instance.points})
    ys = sorted({p.y for p in instance.points})
    edges = []
    for kind, i, j, mult in raw:
        if kind == "V":
            if not (1 <= i < len(ys) and 1 <= j <= len(xs)):
                raise InputError(f"edge V {i} {j} is not on the instance grid")
            p1 = Point(xs[j - 1], ys[i - 1])
            p2 = Point(xs[j - 1], ys[i])
        else:
            if not (1 <= i <= len(ys) and 1 <= j < len(xs)):
                raise InputError(f"edge H {i} {j} is not on the instance grid")
            p1 = Point(xs[j - 1], ys[i - 1])
            p2 = Point(xs[j], ys[i - 1])
        if mult not in (1, 2):
            raise InputError(f"edge multiplicity must be 1 or 2, got {mult}")
        edges.append(SolutionEdge(kind, i, j, p1, p2, mult))
    return edges


def total_edge_length(edges: Iterable[SolutionEdge]) -> int:
    return sum(e.mult * l1(e.p1, e.p2) for e in edges)


class UnionFind:
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


def check_subgraph(sub: Subgraph, instance: Instance, max_mult: int, what: str):
    """The invariants of both problems' solutions; raises on any violation.

    Every multiplicity is in ``1..max_mult``, every terminal is an endpoint,
    the edges form one component, and their lengths sum to
    ``total_length``. A one-point instance's empty subgraph holds them all;
    on any other instance an empty subgraph misses a terminal.
    """
    if not sub.edges and len(instance.points) == 1:
        return
    uf = UnionFind()
    touched: set[Point] = set()
    for e in sub.edges:
        if not 1 <= e.mult <= max_mult:
            raise InternalInfeasibleError(f"{what} has multiplicity {e.mult}")
        touched.add(e.p1)
        touched.add(e.p2)
        uf.union(e.p1, e.p2)
    for t in instance.points:
        if t not in touched:
            raise InternalInfeasibleError(f"{what} misses terminal {t}")
    root = uf.find(instance.points[0])
    for p in touched:
        if uf.find(p) != root:
            raise InternalInfeasibleError(f"{what} is disconnected at {p}")
    length = total_edge_length(sub.edges)
    if length != sub.total_length:
        raise InternalInfeasibleError(
            f"{what} edges sum to {length}, not the optimum {sub.total_length}"
        )
