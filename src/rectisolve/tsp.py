"""Exact rectilinear traveling salesman over the Hanan grid.

The sweep builds a minimum-length tour subgraph: an edge multiset covering
every terminal, connected, with all degrees even, using at most two copies
of any segment. Feasibility is enforced where it becomes decidable:

* a horizontal step finalizes the departing vertex's degree, so its parity
  must land on even (or stay zero for a non-terminal);
* a transition that would strand a component with no frontier vertex is
  rejected outright ("closure"): the rightmost column always contains a
  terminal, so a component cut off before the end can never rejoin the one
  that must survive;
* a non-terminal whose only incident edges would be the doubled segment
  just added is a useless U-turn and is pruned;
* the final layer must hold a single component, with even parity on every
  row and positive (hence even) degree on last-column terminals.

The optimal subgraph is then oriented into a closed walk by Hierholzer's
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInfeasibleError, NotEulerianError
from .geometry import (
    DEFAULT_MAX_GRID_VERTICES,
    HananGrid,
    Instance,
    Point,
    build_grid,
    l1,
)
from .solution import (
    SolutionEdge,
    check_connected_covering,
    edges_from_moves,
    total_edge_length,
)
from .states import EVEN, ODD, ZERO, join_rows, set_label
from . import tables as tables_mod
from .tables import SweepStats

Tour = tuple[Point, ...]


@dataclass(frozen=True)
class TourSubgraph:
    edges: tuple[SolutionEdge, ...]
    total_length: int


@dataclass
class TspSolution:
    length: int
    subgraph: TourSubgraph | None
    tour: Tour | None
    stats: SweepStats
    grid: HananGrid | None


# --- transitions ----------------------------------------------------------

# _PARITY_AFTER[m][p]: parity of a vertex of parity p (ZERO, ODD, EVEN)
# after m more edges
_PARITY_AFTER = np.array(
    [
        [ZERO, ODD, EVEN],
        [ODD, EVEN, ODD],
        [EVEN, ODD, EVEN],
    ],
    dtype=np.int8,
)
# _KEEP_MULT[p]: the edge count that leaves a degree of parity p final and
# even: 0 if zero, 1 if odd, 2 if even
_KEEP_MULT = np.array([0, 1, 2], dtype=np.int8)


def _kernel(space: tables_mod.StateSpace, kind: tables_mod.Kind):
    """Every (source, successor, multiplicity) candidate of one event kind,
    for the whole state space at once, as ``tables.Kernel`` arrays with
    canonical labels."""
    parity, comp = space.parity_mat, space.comp_mat
    n, h = comp.shape
    if kind[0] == "V":
        # segment between rows i and i+1 (1-based): skip, single, or double
        lo = kind[1] - 1
        everyone = np.arange(n)
        joined = join_rows(comp, lo)
        blocks = [(everyone, comp, parity, 0)]
        for m in (1, 2):
            after = parity.copy()
            after[:, lo : lo + 2] = _PARITY_AFTER[m][parity[:, lo : lo + 2]]
            blocks.append((everyone, joined, after, m))
        return tables_mod.stack_candidates(blocks)

    # Horizontal: the segment leaves row i's frontier vertex rightward, and
    # that vertex's degree is final after this step. The state is kept with
    # the edge count that makes the degree final and even, except at a
    # zero-degree terminal: that must double the edge, which opens a fresh
    # single-vertex component (degree-2 self-loop shape). A zero-degree
    # non-terminal never doubles, which would be a useless U-turn. An even
    # vertex may also skip and leave its component, unless that strands the
    # component (closure).
    r = kind[1] - 1
    p, c = parity[:, r], comp[:, r]
    blocks = []
    kept = np.arange(n)
    if kind[2]:
        opened = np.flatnonzero(p == ZERO)
        kept = np.flatnonzero(p != ZERO)
        after = parity[opened]
        after[:, r] = EVEN
        blocks.append((opened, set_label(comp[opened], r, h + 1), after, 2))
    left = np.flatnonzero((p == EVEN) & ((comp == c[:, None]).sum(axis=1) > 1))
    after = parity[left]
    after[:, r] = ZERO
    blocks.append((left, set_label(comp[left], r, 0), after, 0))
    blocks.append((kept, comp[kept], parity[kept], _KEEP_MULT[p[kept]]))
    return tables_mod.stack_candidates(blocks)


def _accept_mask(space: tables_mod.StateSpace, term_rows) -> np.ndarray:
    pm = space.parity_mat
    ok = (pm != ODD).all(axis=1)
    tr = np.asarray(term_rows, dtype=bool)
    if tr.any():
        ok &= (pm[:, tr] == EVEN).all(axis=1)
    ok &= space.comp_mat.max(axis=1) == 1
    return ok


# --- solving --------------------------------------------------------------


def solve_tsp(
    instance: Instance,
    *,
    trace: bool = True,
    max_grid_vertices: int = DEFAULT_MAX_GRID_VERTICES,
) -> TspSolution:
    """Exact minimum rectilinear tour.

    With trace on, the result carries the optimal tour subgraph (validated
    against all its invariants) and an oriented closed walk; rolling mode
    (trace off) reports the length and sweep statistics only. Raises
    GuardExceeded when the grid or the state space is too large.
    """
    if len(instance.points) == 1:
        return TspSolution(
            0, TourSubgraph((), 0), (instance.points[0],),
            SweepStats(1, 1, 0, 0.0), None,
        )
    grid = build_grid(instance, max_grid_vertices)
    tableset = tables_mod.get_tableset("tsp", grid.h, _kernel)
    mask = _accept_mask(tableset.space, grid.terminal_rows_last_col())
    res = tables_mod.run_vector_sweep(grid, tableset, mask, mult_max=2, trace=trace)
    length, stats = res.cost, res.stats
    moves = tables_mod.reconstruct_vector(res, tableset) if trace else None

    subgraph = tour = None
    if trace:
        edges = edges_from_moves(grid, moves)
        subgraph = TourSubgraph(tuple(edges), total_edge_length(edges))
        if subgraph.total_length != length:
            raise InternalInfeasibleError(
                f"reconstruction length {subgraph.total_length} != optimum {length}"
            )
        validate_tour_subgraph(subgraph, instance)
        tour = orient_tour(subgraph, instance)
        walked = sum(l1(tour[k], tour[k + 1]) for k in range(len(tour) - 1))
        if walked != length:
            raise InternalInfeasibleError(
                f"oriented walk length {walked} != optimum {length}"
            )
    return TspSolution(length, subgraph, tour, stats, grid)


# --- validation and orientation -------------------------------------------


def validate_tour_subgraph(subgraph: TourSubgraph, instance: Instance):
    """Assert the tour-subgraph invariants; raises on any violation."""
    edges = subgraph.edges
    if not edges:
        if len(instance.points) == 1:
            return
        raise InternalInfeasibleError("empty subgraph for multi-point instance")
    degree: dict[Point, int] = {}
    for e in edges:
        if e.mult not in (1, 2):
            raise InternalInfeasibleError(f"multiplicity {e.mult} out of range")
        degree[e.p1] = degree.get(e.p1, 0) + e.mult
        degree[e.p2] = degree.get(e.p2, 0) + e.mult
    odd = [p for p, d in degree.items() if d % 2]
    if odd:
        raise InternalInfeasibleError(f"odd degree at {odd[:3]}")
    check_connected_covering(list(edges), instance.points, "tour subgraph")
    if total_edge_length(list(edges)) != subgraph.total_length:
        raise InternalInfeasibleError("edge lengths do not sum to total_length")


def orient_tour(subgraph: TourSubgraph, instance: Instance) -> Tour:
    """Orient a valid tour subgraph into a closed walk using every edge
    instance exactly once, starting at the lowest-leftmost terminal."""
    if not subgraph.edges:
        if len(instance.points) == 1:
            return (instance.points[0],)
        raise NotEulerianError("empty subgraph cannot be oriented")
    adjacency: dict[Point, list[tuple[Point, int]]] = {}
    eid = 0
    for e in subgraph.edges:
        for _ in range(e.mult):
            adjacency.setdefault(e.p1, []).append((e.p2, eid))
            adjacency.setdefault(e.p2, []).append((e.p1, eid))
            eid += 1
    for p, nbrs in adjacency.items():
        if len(nbrs) % 2:
            raise NotEulerianError(f"odd degree at {p}")
        nbrs.sort(key=lambda t: (t[0].y, t[0].x, t[1]))
    start = min(instance.points, key=lambda p: (p.y, p.x))
    if start not in adjacency:
        raise NotEulerianError(f"terminal {start} not on the subgraph")

    used = [False] * eid
    position = {p: 0 for p in adjacency}
    stack = [start]
    path: list[Point] = []
    while stack:
        v = stack[-1]
        nbrs = adjacency[v]
        k = position[v]
        while k < len(nbrs) and used[nbrs[k][1]]:
            k += 1
        position[v] = k
        if k == len(nbrs):
            path.append(stack.pop())
        else:
            u, edge_id = nbrs[k]
            used[edge_id] = True
            stack.append(u)
    if len(path) != eid + 1:
        raise NotEulerianError("subgraph is disconnected")
    path.reverse()
    return tuple(path)
