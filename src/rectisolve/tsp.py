"""Exact rectilinear traveling salesman over the Hanan grid.

The sweep builds a minimum-length tour subgraph: an edge multiset covering
every terminal, connected, with all degrees even, using at most two copies
of any segment. Feasibility is enforced where it becomes decidable:

* a horizontal step finalizes the departing vertex's degree, so its parity
  must land on even, or stay zero (the sweep opens a zero-degree terminal);
* a transition that would strand a component with no frontier vertex is
  rejected outright ("closure"): the rightmost column always contains a
  terminal, so a component cut off before the end can never rejoin the one
  that must survive;
* a non-terminal whose only incident edges would be the doubled segment
  just added is a useless U-turn and is pruned;
* the final layer must hold a single component, with no odd row and a
  label on every last-column terminal row (``tables.accept_mask``).

In trace mode the optimal subgraph is a ``solution.Subgraph`` of named grid
segments that holds the sweep's optimum as its length. It is checked on
grid indices by ``validate_tour_subgraph`` (``solution.check_subgraph`` plus
even degrees) and oriented into a closed walk by Hierholzer's algorithm.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import InternalInfeasibleError, NotEulerianError
from .geometry import Instance, Point, build_grid, l1
from .solution import Subgraph, check_subgraph, edge_ends, edges_from_moves
from .solution import grid_axes, vertex
from .states import EVEN, ODD, ZERO, join_rows, set_label
from . import tables as tables_mod
from .tables import SweepStats

Tour = tuple[Point, ...]


@dataclass
class TspSolution:
    length: int
    subgraph: Subgraph | None
    tour: Tour | None
    stats: SweepStats


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
    n = len(comp)
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
    # the edge count that makes the degree final and even; a zero-degree
    # vertex never doubles, which would be a useless U-turn (a zero-degree
    # terminal is opened by the sweep instead). An even vertex may also skip
    # and leave its component, unless that strands the component (closure).
    r = kind[1] - 1
    p, c = parity[:, r], comp[:, r]
    left = np.flatnonzero((p == EVEN) & ((comp == c[:, None]).sum(axis=1) > 1))
    after = parity[left]
    after[:, r] = ZERO
    return tables_mod.stack_candidates([
        (left, set_label(comp[left], r, 0), after, 0),
        (np.arange(n), comp, parity, _KEEP_MULT[p]),
    ])


TSP = tables_mod.Variant("tsp", _kernel, 2)


# --- solving --------------------------------------------------------------


def solve_tsp(instance: Instance, *, trace: bool = True) -> TspSolution:
    """Exact minimum rectilinear tour.

    With trace on, the result carries the optimal tour subgraph (validated
    against all its invariants) and an oriented closed walk; rolling mode
    (trace off) reports the length and sweep statistics only. Raises
    GuardExceeded when the grid or the state space is too large.
    """
    if len(instance.points) == 1:
        return TspSolution(
            0, Subgraph((), 0), (instance.points[0],),
            SweepStats(1, 1, 0, 0.0),
        )
    grid = build_grid(instance)
    res, moves = tables_mod.solve_grid(TSP, grid, trace)
    length, stats = res.cost, res.stats
    del res  # its trace, one array per event, is read: free it before the checks

    subgraph = tour = None
    if trace:
        subgraph = Subgraph(tuple(edges_from_moves(grid, moves)), length)
        validate_tour_subgraph(subgraph, instance)
        tour = orient_tour(subgraph, instance)
        walked = sum(l1(tour[k], tour[k + 1]) for k in range(len(tour) - 1))
        if walked != length:
            raise InternalInfeasibleError(
                f"oriented walk length {walked} != optimum {length}"
            )
    return TspSolution(length, subgraph, tour, stats)


# --- validation and orientation -------------------------------------------


def validate_tour_subgraph(subgraph: Subgraph, instance: Instance):
    """The shared solution checks with multiplicities up to 2, and an even
    degree at every vertex; raises on any violation."""
    degree = check_subgraph(subgraph, instance, 2, "tour subgraph")
    odd = [v for v, d in enumerate(degree) if d % 2]
    if odd:
        raise InternalInfeasibleError(f"odd degree at grid vertices {odd[:3]}")


def orient_tour(subgraph: Subgraph, instance: Instance) -> Tour:
    """Orient a valid tour subgraph into a closed walk using every edge
    instance exactly once, starting at the lowest-leftmost terminal."""
    if not subgraph.edges:
        if len(instance.points) == 1:
            return (instance.points[0],)
        raise NotEulerianError("empty subgraph cannot be oriented")
    xs, ys = grid_axes(instance)
    pairs = edge_ends(subgraph.edges, xs, ys, NotEulerianError)
    # each vertex once, by index into ``grid``, its grid index; edge copy k
    # joins ends[2k] and ends[2k + 1], and each vertex lists the copies at it
    index: dict[int, int] = {}
    ends: list[int] = []
    it = iter(pairs)
    for e, a, b in zip(subgraph.edges, it, it):
        a, b = index.setdefault(a, len(index)), index.setdefault(b, len(index))
        ends += (a, b) * e.mult
    del pairs, it  # the ints that ``index`` does not keep
    grid = list(index)
    adjacency: list[list[int]] = [[] for _ in grid]
    for k in range(len(ends) // 2):
        adjacency[ends[2 * k]].append(k)
        adjacency[ends[2 * k + 1]].append(k)
    # copies in grid-index, so (y, x), order of their other end, ends[2k] +
    # ends[2k + 1] - v, then by id, as the lists are in id order
    for v, ids in enumerate(adjacency):
        if len(ids) % 2:
            raise NotEulerianError(f"odd degree at grid vertex {grid[v]}")
        ids.sort(key=lambda k: grid[ends[2 * k] + ends[2 * k + 1] - v])
    start = min(instance.points, key=lambda p: (p.y, p.x))
    first = index.get(vertex(xs, 1, bisect_left(xs, start.x) + 1))  # the lowest row
    if first is None:
        raise NotEulerianError(f"terminal {start} not on the subgraph")

    used = bytearray(len(ends) // 2)
    position = [0] * len(grid)
    stack = [first]
    path: list[int] = []
    while stack:
        v = stack[-1]
        ids = adjacency[v]
        k = position[v]
        while k < len(ids) and used[ids[k]]:
            k += 1
        position[v] = k
        if k == len(ids):
            path.append(stack.pop())
        else:
            edge = ids[k]
            used[edge] = 1
            # the other end's own index object, so the stack makes no ints
            a = ends[2 * edge]
            stack.append(ends[2 * edge + 1] if a == v else a)
    if len(path) != len(used) + 1:
        raise NotEulerianError("subgraph is disconnected")
    del index, ends, adjacency, position  # freed before the walk's points are made
    w = len(xs)
    return tuple(Point(xs[(g := grid[v]) % w], ys[g // w]) for v in reversed(path))
