"""Exact rectilinear Steiner tree over the Hanan grid.

Same sweep as the tour solver with a lighter state (component labels only,
since a degree need only be zero or positive) and two transitions per
segment: skip or take. Filtering:

* connecting two rows of the same component would close a cycle, which a
  minimum tree never contains;
* a horizontal step that gives the departing vertex its only edge creates
  a pendant; pruned, except at a terminal (a leaf), which the sweep opens;
* component closure is rejected exactly as in the tour solver.

Final layer (``tables.accept_mask``): every last-column terminal labeled,
all labels equal.

In trace mode the tree is a ``solution.Subgraph`` of named grid segments
that holds the sweep's optimum as its length, checked on grid indices by
``validate_steiner_tree`` (``solution.check_subgraph`` with single edges,
plus no cycle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInfeasibleError
from .geometry import Instance, build_grid
from .solution import Subgraph, check_subgraph, edges_from_moves
from .states import join_rows, set_label
from . import tables as tables_mod
from .tables import SweepStats


@dataclass
class SteinerSolution:
    length: int
    tree: Subgraph | None
    stats: SweepStats


# --- transitions ----------------------------------------------------------


def _kernel(space: tables_mod.StateSpace, kind: tables_mod.Kind):
    """Every (source, successor, multiplicity) candidate of one event kind,
    for the whole state space at once, as ``tables.Kernel`` arrays with
    canonical labels."""
    comp = space.comp_mat
    n = len(comp)
    if kind[0] == "V":
        # skip, or take unless the two rows already share a component (cycle)
        lo = kind[1] - 1
        c_lo, c_hi = comp[:, lo], comp[:, lo + 1]
        taken = np.flatnonzero((c_lo == 0) | (c_lo != c_hi))
        return tables_mod.stack_candidates([
            (np.arange(n), comp, None, 0),
            (taken, join_rows(comp[taken], lo), None, 1),
        ])

    # Horizontal: an empty row skips (taking its first and last edge would
    # make a pendant; an empty terminal row is opened by the sweep instead).
    # A labeled row takes the segment, or skips and leaves its component
    # unless that strands the component (closure).
    r = kind[1] - 1
    c = comp[:, r]
    left = np.flatnonzero((c > 0) & ((comp == c[:, None]).sum(axis=1) > 1))
    return tables_mod.stack_candidates([
        (left, set_label(comp[left], r, 0), None, 0),
        (np.arange(n), comp, None, (c > 0).astype(np.int8)),
    ])


STEINER = tables_mod.Variant("steiner", _kernel, 1)


# --- solving --------------------------------------------------------------


def solve_steiner(instance: Instance, *, trace: bool = True) -> SteinerSolution:
    """Exact minimum rectilinear Steiner tree.

    Same interface contract as solve_tsp: trace mode returns the validated
    edge set, rolling mode the length only.
    """
    if len(instance.points) == 1:
        return SteinerSolution(0, Subgraph((), 0), SweepStats(1, 1, 0, 0.0))
    grid = build_grid(instance)
    res, moves = tables_mod.solve_grid(STEINER, grid, trace)
    length, stats = res.cost, res.stats
    del res  # its trace, one array per event, is read: free it before the checks

    tree = None
    if trace:
        tree = Subgraph(tuple(edges_from_moves(grid, moves)), length)
        validate_steiner_tree(tree, instance)
    return SteinerSolution(length, tree, stats)


def validate_steiner_tree(tree: Subgraph, instance: Instance):
    """The shared solution checks with single edges only, and no cycle;
    raises on any violation."""
    degree = check_subgraph(tree, instance, 1, "steiner tree")
    # connected, so a tree exactly when it spans one vertex more than its edges
    if tree.edges and len(tree.edges) != len(degree) - degree.count(0) - 1:
        raise InternalInfeasibleError("steiner tree has a cycle")
