"""Reference implementation of the layered sweep, for the tests only.

A pure-Python sweep over tuple states (``reference_states.py``) with one
hash table per layer, keyed by ``encode_state``, and transitions computed
state by state by its own per-state kernels. It shares neither the
package's state format, its whole-space kernels nor its table machinery,
and the tests require it to give the same optima, edges and tours as
``solve_tsp`` and ``solve_steiner``. Too slow for anything but small
instances. ``reference_table`` builds a kind's transition rows from the
same per-state kernels, for comparison with the package's tables.

Each scheduled segment is one layer transition: every state of the current
layer is expanded through a problem-specific transition function into the
next layer's table, keeping the minimum cost per state. Equal costs are
broken toward the smallest (predecessor key, multiplicity) pair, which
makes the stored predecessor chain independent of expansion order.

Trace mode keeps every layer for path reconstruction; rolling mode keeps
two layers and reports the cost only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from rectisolve.errors import InternalInfeasibleError
from rectisolve.geometry import EdgeEvent, HananGrid, Instance, build_grid, edge_schedule
from rectisolve.solution import Subgraph, edges_from_moves
from rectisolve.states import EVEN, ODD, ZERO
from rectisolve.steiner import SteinerSolution, validate_steiner_tree
from rectisolve.tables import Kind, StateSpace, SweepStats
from rectisolve.tsp import TspSolution, orient_tour, validate_tour_subgraph

from reference_states import (
    FrontierState,
    SteinerFrontierState,
    TspFrontierState,
    canonicalize_steiner,
    canonicalize_tsp,
    encode_state,
    initial_steiner_state,
    initial_tsp_state,
    parity_add,
    relabel_components,
    render_state,
    states_from_matrices,
)

TransitionFn = Callable[[FrontierState, EdgeEvent, HananGrid], list]
AcceptFn = Callable[[FrontierState], bool]


class Entry(NamedTuple):
    cost: int
    pred: int | None  # predecessor state key in the previous layer
    mult: int
    state: FrontierState


LayerTable = dict[int, Entry]


@dataclass
class SweepTrace:
    layers: list[LayerTable]
    events: list[EdgeEvent]


@dataclass
class SweepResult:
    cost: int
    final_key: int
    final_state: FrontierState
    trace: SweepTrace | None
    stats: SweepStats


def run_sweep(
    grid: HananGrid,
    initial: FrontierState,
    transition_fn: TransitionFn,
    accept_fn: AcceptFn | None = None,
    trace: bool = True,
    on_state: Callable[[FrontierState], None] | None = None,
) -> SweepResult:
    """Run the layered sweep; ``on_state`` is a debug hook called on every
    emitted state (used to assert structural invariants)."""
    t0 = time.perf_counter()
    events = edge_schedule(grid)
    layer: LayerTable = {encode_state(initial): Entry(0, None, 0, initial)}
    layers = [layer]
    max_states = 1
    expansions = 0
    for event in events:
        nxt: LayerTable = {}
        for key, entry in layer.items():
            results = transition_fn(entry.state, event, grid)
            expansions += len(results)
            for new_state, cost, mult in results:
                if on_state is not None:
                    on_state(new_state)
                new_key = encode_state(new_state)
                new_cost = entry.cost + cost
                cur = nxt.get(new_key)
                if (
                    cur is None
                    or new_cost < cur.cost
                    or (new_cost == cur.cost and (key, mult) < (cur.pred, cur.mult))
                ):
                    nxt[new_key] = Entry(new_cost, key, mult, new_state)
        if not nxt:
            raise InternalInfeasibleError(f"layer emptied at event {event}")
        layer = nxt
        if trace:
            layers.append(layer)
        max_states = max(max_states, len(layer))

    best_key, best_entry = None, None
    for key in sorted(layer):
        entry = layer[key]
        if accept_fn is not None and not accept_fn(entry.state):
            continue
        if best_entry is None or entry.cost < best_entry.cost:
            best_key, best_entry = key, entry
    if best_entry is None:
        raise InternalInfeasibleError("no accepted state on the final layer")
    stats = SweepStats(
        layer_count=len(events) + 1,
        max_layer_states=max_states,
        total_expansions=expansions,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return SweepResult(
        cost=best_entry.cost,
        final_key=best_key,
        final_state=best_entry.state,
        trace=SweepTrace(layers, events) if trace else None,
        stats=stats,
    )


def reconstruct(trace: SweepTrace, final_key: int) -> list[tuple[EdgeEvent, int]]:
    """Walk predecessor pointers back to the initial layer.

    Returns the (event, multiplicity) choices with multiplicity > 0, in
    schedule order; replaying them forward reproduces the final state and
    its cost.
    """
    moves: list[tuple[EdgeEvent, int]] = []
    key = final_key
    for l in range(len(trace.layers) - 1, 0, -1):
        entry = trace.layers[l].get(key)
        if entry is None or entry.pred is None:
            raise InternalInfeasibleError(f"missing predecessor at layer {l}")
        if entry.mult:
            moves.append((trace.events[l - 1], entry.mult))
        key = entry.pred
    moves.reverse()
    return moves


def replay(
    grid: HananGrid,
    initial: FrontierState,
    transition_fn: TransitionFn,
    moves: list[tuple[EdgeEvent, int]],
) -> tuple[FrontierState, int]:
    """Apply a reconstructed move list forward; returns (state, cost)."""
    chosen = {(e.kind, e.row, e.col): m for e, m in moves}
    state = initial
    total = 0
    for event in edge_schedule(grid):
        mult = chosen.get((event.kind, event.row, event.col), 0)
        for new_state, cost, m in transition_fn(state, event, grid):
            if m == mult:
                state = new_state
                total += cost
                break
        else:
            raise InternalInfeasibleError(
                f"replay has no multiplicity-{mult} transition at {event}"
            )
    return state, total


# --- per-state kernels -----------------------------------------------------
#
# One state in, its (successor, multiplicity) pairs out. The package's
# kernels compute the same candidates for the whole state space at once.


def _tsp_vertical(state: TspFrontierState, i: int) -> list:
    """Segment between rows i and i+1 (1-based): skip, single, or double."""
    parity, comp = state
    lo = i - 1
    hi = i
    out = [(state, 0)]
    c_lo, c_hi = comp[lo], comp[hi]
    for m in (1, 2):
        npar = list(parity)
        npar[lo] = parity_add(parity[lo], m)
        npar[hi] = parity_add(parity[hi], m)
        if c_lo and c_hi:
            if c_lo == c_hi:
                ncomp = comp
            else:
                ncomp = tuple(c_lo if c == c_hi else c for c in comp)
        elif c_lo:
            ncomp = comp[:hi] + (c_lo,) + comp[hi + 1 :]
        elif c_hi:
            ncomp = comp[:lo] + (c_hi,) + comp[lo + 1 :]
        else:
            fresh = len(comp) + 1
            ncomp = comp[:lo] + (fresh, fresh) + comp[lo + 2 :]
        out.append((TspFrontierState(tuple(npar), relabel_components(ncomp)), m))
    return out


def _tsp_horizontal(
    state: TspFrontierState, i: int, dep_terminal: bool
) -> list:
    """Segment leaving row i's frontier vertex rightward; the departing
    vertex's degree is final after this step."""
    parity, comp = state
    r = i - 1
    p = parity[r]
    c = comp[r]
    out = []
    if p == ZERO:
        if dep_terminal:
            # zero-degree terminal is infeasible; doubled edge starts a
            # fresh single-vertex component (degree-2 self-loop shape)
            fresh = len(comp) + 1
            npar = parity[:r] + (EVEN,) + parity[r + 1 :]
            ncomp = comp[:r] + (fresh,) + comp[r + 1 :]
            out.append(
                (TspFrontierState(npar, relabel_components(ncomp)), 2)
            )
        else:
            out.append((state, 0))
            # doubled edge would leave a non-terminal U-turn: pruned
    elif p == ODD:
        out.append((state, 1))
    else:  # EVEN: skip (unless that closes the component) or double
        if comp.count(c) > 1:
            npar = parity[:r] + (ZERO,) + parity[r + 1 :]
            ncomp = comp[:r] + (0,) + comp[r + 1 :]
            out.append((TspFrontierState(npar, relabel_components(ncomp)), 0))
        out.append((state, 2))
    return out


def _steiner_vertical(state: SteinerFrontierState, i: int) -> list:
    comp = state.comp
    lo = i - 1
    hi = i
    out = [(state, 0)]
    c_lo, c_hi = comp[lo], comp[hi]
    if c_lo and c_hi:
        if c_lo == c_hi:
            return out  # cycle
        ncomp = tuple(c_lo if c == c_hi else c for c in comp)
    elif c_lo:
        ncomp = comp[:hi] + (c_lo,) + comp[hi + 1 :]
    elif c_hi:
        ncomp = comp[:lo] + (c_hi,) + comp[lo + 1 :]
    else:
        fresh = len(comp) + 1
        ncomp = comp[:lo] + (fresh, fresh) + comp[lo + 2 :]
    out.append((SteinerFrontierState(relabel_components(ncomp)), 1))
    return out


def _steiner_horizontal(
    state: SteinerFrontierState, i: int, dep_terminal: bool
) -> list:
    comp = state.comp
    r = i - 1
    c = comp[r]
    out = []
    if c == 0:
        if dep_terminal:
            # skipping would leave the terminal with degree zero
            fresh = len(comp) + 1
            ncomp = comp[:r] + (fresh,) + comp[r + 1 :]
            out.append((SteinerFrontierState(relabel_components(ncomp)), 1))
        else:
            # a non-terminal taking its first and last edge is a pendant: pruned
            out.append((state, 0))
    else:
        if comp.count(c) > 1:  # otherwise closure
            ncomp = comp[:r] + (0,) + comp[r + 1 :]
            out.append((SteinerFrontierState(relabel_components(ncomp)), 0))
        out.append((state, 1))
    return out


def tsp_kernel(state: TspFrontierState, kind: Kind) -> list:
    if kind[0] == "V":
        return _tsp_vertical(state, kind[1])
    return _tsp_horizontal(state, kind[1], kind[2])


def steiner_kernel(state: SteinerFrontierState, kind: Kind) -> list:
    if kind[0] == "V":
        return _steiner_vertical(state, kind[1])
    return _steiner_horizontal(state, kind[1], kind[2])


def reference_table(
    space: StateSpace, kernel, kind: Kind
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A kind's transition rows built state by state, with a dict from
    packed key to index: int32 source, int32 destination and int8
    multiplicity, one row per transition the kernel emits, sorted by
    (destination, source, multiplicity). ``kernel`` is ``tsp_kernel`` or
    ``steiner_kernel``."""
    states = states_from_matrices(space.comp_mat, space.parity_mat)
    index = {encode_state(s): i for i, s in enumerate(states)}
    srcs: list[int] = []
    dsts: list[int] = []
    mults: list[int] = []
    for si, state in enumerate(states):
        for new_state, m in kernel(state, kind):
            try:
                dsts.append(index[encode_state(new_state)])
            except KeyError:
                raise InternalInfeasibleError(
                    f"kernel emitted non-canonical state "
                    f"{render_state(new_state)} for kind {kind}"
                ) from None
            srcs.append(si)
            mults.append(m)
    src = np.array(srcs, dtype=np.int32)
    dst = np.array(dsts, dtype=np.int32)
    mult = np.array(mults, dtype=np.int8)
    order = np.lexsort((mult, src, dst))
    return src[order], dst[order], mult[order]


# --- per-state transitions and acceptance ---------------------------------


def tsp_transition(
    state: TspFrontierState, event: EdgeEvent, grid: HananGrid
) -> list[tuple[TspFrontierState, int, int]]:
    """All feasible extensions of a state by one scheduled segment, as
    (new state, added cost, multiplicity) triples."""
    if event.kind == "V":
        results = _tsp_vertical(state, event.row)
    else:
        results = _tsp_horizontal(
            state, event.row, grid.is_terminal(event.row, event.col)
        )
    return [(s, m * event.length, m) for s, m in results]


def steiner_transition(
    state: SteinerFrontierState, event: EdgeEvent, grid: HananGrid
) -> list[tuple[SteinerFrontierState, int, int]]:
    """Feasible extensions by one segment as (state, cost, mult) triples."""
    if event.kind == "V":
        results = _steiner_vertical(state, event.row)
    else:
        results = _steiner_horizontal(
            state, event.row, grid.is_terminal(event.row, event.col)
        )
    return [(s, m * event.length, m) for s, m in results]


def tsp_accept(state: TspFrontierState, term_rows: tuple[bool, ...]) -> bool:
    max_label = 0
    for p, c, t in zip(state.parity, state.comp, term_rows):
        if p == ODD:
            return False
        if t and p != EVEN:
            return False
        if c > max_label:
            max_label = c
    return max_label == 1


def steiner_accept(state: SteinerFrontierState, term_rows: tuple[bool, ...]) -> bool:
    max_label = 0
    for c, t in zip(state.comp, term_rows):
        if t and c == 0:
            return False
        if c > max_label:
            max_label = c
    return max_label == 1


def check_canonical(state: FrontierState):
    """``on_state`` hook: every emitted state must already be canonical."""
    if isinstance(state, TspFrontierState):
        canonical = canonicalize_tsp(state.parity, state.comp)
    else:
        canonical = canonicalize_steiner(state.comp)
    if canonical != state:
        raise InternalInfeasibleError(f"non-canonical state emitted: {state}")


# --- whole solves, checking every emitted state ---------------------------


def solve_tsp_reference(instance: Instance) -> TspSolution:
    """The reference counterpart of ``solve_tsp`` in trace mode."""
    grid = build_grid(instance)
    term_rows = grid.terminal_rows_last_col()
    res = run_sweep(
        grid,
        initial_tsp_state(grid.h),
        tsp_transition,
        lambda s: tsp_accept(s, term_rows),
        on_state=check_canonical,
    )
    edges = edges_from_moves(grid, reconstruct(res.trace, res.final_key))
    subgraph = Subgraph(tuple(edges), res.cost)
    validate_tour_subgraph(subgraph, instance)
    return TspSolution(res.cost, subgraph, orient_tour(subgraph, instance), res.stats)


def solve_steiner_reference(instance: Instance) -> SteinerSolution:
    """The reference counterpart of ``solve_steiner`` in trace mode."""
    grid = build_grid(instance)
    term_rows = grid.terminal_rows_last_col()
    res = run_sweep(
        grid,
        initial_steiner_state(grid.h),
        steiner_transition,
        lambda s: steiner_accept(s, term_rows),
        on_state=check_canonical,
    )
    edges = edges_from_moves(grid, reconstruct(res.trace, res.final_key))
    tree = Subgraph(tuple(edges), res.cost)
    validate_steiner_tree(tree, instance)
    return SteinerSolution(res.cost, tree, res.stats)
