"""Layered shortest-path sweep over the fully enumerated state space.

The whole state space is enumerated once as the ascending array of its
packed int64 keys (``states.enumerate_states``); a state's index is its
position there. The keys are unpacked into two (N, h) int8 matrices,
per-row parities (tour variant) and component labels, which are all the
kernels see. The all-empty state packs to key 0, so every sweep starts
from index 0 alone.

Each distinct event shape ("kind": segment orientation, row, and for a
horizontal segment whether it departs a terminal) gets a precomputed
transition table: three equal-length arrays of source index, destination
index and multiplicity, one row per transition, sorted by
(destination, source, multiplicity). Processing one event gathers the
source costs, adds each row's multiplicity times the segment length, and
reduces the rows into the next layer with one ``np.minimum.at`` over the
destination indices. Reconstruction breaks equal costs toward the first
row of a destination's run, the smallest (source index, multiplicity)
pair; sources are sorted by packed key, so this is the smallest
(predecessor key, multiplicity) pair.

A table is built with numpy over the whole space at once. The solver's
kernel maps every state to its candidate successors, as arrays of source
index, labels, parities and multiplicity. Each candidate is packed into an
int64 key (``states.pack_states``); one that kept its source's key goes
back to that source, and the rest are looked up by binary search in the
sorted key array. A candidate that is not there is not a canonical state,
which is a kernel bug and raises InternalInfeasibleError.

Tables depend only on (variant, h), never on segment lengths or column
positions, so they are cached and shared across instances and runs.
Costs use int32 when the instance's total-length upper bound allows it.
Trace mode keeps every layer for path reconstruction, up to
MAX_TRACE_BYTES of them; rolling mode keeps two layers and reports the
cost only.

Both solvers run the same sweep: a ``Variant`` names the state format,
the kernel, the final-layer acceptance and the largest multiplicity, and
``solve_grid`` runs one on a grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GuardExceeded, InternalInfeasibleError
from .geometry import EdgeEvent, HananGrid, edge_schedule
from .states import MAX_LABEL, enumerate_states, pack_states, render_row, unpack_states

Kind = tuple
# (space, kind) -> (src, comp, parity, mult): one candidate per entry, with
# its (M, h) labels and parities (None for the tree variant) and its int8
# multiplicity.
Candidates = tuple[np.ndarray, np.ndarray, "np.ndarray | None", np.ndarray]
Kernel = Callable[["StateSpace", Kind], Candidates]
# (space, terminal flags of the last column's rows) -> the final-layer
# states a solution may end in, as an N-long bool mask
Accept = Callable[["StateSpace", tuple[bool, ...]], np.ndarray]


@dataclass(frozen=True)
class Variant:
    """What one problem puts into the shared sweep."""

    name: str  # "tsp" or "steiner": the state format and the cache key
    kernel: Kernel
    accept: Accept
    mult_max: int  # the most edges one segment may get


@dataclass
class SweepStats:
    layer_count: int
    max_layer_states: int
    total_expansions: int
    wall_ms: float


def stack_candidates(blocks) -> Candidates:
    """Concatenate (src, comp, parity, mult) blocks into one candidate set;
    a block's mult may be one number for all of its rows."""
    src = np.concatenate([b[0] for b in blocks])
    comp = np.concatenate([b[1] for b in blocks])
    parity = None
    if blocks[0][2] is not None:
        parity = np.concatenate([b[2] for b in blocks])
    mult = np.concatenate(
        [np.broadcast_to(np.asarray(b[3], dtype=np.int8), len(b[0])) for b in blocks]
    )
    return src, comp, parity, mult


@dataclass
class StateSpace:
    keys: np.ndarray  # int64 packed keys, ascending; position = state index
    parity_mat: np.ndarray | None  # (N, h) int8, tour variant only
    comp_mat: np.ndarray  # (N, h) int8


# Trace mode keeps one cost array per layer; a sweep whose layers would
# take more bytes than this is refused before any of them is allocated.
MAX_TRACE_BYTES = 4 << 30

_SPACES: dict[tuple[str, int], StateSpace] = {}
_TABLES: dict[tuple[str, int], "TableSet"] = {}


def get_space(problem: str, h: int) -> StateSpace:
    cached = _SPACES.get((problem, h))
    if cached is not None:
        return cached
    keys = enumerate_states(h, problem)
    comp_mat, parity_mat = unpack_states(keys, h, problem)
    space = StateSpace(keys, parity_mat, comp_mat)
    _SPACES[(problem, h)] = space
    return space


@dataclass
class KindTable:
    """One row per transition, rows sorted by (dst, src, mult)."""

    src: np.ndarray  # int32 source state index
    dst: np.ndarray  # int32 destination state index
    mult: np.ndarray  # int8 edges the segment gets (0, 1 or 2)


class TableSet:
    """Lazily built per-kind transition tables for one (variant, h)."""

    def __init__(self, space: StateSpace, kernel: Kernel):
        self.space = space
        self.kernel = kernel
        self.tables: dict[Kind, KindTable] = {}

    def get(self, kind: Kind) -> KindTable:
        table = self.tables.get(kind)
        if table is None:
            table = self._build(kind)
            self.tables[kind] = table
        return table

    def _build(self, kind: Kind) -> KindTable:
        space = self.space
        src, comp, parity, mult = self.kernel(space, kind)
        # a value outside the packed fields would alias another state's key
        bad = (comp < 0) | (comp > MAX_LABEL)
        if parity is not None:
            bad |= (parity < 0) | (parity > 2)
        if bad.any():
            first = np.flatnonzero(bad.any(axis=1))[0]
            self._raise_non_canonical(kind, comp, parity, first)
        keys = pack_states(comp, parity)
        src = src.astype(np.int32)
        dst = src.copy()
        moved = np.flatnonzero(keys != space.keys[src])
        found = np.searchsorted(space.keys, keys[moved])
        np.minimum(found, len(space.keys) - 1, out=found)
        missing = space.keys[found] != keys[moved]
        if missing.any():
            self._raise_non_canonical(kind, comp, parity, moved[missing][0])
        dst[moved] = found
        order = np.lexsort((mult, src, dst))
        return KindTable(src[order], dst[order], mult[order])

    def _raise_non_canonical(self, kind: Kind, comp, parity, r):
        parity_row = None if parity is None else parity[r].tolist()
        shown = render_row(comp[r].tolist(), parity_row)
        raise InternalInfeasibleError(
            f"kernel emitted non-canonical state {shown} for kind {kind}"
        )


def get_tableset(variant: Variant, h: int) -> TableSet:
    cached = _TABLES.get((variant.name, h))
    if cached is None:
        cached = TableSet(get_space(variant.name, h), variant.kernel)
        _TABLES[(variant.name, h)] = cached
    return cached


def event_kind(grid: HananGrid, event: EdgeEvent) -> Kind:
    """The table an event uses: a vertical segment depends on its row pair
    only, a horizontal one also on whether it departs a terminal."""
    if event.kind == "V":
        return ("V", event.row)
    return ("H", event.row, grid.is_terminal(event.row, event.col))


@dataclass
class VectorResult:
    cost: int
    final_index: int
    layers: list[np.ndarray] | None
    events: list[EdgeEvent]
    kinds: list[Kind]
    stats: SweepStats


def run_vector_sweep(
    grid: HananGrid,
    tableset: TableSet,
    accept_mask: np.ndarray,
    mult_max: int,
    trace: bool = True,
) -> VectorResult:
    t0 = time.perf_counter()
    space = tableset.space
    n = len(space.keys)
    events = edge_schedule(grid)
    kinds = [event_kind(grid, ev) for ev in events]

    bound = sum(mult_max * ev.length for ev in events)
    if bound < 2**29:
        dtype, inf = np.int32, np.int32(2**30)
    else:
        dtype, inf = np.int64, np.int64(2**62)
    if trace:
        trace_bytes = (len(events) + 1) * n * np.dtype(dtype).itemsize
        if trace_bytes > MAX_TRACE_BYTES:
            raise GuardExceeded(
                f"trace of {len(events) + 1} layers of {n} states needs "
                f"{trace_bytes} bytes, above the limit of {MAX_TRACE_BYTES}"
            )

    cost = np.full(n, inf, dtype=dtype)
    cost[0] = 0  # the all-empty state: key 0, the smallest
    layers = [cost.copy()] if trace else None
    max_states = 1
    expansions = 0
    for event, kind in zip(events, kinds):
        table = tableset.get(kind)
        # an int8 mult times a Python int would stay int8 and overflow; an
        # unreached source gives at most inf + bound, inside the dtype
        cand = cost[table.src] + table.mult * dtype(event.length)
        nxt = np.full(n, inf, dtype=dtype)
        np.minimum.at(nxt, table.dst, cand)
        expansions += int((cand < inf).sum())
        cost = nxt
        if trace:
            layers.append(cost)
        reached = int((cost < inf).sum())
        if reached == 0:
            raise InternalInfeasibleError(f"layer emptied at event {event}")
        max_states = max(max_states, reached)

    feasible = accept_mask & (cost < inf)
    candidates = np.flatnonzero(feasible)
    if candidates.size == 0:
        raise InternalInfeasibleError("no accepted state on the final layer")
    best = candidates[int(np.argmin(cost[candidates]))]
    stats = SweepStats(
        layer_count=len(events) + 1,
        max_layer_states=max_states,
        total_expansions=expansions,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return VectorResult(
        cost=int(cost[best]),
        final_index=int(best),
        layers=layers,
        events=events,
        kinds=kinds,
        stats=stats,
    )


def reconstruct_vector(
    result: VectorResult, tableset: TableSet
) -> list[tuple[EdgeEvent, int]]:
    """Backward pass over the stored layers, resolving each step to the
    smallest (source, multiplicity) pair that achieves the layer cost."""
    if result.layers is None:
        raise InternalInfeasibleError("reconstruction requires trace mode")
    moves: list[tuple[EdgeEvent, int]] = []
    idx = result.final_index
    for l in range(len(result.events), 0, -1):
        event = result.events[l - 1]
        table = tableset.get(result.kinds[l - 1])
        # int32 keys, as int64 ones would make searchsorted cast all of dst
        keys = np.array((idx, idx + 1), dtype=np.int32)
        a, b = np.searchsorted(table.dst, keys).tolist()
        if a == b:
            raise InternalInfeasibleError(f"no transitions into state at layer {l}")
        here = int(result.layers[l][idx])
        prev_layer = result.layers[l - 1]
        for t in range(a, b):
            s = int(table.src[t])
            m = int(table.mult[t])
            if int(prev_layer[s]) + m * event.length == here:
                if m:
                    moves.append((event, m))
                idx = s
                break
        else:
            raise InternalInfeasibleError(f"broken cost chain at layer {l}")
    moves.reverse()
    return moves


def solve_grid(
    variant: Variant, grid: HananGrid, trace: bool
) -> tuple[VectorResult, list[tuple[EdgeEvent, int]] | None]:
    """The optimum of one variant on a grid, and in trace mode the
    segments and multiplicities of an optimal solution."""
    tableset = get_tableset(variant, grid.h)
    mask = variant.accept(tableset.space, grid.terminal_rows_last_col())
    res = run_vector_sweep(grid, tableset, mask, variant.mult_max, trace=trace)
    moves = reconstruct_vector(res, tableset) if trace else None
    return res, moves
