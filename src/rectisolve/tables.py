"""Layered shortest-path sweep over the fully enumerated state space.

The whole state space is enumerated once as the ascending array of its
packed int64 keys (``states.enumerate_states``); a state's index is its
position there. The keys are unpacked into two (N, h) int8 matrices,
per-row parities (tour variant) and component labels, which are all the
kernels see. The all-empty state packs to key 0, so every sweep starts
from index 0 alone.

Each distinct event shape ("kind": segment orientation, row, and for a
horizontal segment whether it departs a terminal) gets a precomputed
transition table of (source index, destination index, multiplicity)
triples. Processing one event is then a gather + grouped minimum over
numpy arrays. Equal costs are broken toward the smallest
(source index, multiplicity) pair; sources are sorted by packed key, so
this is the smallest (predecessor key, multiplicity) pair.

A table is built with numpy over the whole space at once. The solver's
kernel maps every state to its candidate successors, as arrays of source
index, labels, parities and multiplicity. Each candidate is packed into an
int64 key (``states.pack_states``); one that kept its source's key goes
back to that source, and the rest are looked up by binary search in the
sorted key array. A candidate that is not there is not a canonical state,
which is a kernel bug and raises InternalInfeasibleError.

Tables depend only on (problem, h), never on segment lengths or column
positions, so they are cached and shared across instances and runs.
Costs use int32 when the instance's total-length upper bound allows it.
Trace mode keeps every layer for path reconstruction; rolling mode keeps
two layers and reports the cost only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InternalInfeasibleError
from .geometry import EdgeEvent, HananGrid, edge_schedule
from .states import MAX_LABEL, enumerate_states, pack_states, render_row, unpack_states

Kind = tuple
# (space, kind) -> (src, comp, parity, mult): one candidate per entry, with
# its (M, h) labels and parities (None for the tree variant).
Candidates = tuple[np.ndarray, np.ndarray, "np.ndarray | None", np.ndarray]
Kernel = Callable[["StateSpace", Kind], Candidates]


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
        [np.broadcast_to(np.asarray(b[3], dtype=np.int64), len(b[0])) for b in blocks]
    )
    return src, comp, parity, mult


@dataclass
class StateSpace:
    problem: str
    h: int
    keys: np.ndarray  # int64 packed keys, ascending; position = state index
    parity_mat: np.ndarray | None  # (N, h) int8, tour variant only
    comp_mat: np.ndarray  # (N, h) int8


_SPACES: dict[tuple[str, int], StateSpace] = {}
_TABLES: dict[tuple[str, int], "TableSet"] = {}


def get_space(problem: str, h: int) -> StateSpace:
    cached = _SPACES.get((problem, h))
    if cached is not None:
        return cached
    keys = enumerate_states(h, problem)
    comp_mat, parity_mat = unpack_states(keys, h, problem)
    space = StateSpace(problem, h, keys, parity_mat, comp_mat)
    _SPACES[(problem, h)] = space
    return space


@dataclass
class KindTable:
    src: np.ndarray  # int32, sorted by (dst, src, mult)
    mult: np.ndarray  # int64
    group_starts: np.ndarray  # int64 offsets into src/mult per destination
    group_dst: np.ndarray  # int32 destinations, ascending


class TableSet:
    """Lazily built per-kind transition tables for one (problem, h)."""

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
        dst = src.astype(np.int32)
        moved = np.flatnonzero(keys != space.keys[src])
        found = np.searchsorted(space.keys, keys[moved])
        np.minimum(found, len(space.keys) - 1, out=found)
        missing = space.keys[found] != keys[moved]
        if missing.any():
            self._raise_non_canonical(kind, comp, parity, moved[missing][0])
        dst[moved] = found
        src = src.astype(np.int32)
        mult = mult.astype(np.int64)
        order = np.lexsort((mult, src, dst))
        src, dst, mult = src[order], dst[order], mult[order]
        boundaries = np.flatnonzero(np.diff(dst)) + 1
        group_starts = np.concatenate(([0], boundaries))
        group_dst = dst[group_starts]
        return KindTable(src, mult, group_starts.astype(np.int64), group_dst)

    def _raise_non_canonical(self, kind: Kind, comp, parity, r):
        parity_row = None if parity is None else parity[r].tolist()
        shown = render_row(comp[r].tolist(), parity_row)
        raise InternalInfeasibleError(
            f"kernel emitted non-canonical state {shown} for kind {kind}"
        )


def get_tableset(problem: str, h: int, kernel: Kernel) -> TableSet:
    cached = _TABLES.get((problem, h))
    if cached is None:
        cached = TableSet(get_space(problem, h), kernel)
        _TABLES[(problem, h)] = cached
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

    cost = np.full(n, inf, dtype=dtype)
    cost[0] = 0  # the all-empty state: key 0, the smallest
    layers = [cost.copy()] if trace else None
    max_states = 1
    expansions = 0
    for event, kind in zip(events, kinds):
        table = tableset.get(kind)
        weight = (table.mult * event.length).astype(dtype)
        cand = cost[table.src] + weight
        nxt = np.full(n, inf, dtype=dtype)
        nxt[table.group_dst] = np.minimum.reduceat(cand, table.group_starts)
        np.minimum(nxt, inf, out=nxt)
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
        g = int(np.searchsorted(table.group_dst, idx))
        if g >= len(table.group_dst) or table.group_dst[g] != idx:
            raise InternalInfeasibleError(f"no transitions into state at layer {l}")
        a = int(table.group_starts[g])
        b = (
            int(table.group_starts[g + 1])
            if g + 1 < len(table.group_starts)
            else len(table.src)
        )
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
