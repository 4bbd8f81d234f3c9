"""Layered shortest-path sweep over the fully enumerated state space.

The whole state space is enumerated once, sorted by packed key, and each
distinct event shape ("kind": segment orientation, row, and for a
horizontal segment whether it departs a terminal) gets a precomputed
transition table of (source index, destination index, multiplicity)
triples. Processing one event is then a gather + grouped minimum over
numpy arrays. Equal costs are broken toward the smallest (source index,
multiplicity) pair; sources are sorted by packed key, so this is the
smallest (predecessor key, multiplicity) pair.

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
from .states import FrontierState, encode_state, enumerate_states, render_state

Kind = tuple
Kernel = Callable[[FrontierState, Kind], list]


@dataclass
class SweepStats:
    layer_count: int
    max_layer_states: int
    total_expansions: int
    wall_ms: float


@dataclass
class StateSpace:
    problem: str
    h: int
    keys: list[int]  # sorted packed keys; position = state index
    index: dict[int, int]
    states: list[FrontierState]
    parity_mat: np.ndarray | None  # (N, h) int8, tour variant only
    comp_mat: np.ndarray  # (N, h) int8


_SPACES: dict[tuple[str, int], StateSpace] = {}
_TABLES: dict[tuple[str, int], "TableSet"] = {}


def get_space(problem: str, h: int) -> StateSpace:
    cached = _SPACES.get((problem, h))
    if cached is not None:
        return cached
    states = sorted(enumerate_states(h, problem), key=encode_state)
    keys = [encode_state(s) for s in states]
    index = {k: i for i, k in enumerate(keys)}
    if problem == "tsp":
        parity_mat = np.array([s.parity for s in states], dtype=np.int8)
    else:
        parity_mat = None
    comp_mat = np.array([s.comp for s in states], dtype=np.int8)
    space = StateSpace(problem, h, keys, index, states, parity_mat, comp_mat)
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
        index = space.index
        kernel = self.kernel
        srcs: list[int] = []
        dsts: list[int] = []
        mults: list[int] = []
        for si, state in enumerate(space.states):
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
        mult = np.array(mults, dtype=np.int64)
        order = np.lexsort((mult, src, dst))
        src, dst, mult = src[order], dst[order], mult[order]
        boundaries = np.flatnonzero(np.diff(dst)) + 1
        group_starts = np.concatenate(([0], boundaries))
        group_dst = dst[group_starts]
        return KindTable(src, mult, group_starts.astype(np.int64), group_dst)


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
    initial_state: FrontierState,
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
    cost[space.index[encode_state(initial_state)]] = 0
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
