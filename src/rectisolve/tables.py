"""Layered shortest-path sweep over the fully enumerated state space.

The whole state space is enumerated once as the ascending array of its
packed int64 keys (``states.enumerate_states``); a state's index is its
position there. The keys are unpacked into two (N, h) int8 matrices,
per-row parities (tour variant) and component labels, which are all the
kernels see. The all-empty state packs to key 0, so every sweep starts
from index 0 alone.

Each distinct event shape ("kind": a segment's orientation and row) gets a
precomputed transition table in two parts, as in the hybrid sparse-matrix
formats: ``keep``, an N-long int8 vector holding the multiplicity of each
state's transition to itself, which every state has, and the moving rows,
three equal-length arrays of source index, destination index and
multiplicity, sorted by (destination, source, multiplicity). Of the rows a
kernel emits for one (source, destination) pair only the one with the
smallest multiplicity is kept: segment lengths are positive, so no other
can win. Processing one event is one min-plus step into the next layer: a
dense pass adds each state's own multiplicity times the segment length to
its cost, then the moving rows gather their source costs, add their weight
and reduce into that layer with one ``np.minimum.at`` over the destination
indices. Reconstruction breaks equal costs toward the smallest (source
index, multiplicity) pair; sources are sorted by packed key, so this is the
smallest (predecessor key, multiplicity) pair.

Terminals are handled here alone. At a horizontal event that departs a
terminal, a state whose row is empty may not stay: it opens a fresh
single-row component there, at the multiplicity its opened state keeps
itself at. The row's open table, kind ("O", r), holds these moves as
moving rows with no ``keep``. The final layer accepts one component with a
label on every last-column terminal row and, for tours, no odd row.

A table is built with numpy over the whole space at once. The solver's
kernel maps every state to its candidate successors, as arrays of source
index, labels, parities and multiplicity. Each candidate is packed into an
int64 key (``states.pack_states``); one that kept its source's key goes
back to that source, and the rest are looked up by binary search in the
sorted key array. A candidate that is not there is not a canonical state,
which, like a state left without a transition to itself, is a kernel bug
and raises InternalInfeasibleError.

Only row 1's tables are built that way; every other row's are derived
by rotation. Non-crossing partitions of a cycle are closed
under rotation (Kreweras, "Sur les partitions non croisees d'un cycle",
Discrete Math. 1972), and a rotation keeps each component's count of odd
rows. So moving every row of a state up by one, the top row to the
bottom, and renumbering its labels gives a state again: a permutation rho
of the state space (``TableSet.rotation``). A segment on row r acts on a
state as the same segment on row r + 1 acts on its rotation, so row
r + 1's table is row r's with its sources and destinations mapped through
rho and re-sorted, and its ``keep``, if it has one, scattered through rho.

Tables depend only on (variant, h), never on segment lengths or column
positions, so they are cached with their state space, one ``TableSet`` per
(variant, h), and shared across instances and runs.
Costs use int32 when the instance's total-length upper bound allows it.
Trace mode keeps every layer for path reconstruction, as the rows of one
preallocated array of up to MAX_TRACE_BYTES; rolling mode keeps two rows
and reports the cost only.

Both solvers run the same sweep: a ``Variant`` names the state format,
the kernel and the largest multiplicity, and ``solve_grid`` runs one on a
grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GuardExceeded, InternalInfeasibleError
from .geometry import EdgeEvent, HananGrid, edge_schedule
from .states import EVEN, MAX_LABEL, ODD, count_states, enumerate_states, pack_states
from .states import relabel_rows, render_row, set_label, unpack_states

Kind = tuple  # ("V", r), ("H", r) or ("O", r), r the 1-based row
# (space, kind) -> (src, comp, parity, mult): one candidate per entry, with
# its (M, h) labels and parities (None for the tree variant) and its int8
# multiplicity.
Candidates = tuple[np.ndarray, np.ndarray, "np.ndarray | None", np.ndarray]
Kernel = Callable[["StateSpace", Kind], Candidates]


@dataclass(frozen=True)
class Variant:
    """What one problem puts into the shared sweep."""

    name: str  # "tsp" or "steiner": the state format and the cache key
    kernel: Kernel
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
# A warm rolling sweep takes 6-9 ns per state and event; a sweep of more
# state-events than this (60-90 s) is refused before enumerating states.
MAX_STATE_EVENTS = 10**10

_TABLES: dict[tuple[str, int], "TableSet"] = {}


def get_space(problem: str, h: int) -> StateSpace:
    """The enumerated state space; ``get_tableset`` caches it with its
    tables."""
    keys = enumerate_states(h, problem)
    comp_mat, parity_mat = unpack_states(keys, h, problem)
    return StateSpace(keys, parity_mat, comp_mat)


@dataclass
class KindTable:
    """A state's transition to itself as one dense entry, and every other
    transition as one row, rows sorted by (dst, src, mult). One (src, dst)
    pair has at most one row, the one with the smallest multiplicity.

    An open table ("O", r) has no ``keep``: its rows send each state whose
    row r is empty to its opened state, in place of staying."""

    keep: np.ndarray | None  # int8 per state: the multiplicity to itself
    src: np.ndarray  # int32 source state index
    dst: np.ndarray  # int32 destination state index, src != dst
    mult: np.ndarray  # int8 edges the segment gets (0, 1 or 2)


class TableSet:
    """Lazily built per-kind transition tables for one (variant, h)."""

    def __init__(self, space: StateSpace, kernel: Kernel):
        self.space = space
        self.kernel = kernel
        self.tables: dict[Kind, KindTable] = {}
        self._rho: np.ndarray | None = None

    def get(self, kind: Kind) -> KindTable:
        table = self.tables.get(kind)
        if table is None:
            orient, row = kind
            if row > 1:
                table = self._rotate(self.get((orient, row - 1)))
            elif orient == "O":
                table = self._build_open(row)
            else:
                table = self._build(kind)
            self.tables[kind] = table
        return table

    def rotation(self) -> np.ndarray:
        """rho: each state's index after its rows move up by one, the top
        row to the bottom, and its labels are renumbered canonically."""
        if self._rho is None:
            space = self.space
            comp = relabel_rows(np.roll(space.comp_mat, 1, axis=1))
            parity = None
            if space.parity_mat is not None:
                parity = np.roll(space.parity_mat, 1, axis=1)
            src = np.arange(len(space.keys), dtype=np.int32)
            what = "rotation by one row gives state {}, which is not in the space"
            self._rho = self._find(src, comp, parity, what)
        return self._rho

    def _rotate(self, table: KindTable) -> KindTable:
        """The table one row up: a row s -> d becomes rho[s] -> rho[d]."""
        rho = self.rotation()
        src, dst = rho[table.src], rho[table.dst]
        # one int64 key per (dst, src) pair, each pair unique; a stable sort
        # takes the runs that rho keeps in order at a fraction of lexsort's time
        order = np.argsort(dst.astype(np.int64) * len(rho) + src, kind="stable")
        keep = None
        if table.keep is not None:
            keep = np.empty_like(table.keep)
            keep[rho] = table.keep
        return KindTable(keep, src[order], dst[order], table.mult[order])

    def _build(self, kind: Kind) -> KindTable:
        space = self.space
        src, comp, parity, mult = self.kernel(space, kind)
        src = src.astype(np.int32)
        dst = self._find(src, comp, parity, _EMITTED + str(kind))
        order = np.lexsort((mult, src, dst))
        src, dst, mult = src[order], dst[order], mult[order]
        # the first row of each (dst, src) run has the smallest multiplicity
        first = np.ones(len(src), dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        stay = src == dst
        own = first & stay
        keep = mult[own]  # at most one row per state, in state order
        if len(keep) < len(space.keys):
            r = np.setdiff1d(np.arange(len(space.keys)), src[own])[0]
            what = "kernel left state {} without a transition to itself for kind "
            raise _fault(what + str(kind), space.comp_mat, space.parity_mat, r)
        rows = first & ~stay
        return KindTable(keep, src[rows], dst[rows], mult[rows])

    def _build_open(self, row: int) -> KindTable:
        """The open table ("O", row): each state whose row is empty to its
        opened state, at the multiplicity the opened state keeps itself at
        in the ("H", row) table."""
        comp_mat, parity_mat = self.space.comp_mat, self.space.parity_mat
        r = row - 1
        src = np.flatnonzero(comp_mat[:, r] == 0).astype(np.int32)
        comp = set_label(comp_mat[src], r, comp_mat.shape[1] + 1)
        parity = None
        if parity_mat is not None:
            parity = parity_mat[src]
            parity[:, r] = EVEN
        kind = ("H", row)
        dst = self._find(src, comp, parity, _EMITTED + str(kind))
        order = np.argsort(dst)  # one state opens into each opened state
        src, dst = src[order], dst[order]
        return KindTable(None, src, dst, self.get(kind).keep[dst])

    def _find(self, src, comp, parity, what: str) -> np.ndarray:
        """Each candidate's state index, in src's dtype; a candidate that is
        not a state raises ``what`` about it."""
        keys = self.space.keys
        # a value outside the packed fields would alias another state's key
        bad = (comp < 0) | (comp > MAX_LABEL)
        if parity is not None:
            bad |= (parity < 0) | (parity > 2)
        if bad.any():
            r = np.flatnonzero(bad.any(axis=1))[0]
            raise _fault(what, comp, parity, r)
        packed = pack_states(comp, parity)
        dst = src.copy()
        moved = np.flatnonzero(packed != keys[src])
        found = np.searchsorted(keys, packed[moved])
        np.minimum(found, len(keys) - 1, out=found)
        missing = keys[found] != packed[moved]
        if missing.any():
            r = moved[missing][0]
            raise _fault(what, comp, parity, r)
        dst[moved] = found
        return dst


_EMITTED = "kernel emitted non-canonical state {} for kind "


def _fault(what: str, comp, parity, r) -> InternalInfeasibleError:
    """A table-build fault ``what``, showing the state in row r of comp and
    parity at its ``{}``."""
    parity_row = None if parity is None else parity[r].tolist()
    shown = render_row(comp[r].tolist(), parity_row)
    return InternalInfeasibleError(what.format(shown))


def get_tableset(variant: Variant, h: int) -> TableSet:
    cached = _TABLES.get((variant.name, h))
    if cached is None:
        cached = TableSet(get_space(variant.name, h), variant.kernel)
        _TABLES[(variant.name, h)] = cached
    return cached


def accept_mask(space: StateSpace, term_rows: tuple[bool, ...]) -> np.ndarray:
    """The final-layer states a solution may end in: one component, a label
    on every last-column terminal row, and for tours no odd row."""
    comp = space.comp_mat
    ok = comp.max(axis=1) == 1
    ok &= (comp[:, np.asarray(term_rows, dtype=bool)] != 0).all(axis=1)
    if space.parity_mat is not None:
        ok &= (space.parity_mat != ODD).all(axis=1)
    return ok


@dataclass
class VectorResult:
    cost: int
    final_index: int
    layers: list[np.ndarray] | None
    events: list[EdgeEvent]
    kinds: list[Kind]
    departs: list[bool]  # whether each event departs a terminal
    stats: SweepStats


def _cost_dtype(grid: HananGrid, mult_max: int) -> type:
    """The cost dtype: int32 while mult_max times the total segment length
    (the rows' span in each of v columns, the columns' span on each of h
    rows), which bounds every cost, is below 2**29, so that inf = 2**30 plus
    that bound fits; else int64."""
    total = grid.v * (grid.ys[-1] - grid.ys[0]) + grid.h * (grid.xs[-1] - grid.xs[0])
    return np.int32 if mult_max * total < 2**29 else np.int64


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
    kinds = [(ev.kind, ev.row) for ev in events]
    departs = [ev.kind == "H" and grid.is_terminal(ev.row, ev.col) for ev in events]

    dtype = _cost_dtype(grid, mult_max)
    # a 0-d array, which a ufunc call takes faster than a numpy scalar
    inf = np.array(2**30 if dtype is np.int32 else 2**62, dtype=dtype)

    # every layer is a row of one array; rolling mode alternates two rows
    store = np.empty((len(events) + 1 if trace else 2, n), dtype=dtype)
    cost = store[0]
    cost.fill(inf)
    cost[0] = 0  # the all-empty state: key 0, the smallest
    reached_mask = cost < inf
    reached = max_states = 1
    # the moving rows' buffers, grown to the largest table met so far
    cand, weight, below = np.empty(0, dtype), np.empty(0, dtype), np.empty(0, bool)
    expansions = 0
    for e, (event, kind, opens) in enumerate(zip(events, kinds, departs), 1):
        table = tableset.get(kind)
        nxt = store[e if trace else e & 1]
        # a 0-d length of the cost dtype makes the int8 multiplicities'
        # products that dtype; an unreached source gives at most
        # inf + the cost bound of _cost_dtype, inside it
        length = np.array(event.length, dtype)
        np.multiply(table.keep, length, out=nxt)
        nxt += cost
        np.minimum(nxt, inf, out=nxt)  # an unreached state stays exactly inf
        # each reached state expands to itself, or to its opened state
        expansions += reached
        if opens:
            opened = tableset.get(("O", event.row))
            # take, as fancy indexing converts int32 indices to intp first
            gained = cost.take(opened.src) + opened.mult * length
            np.minimum.at(nxt, opened.dst, gained)
            nxt[opened.src] = inf
        rows = len(table.src)
        if rows > len(cand):
            cand, weight = np.empty(rows, dtype), np.empty(rows, dtype)
            below = np.empty(rows, bool)
        # "clip" clips no valid index and, unlike "raise", fills out unbuffered
        moved = cost.take(table.src, out=cand[:rows], mode="clip")
        moved += np.multiply(table.mult, length, out=weight[:rows])
        expansions += np.count_nonzero(np.less(moved, inf, out=below[:rows]))
        np.minimum.at(nxt, table.dst, moved)
        cost = nxt
        reached = np.count_nonzero(np.less(cost, inf, out=reached_mask))
        max_states = max(max_states, reached)

    feasible = accept_mask & (cost < inf)
    candidates = np.flatnonzero(feasible)
    if candidates.size == 0:
        raise InternalInfeasibleError("no accepted state on the final layer")
    best = candidates[int(np.argmin(cost[candidates]))]
    stats = SweepStats(
        layer_count=len(events) + 1,
        max_layer_states=int(max_states),  # count_nonzero gives numpy ints
        total_expansions=int(expansions),
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return VectorResult(
        cost=int(cost[best]),
        final_index=int(best),
        layers=list(store) if trace else None,
        events=events,
        kinds=kinds,
        departs=departs,
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
        searched = [table]
        rows = [(idx, int(table.keep[idx]))]
        if result.departs[l - 1]:
            if tableset.space.comp_mat[idx, event.row - 1]:
                # only a state with a labeled row can have been opened
                searched.append(tableset.get(("O", event.row)))
            else:  # every state whose row is empty opens instead of staying
                rows.clear()
        # int32 keys, as int64 ones would make searchsorted cast all of dst
        keys = np.array((idx, idx + 1), dtype=np.int32)
        for t in searched:
            a, b = t.dst.searchsorted(keys).tolist()
            rows += zip(t.src[a:b].tolist(), t.mult[a:b].tolist())
        rows.sort()  # tie order
        if not rows:
            raise InternalInfeasibleError(f"no transitions into state at layer {l}")
        here = int(result.layers[l][idx])
        prev_layer = result.layers[l - 1]
        for s, m in rows:
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
    h = grid.h
    events = 2 * h * grid.v - h - grid.v
    states = count_states(h, variant.name)
    if events * states > MAX_STATE_EVENTS:
        raise GuardExceeded(
            f"{variant.name} sweep of {events} events at h={h} is above the "
            f"limit of {MAX_STATE_EVENTS} state-events (events x states)"
        )
    if trace:
        itemsize = np.dtype(_cost_dtype(grid, variant.mult_max)).itemsize
        trace_bytes = (events + 1) * states * itemsize
        if trace_bytes > MAX_TRACE_BYTES:
            raise GuardExceeded(
                f"trace of {events + 1} layers of {states} states needs "
                f"{trace_bytes} bytes, above the limit of {MAX_TRACE_BYTES}"
            )
    tableset = get_tableset(variant, h)
    mask = accept_mask(tableset.space, grid.terminal_rows_last_col())
    res = run_vector_sweep(grid, tableset, mask, variant.mult_max, trace=trace)
    moves = reconstruct_vector(res, tableset) if trace else None
    return res, moves
