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
two equal-length arrays of source and destination index. The rows are
stored in runs of one multiplicity, sorted by (multiplicity, destination,
source), and the table keeps each run's bounds and multiplicity in place
of a multiplicity per row. Of the rows a kernel emits for one (source,
destination) pair only the one with the smallest multiplicity is kept:
segment lengths are positive, so no other can win. Processing one event is
one min-plus step into the next layer: the moving rows gather their source
costs, and each run of a nonzero multiplicity m adds m times the segment
length with one scalar add (the moving rows of every H table are one run of
m = 0, which adds nothing); then a dense pass adds each state's own
multiplicity times the segment length to its cost, which a table whose
``keep`` is all zero (every V table) skips, and the moving rows reduce into
the new layer with one ``np.minimum.at`` over the destination indices.
Reconstruction breaks equal costs toward the smallest (source index,
multiplicity) pair; sources are sorted by packed key, so this is the
smallest (predecessor key, multiplicity) pair.

The stats take one count per event: the reached states and the moving rows
whose source was reached, which is the event's expansions. Every state
keeps a transition to itself, so the number of reached states can only
fall at an event that departs a terminal; it is counted alone there, on
the layer the event leaves, and on the final row, and the largest of these
counts is the largest layer.

Terminals are handled here alone. At a horizontal event that departs a
terminal, a state whose row is empty may not stay: it opens a fresh
single-row component there, at the multiplicity its opened state keeps
itself at. An ("H", r) table lists these open rows after its moving rows,
from ``opens`` on, in runs of one multiplicity sorted by destination (one
run in either solver); an event that departs a terminal takes them too, and
any other event stops at ``opens``. The final layer
accepts one component with a label on every last-column terminal row and,
for tours, no odd row.

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
rho and re-sorted within each run, the open rows still after the moving
rows, and its ``keep`` scattered through rho.

Tables depend only on (variant, h), never on segment lengths or column
positions, so they are cached with their state space, one ``TableSet`` per
(variant, h), and shared across instances and runs.
Costs use int32 when the instance's total-length upper bound allows it.
Both modes keep one cost row, which each event writes its new row over
once every candidate has read the old one. Trace mode also keeps, for path
reconstruction, one bit per candidate transition of every event, set when
the candidate's cost equals the new row's cost at its destination: a
survivor decision of the kind a Viterbi decoder keeps (Viterbi, IEEE
Trans. IT 1967). Reconstruction walks back from the optimum through the
smallest (source, multiplicity) pair whose bit is set, which is the pair
the tie order asks for. Most steps need no search of the table: when the
state's own bit is set, no moving row into it comes from a smaller source
(the table's ``lower`` bits, one per state) and it is not a state with a
labeled row at an event that departs a terminal, where its open row could
come from one, its own transition is that pair. An event's bits, its
states' own transitions in state order and then the table rows it takes
in row order, are packed into a whole number of bytes of an array of its
own; the bits and their arrays take at most MAX_TRACE_BYTES over all
events.

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
from .geometry import EdgeEvent, EdgeSchedule, HananGrid, edge_schedule
from .states import EVEN, MAX_LABEL, ODD, count_states, enumerate_states, pack_states
from .states import relabel_rows, render_row, set_label, unpack_states

Kind = tuple  # ("V", r) or ("H", r), r the 1-based row
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


# Trace mode keeps one bit per transition candidate and event; a sweep
# whose bits and their arrays could take more bytes than this is refused
# before enumerating states.
MAX_TRACE_BYTES = 4 << 30
# An event's bits are an ndarray of their own in a list, which takes
# 158-165 bytes besides the bits: sys.getsizeof less nbytes is 112, the
# list slot 8, and the allocators' headers and rounding the rest.
_BLOCK_BYTES = 176
# A warm rolling sweep takes 6-9 ns per state and event; a sweep of more
# state-events than this (60-90 s) is refused before enumerating states.
MAX_STATE_EVENTS = 10**10
# An event also costs 10-18 us whatever its states, about this many
# state-events; the work guard counts it on top of the states.
_EVENT_COST = 2000

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
    transition as one row. One (src, dst) pair has at most one row, the
    one with the smallest multiplicity.

    The rows up to ``opens`` are the moving rows. An ("H", r) table's rows
    from ``opens`` on are its open rows: they send each state whose row r
    is empty to its opened state, in place of staying, at an event that
    departs a terminal. Each of the two segments is stored as runs of one
    multiplicity, in increasing multiplicity, each run sorted by (dst,
    src); ``runs`` holds every run's (start, end, multiplicity) in row
    order."""

    keep: np.ndarray  # int8 per state: the multiplicity to itself
    src: np.ndarray  # int32 source state index
    dst: np.ndarray  # int32 destination state index, src != dst
    runs: tuple[tuple[int, int, int], ...]  # (start, end, edges the segment gets)
    opens: int  # the first open row; len(src) for a V table
    # one bit per state, packed into uint8: whether a moving row from a
    # smaller source enters it
    lower: np.ndarray


def _lower(src: np.ndarray, dst: np.ndarray, opens: int, n: int) -> np.ndarray:
    """``KindTable.lower`` of a table's rows over n states."""
    lower = np.zeros(n, dtype=bool)
    lower[dst[:opens][src[:opens] < dst[:opens]]] = True
    return np.packbits(lower)


def _runs(mult: np.ndarray, start: int) -> tuple[tuple[int, int, int], ...]:
    """The (start, end, multiplicity) runs of ascending multiplicities
    whose first row is row ``start``."""
    cuts = [0, *(np.flatnonzero(np.diff(mult)) + 1).tolist(), len(mult)]
    return tuple(
        (start + a, start + b, int(mult[a])) for a, b in zip(cuts, cuts[1:]) if a < b
    )


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
        """The table one row up: a row s -> d becomes rho[s] -> rho[d], in
        the run it was in."""
        rho = self.rotation()
        src, dst = rho[table.src], rho[table.dst]
        # one int64 key per (dst, src) pair, unique within a run, which
        # N**2 times the run's number puts after the runs before it; a
        # stable sort takes the stretches that rho keeps in order at a
        # fraction of lexsort's time
        n = len(rho)
        key = dst.astype(np.int64) * n + src
        for k, (a, b, _) in enumerate(table.runs):
            key[a:b] += k * n * n
        order = np.argsort(key, kind="stable")
        keep = np.empty_like(table.keep)
        keep[rho] = table.keep
        src, dst = src[order], dst[order]
        lower = _lower(src, dst, table.opens, n)
        return KindTable(keep, src, dst, table.runs, table.opens, lower)

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
        src, dst, mult = src[rows], dst[rows], mult[rows]
        # runs of one multiplicity, each still sorted by (dst, src)
        order = np.argsort(mult, kind="stable")
        src, dst, runs = src[order], dst[order], _runs(mult[order], 0)
        opens = len(src)
        if kind[0] == "H":
            # each state whose row is empty to its opened state, at the
            # multiplicity the opened state keeps itself at
            comp_mat, parity_mat = space.comp_mat, space.parity_mat
            r = kind[1] - 1
            empty = np.flatnonzero(comp_mat[:, r] == 0).astype(np.int32)
            comp = set_label(comp_mat[empty], r, comp_mat.shape[1] + 1)
            parity = None
            if parity_mat is not None:
                parity = parity_mat[empty]
                parity[:, r] = EVEN
            opened = self._find(empty, comp, parity, _EMITTED + str(kind))
            # one state opens into each opened state
            order = np.lexsort((opened, keep[opened]))
            empty, opened = empty[order], opened[order]
            src, dst = np.concatenate((src, empty)), np.concatenate((dst, opened))
            runs += _runs(keep[opened], opens)
        lower = _lower(src, dst, opens, len(keep))
        return KindTable(keep, src, dst, runs, opens, lower)

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
    final_layer: np.ndarray  # the last layer's cost per state, inf if unreached
    # trace mode: each event's tight bits, packed into uint8
    layers: list[np.ndarray] | None
    events: EdgeSchedule
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
    h, v = grid.h, grid.v
    dtype = _cost_dtype(grid, mult_max)
    # 0-d arrays, which a ufunc call takes faster than numpy scalars; a
    # length of the cost dtype makes the int8 multiplicities' products
    # that dtype, and an unreached source gives at most inf + the cost
    # bound of _cost_dtype, inside it
    inf = np.array(2**30 if dtype is np.int32 else 2**62, dtype=dtype)
    barred = inf + dtype(1)
    scales: dict[int, tuple] = {}

    def scaled(x: int) -> tuple:
        """m times the length x for m = 0..mult_max, as 0-d arrays."""
        if x not in scales:
            scales[x] = tuple(np.array(m * x, dtype) for m in range(mult_max + 1))
        return scales[x]

    # the schedule column by column, in edge_schedule's order: rows 1..h-1's
    # verticals, then rows 1..h's horizontals to the next column. One tuple
    # per kind and one tuple of 0-d arrays per length, shared by every event
    # that has it, so that a long sweep keeps a pointer per event.
    column = [("V", i) for i in range(1, h)] + [("H", i) for i in range(1, h + 1)]
    kinds = column * (v - 1) + column[: h - 1]
    rises = [scaled(grid.ys[i] - grid.ys[i - 1]) for i in range(1, h)]
    departs: list[bool] = []
    lengths: list[tuple] = []
    for j, terminals in enumerate(zip(*grid.terminal)):
        departs += [False] * (h - 1)
        lengths += rises
        if j < v - 1:
            departs += terminals
            lengths += [scaled(grid.xs[j + 1] - grid.xs[j])] * h

    # An event's candidates are every state's transition to itself, then
    # the table's rows up to ``opens`` or, at an event that departs a
    # terminal, all of them. The cost row leads a buffer whose rest takes
    # the moving candidates' costs, so that one compare finds the reached
    # states and sources. The own candidates have a buffer of their own,
    # and the new row's cost at each moving candidate's destination takes
    # a buffer of its own too. The views into these buffers are made once
    # per (kind, departs) pair. One bool buffer takes the reached states
    # and then, once they are counted, the bits.
    steps = {key: tableset.get(key[0]) for key in dict.fromkeys(zip(kinds, departs))}
    width = n + max((len(table.src) for table in steps.values()), default=0)
    row, below = np.empty(width, dtype), np.empty(width, bool)
    own, gathered = np.empty(n, dtype), np.empty(width - n, dtype)
    # np.minimum clamps against a full-length operand at twice the pace of
    # a 0-d one
    inf_row = np.full(n, inf)
    for key, table in steps.items():
        taken = len(table.src) if key[1] else table.opens
        mid, end = n + table.opens, n + taken
        # the sources that open in place of staying, at an event that
        # departs a terminal
        opened = table.src[table.opens :] if key[1] else None
        # a table whose keep is all zero, as every V table's is, leaves
        # each state's own candidate at its cost: no dense pass, unless
        # the event bars opened states
        keep = table.keep if opened is not None or table.keep.any() else None
        # each taken run of a nonzero multiplicity m adds m times the length
        # to its candidates' costs; a moving run of m = 0, as every H
        # table's is, adds nothing
        adds = tuple((row[n + a : n + b], m) for a, b, m in table.runs if m and a < taken)
        steps[key] = (
            keep, table.src[:taken], table.dst[:taken], adds, opened,
            row[n:end], gathered[:taken], row[:mid], below[:mid],
            below[:n], below[n:end], below[:end],
        )

    layers = [] if trace else None
    cost = row[:n]
    cost.fill(inf)
    cost[0] = 0  # the all-empty state: key 0, the smallest
    max_states = 1
    expansions = 0
    for key, length in zip(zip(kinds, departs), lengths):
        (keep, src, dst, adds, opened, moved, wt, counted, reached, stays,
         row_bits, bits) = steps[key]
        # every moving candidate reads the old row before any cost of the
        # new one is written over it; "clip" clips no valid index and,
        # unlike "raise", fills out unbuffered
        cost.take(src, out=moved, mode="clip")
        for part, m in adds:
            part += length[m]
        # a state was reached when its cost is below inf, and then so is
        # its own candidate; each expands once, to itself or to its opened
        # state, and once more per moving row of the table whose source was
        # reached
        np.less(counted, inf, out=reached)
        expansions += np.count_nonzero(reached)
        if opened is not None:
            # every state keeps a transition to itself, so only an event
            # that bars opened states can leave fewer states reached than
            # the layer before it: the largest layer is one just before
            # such an event, or the last
            max_states = max(max_states, np.count_nonzero(stays))
        if keep is not None:
            np.multiply(keep, length[1], out=own)
            own += cost
            if opened is not None:
                # every state whose row is empty opens instead of staying:
                # its own candidate is above inf, so neither kept nor tight
                own[opened] = barred
            np.minimum(own, inf_row, out=cost)  # an unreached state stays inf
        elif trace:
            np.copyto(own, cost)  # the own candidates, for their bits
        # one intp copy serves the scatter and the gather, which would each
        # convert int32 indices, the scatter at a slower pace
        dst = dst.astype(np.intp)
        np.minimum.at(cost, dst, moved)
        if trace:
            # a candidate is tight when its cost is the new row's cost at
            # its destination
            np.equal(own, cost, out=stays)
            cost.take(dst, out=wt, mode="clip")
            np.equal(moved, wt, out=row_bits)
            layers.append(np.packbits(bits))

    finite = cost < inf
    max_states = max(max_states, np.count_nonzero(finite))
    candidates = np.flatnonzero(accept_mask & finite)
    if candidates.size == 0:
        raise InternalInfeasibleError("no accepted state on the final layer")
    best = candidates[int(np.argmin(cost[candidates]))]
    stats = SweepStats(
        layer_count=len(kinds) + 1,
        max_layer_states=int(max_states),  # count_nonzero gives numpy ints
        total_expansions=int(expansions),
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return VectorResult(
        cost=int(cost[best]),
        final_index=int(best),
        final_layer=cost,
        layers=layers,
        events=edge_schedule(grid),
        kinds=kinds,
        departs=departs,
        stats=stats,
    )


def _reader(table: KindTable, n: int) -> tuple:
    """What reconstruction reads of a table: ``lower``, ``keep``, and for
    the moving runs and then the open runs each run's destinations,
    sources, first bit and multiplicity."""
    moving, opening = [], []
    for a, b, m in table.runs:
        part = moving if a < table.opens else opening
        part.append((table.dst[a:b], table.src[a:b], n + a, m))
    return table.lower, table.keep, moving, moving + opening


def reconstruct_vector(
    result: VectorResult, tableset: TableSet
) -> list[tuple[EdgeEvent, int]]:
    """Backward pass over the tight bits, resolving each step to the
    smallest (source, multiplicity) pair whose transition was tight."""
    if result.layers is None:
        raise InternalInfeasibleError("reconstruction requires trace mode")
    n = len(tableset.space.keys)
    comp_mat = tableset.space.comp_mat
    readers: dict[Kind, tuple] = {}
    moves: list[tuple[EdgeEvent, int]] = []
    idx = result.final_index
    steps = zip(
        range(len(result.kinds), 0, -1),
        reversed(result.kinds), reversed(result.departs), reversed(result.layers),
    )
    for l, kind, departs, bits in steps:
        reader = readers.get(kind)
        if reader is None:
            reader = readers[kind] = _reader(tableset.get(kind), n)
        lower, keep, moving, every = reader
        # only a state with a labeled row can have been opened
        opening = departs and comp_mat.item(idx, kind[1] - 1)
        # the event's bits: every state's transition to itself, then the
        # table's rows; np.packbits puts bit j at 7 - j % 8 of byte j // 8,
        # counted from the low end, as it does ``lower``'s. item(), unlike a
        # memoryview, leaves no buffer record on the array.
        byte, shift = idx >> 3, ~idx & 7
        tight = bits.item(byte) >> shift & 1
        if tight and not opening and not lower.item(byte) >> shift & 1:
            # no row taken into the state has a smaller source than the
            # state itself, so its own tight transition comes first in tie
            # order
            m = keep.item(idx)
        else:
            found = [(idx, keep.item(idx))] if tight else []
            # int32 keys, as int64 ones would make searchsorted cast all of dst
            keys = np.array((idx, idx + 1), dtype=np.int32)
            for dst, src, first, m in every if opening else moving:
                a, b = dst.searchsorted(keys).tolist()
                j = first + a
                # a run's rows into the state are in source order, so its
                # first tight one is its smallest
                for s in src[a:b].tolist():
                    if bits.item(j >> 3) >> (~j & 7) & 1:
                        found.append((s, m))
                        break
                    j += 1
            if not found:
                raise InternalInfeasibleError(f"broken cost chain at layer {l}")
            idx, m = min(found)  # tie order
        if m:
            moves.append((result.events[l - 1], m))
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
    if events * (states + _EVENT_COST) > MAX_STATE_EVENTS:
        raise GuardExceeded(
            f"{variant.name} sweep of {events} events at h={h} is above the "
            f"limit of {MAX_STATE_EVENTS} state-events "
            f"(events x (states + {_EVENT_COST}))"
        )
    if trace:
        # one bit per candidate: a state's own transition, at most mult_max
        # moving rows and at most one open row out of it
        bits = events * -(-(2 + variant.mult_max) * states // 8)
        trace_bytes = bits + events * _BLOCK_BYTES
        if trace_bytes > MAX_TRACE_BYTES:
            raise GuardExceeded(
                f"trace of {events} events of {states} states needs up to "
                f"{bits} bytes of bits, {trace_bytes} bytes with their arrays, "
                f"above the limit of {MAX_TRACE_BYTES}"
            )
    tableset = get_tableset(variant, h)
    mask = accept_mask(tableset.space, grid.terminal_rows_last_col())
    res = run_vector_sweep(grid, tableset, mask, variant.mult_max, trace=trace)
    moves = reconstruct_vector(res, tableset) if trace else None
    return res, moves
