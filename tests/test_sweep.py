import bisect
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rectisolve import steiner, tables, tsp
from rectisolve.errors import GuardExceeded, InternalInfeasibleError
from rectisolve.generate import gen_instance
from rectisolve.geometry import (
    COORD_LIMIT,
    EdgeEvent,
    build_grid,
    edge_schedule,
    make_instance,
)
from rectisolve.states import count_states
from rectisolve.steiner import solve_steiner
from rectisolve.tables import (
    TableSet,
    VectorResult,
    get_space,
    get_tableset,
    reconstruct_vector,
    run_vector_sweep,
)
from rectisolve.tsp import solve_tsp

from reference_states import (
    encode_state,
    initial_steiner_state,
    initial_tsp_state,
    states_from_matrices,
)
from reference_sweep import (
    reconstruct,
    reference_table,
    replay,
    run_sweep,
    steiner_accept,
    steiner_kernel,
    steiner_transition,
    tsp_accept,
    tsp_kernel,
    tsp_transition,
)


def identity_transition(state, event, grid):
    return [(state, 0, 0)]


def test_identity_sweep():
    grid = build_grid(make_instance([(0, 0), (3, 2), (5, 1)]))
    initial = initial_tsp_state(grid.h)
    res = run_sweep(grid, initial, identity_transition, lambda s: True)
    assert res.cost == 0
    assert res.final_state == initial
    assert res.stats.max_layer_states == 1
    assert res.stats.layer_count == len(res.trace.layers)


def test_two_point_line():
    grid = build_grid(make_instance([(0, 0), (4, 0)]))
    res = run_sweep(
        grid, initial_tsp_state(1), tsp_transition,
        lambda s: s.comp == (1,) and s.parity[0] == 2,
    )
    assert res.cost == 8
    moves = reconstruct(res.trace, res.final_key)
    assert moves == [(EdgeEvent("H", 1, 1, 4), 2)]


def test_rolling_equals_trace():
    for seed in range(5):
        inst = gen_instance(10, 3, 40, 12, seed)
        grid = build_grid(inst)
        accept = lambda s: max(s.comp) == 1 and all(p != 1 for p in s.parity)
        full = run_sweep(grid, initial_tsp_state(grid.h), tsp_transition, accept)
        rolling = run_sweep(
            grid, initial_tsp_state(grid.h), tsp_transition, accept, trace=False
        )
        assert full.cost == rolling.cost
        assert rolling.trace is None


def test_layer_bound_h5():
    inst = gen_instance(20, 5, 80, 20, 3)
    grid = build_grid(inst)
    assert grid.h == 5
    res = run_sweep(grid, initial_tsp_state(5), tsp_transition, lambda s: True)
    assert res.stats.max_layer_states <= 568
    for layer in res.trace.layers:
        assert len(layer) <= count_states(5, "tsp")


def test_reconstruct_replays_to_final_state():
    inst = gen_instance(8, 3, 30, 9, 9)
    grid = build_grid(inst)
    accept = lambda s: max(s.comp) == 1 and all(p != 1 for p in s.parity)
    res = run_sweep(grid, initial_tsp_state(grid.h), tsp_transition, accept)
    moves = reconstruct(res.trace, res.final_key)
    assert sum(m * e.length for e, m in moves) == res.cost
    state, cost = replay(grid, initial_tsp_state(grid.h), tsp_transition, moves)
    assert cost == res.cost
    assert state == res.final_state


def test_trace_byte_guard_refuses_at_once():
    # tsp h=9 over 1000 columns: 16 991 events of up to 275 808 bytes each,
    # inside the work guard
    inst = gen_instance(1000, 9, 4000, 36, 1)
    t0 = time.perf_counter()
    with pytest.raises(GuardExceeded, match="4686253728 bytes"):
        solve_tsp(inst, trace=True)
    assert time.perf_counter() - t0 < 1.0


BOUND_CASES = [(tsp.TSP, h) for h in range(1, 8)] + [
    (steiner.STEINER, h) for h in range(1, 10)
]


@pytest.mark.parametrize("variant, h", BOUND_CASES, ids=lambda x: getattr(x, "name", x))
def test_trace_byte_estimate_bounds_every_event(variant, h):
    # the guard counts per state one bit for its own transition, mult_max
    # for moving rows and one for an open row: no state has more moving
    # rows out of it than that in any table, nor more than one open row
    tableset = get_tableset(variant, h)
    n = len(tableset.space.keys)
    for kind in kinds(h):
        table = tableset.get(kind)
        rows_out = np.bincount(table.src[: table.opens], minlength=n)
        assert rows_out.max() <= variant.mult_max, kind
        opened = table.src[table.opens :]
        assert len(np.unique(opened)) == len(opened) <= n, kind
    inst = gen_instance(3 * h, h, 12 * h, 4 * h, h)
    grid = build_grid(inst)
    res, _ = tables.solve_grid(variant, grid, trace=True)
    assert len(res.layers) == len(res.events)
    for block in res.layers:
        assert block.dtype == np.uint8
        assert block.nbytes <= -(-(2 + variant.mult_max) * n // 8)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
def test_traced_tour_at_benchmark_scale_stays_small(tmp_path):
    # one traced tsp n=200 h=7 solve, in a process of its own; its peak
    # resident set is VmHWM, not ru_maxrss, which exec keeps from the
    # process that started it. The solve takes about 50 MiB; storing every
    # cost layer would take about 205 MiB.
    code = (
        "from rectisolve import gen_instance, solve_tsp\n"
        "sol = solve_tsp(gen_instance(200, 7, 800, 28, 1), trace=True)\n"
        "assert sol.tour is not None\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(line for line in fh if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(tables.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120, check=True,
    )
    _, peak, unit = out.stdout.split()
    assert unit == "kB" and int(peak) < 128 * 1024


def test_trace_byte_guard_spares_rolling_mode(monkeypatch):
    inst = gen_instance(8, 3, 32, 12, 2)
    want = solve_steiner(inst, trace=True).length
    monkeypatch.setattr(tables, "MAX_TRACE_BYTES", 0)
    with pytest.raises(GuardExceeded):
        solve_steiner(inst, trace=True)
    assert solve_steiner(inst, trace=False).length == want


def test_trace_byte_guard_counts_each_events_array(monkeypatch):
    # tsp h=2 over 300 columns: 898 events of 3 bytes of bits each, and an
    # ndarray and a list slot for each, which take far more than the bits
    inst = gen_instance(300, 2, 1200, 8, 1)
    res, _ = tables.solve_grid(tsp.TSP, build_grid(inst), trace=True)
    block = res.layers[0]
    assert sys.getsizeof(block) - block.nbytes + 8 <= tables._BLOCK_BYTES

    def no_space(problem, h):
        raise AssertionError("the state space was enumerated")

    monkeypatch.setattr(tables, "MAX_TRACE_BYTES", 898 * 100)
    monkeypatch.setattr(tables, "_TABLES", {})  # no cached tables to hide a call
    monkeypatch.setattr(tables, "get_space", no_space)
    with pytest.raises(GuardExceeded, match="needs up to 2694 bytes of bits"):
        solve_tsp(inst, trace=True)


def test_empty_transition_raises():
    grid = build_grid(make_instance([(0, 0), (1, 1)]))
    with pytest.raises(InternalInfeasibleError):
        run_sweep(grid, initial_tsp_state(2), lambda s, e, g: [], lambda s: True)


def test_nothing_accepted_raises():
    grid = build_grid(make_instance([(0, 0), (1, 1)]))
    with pytest.raises(InternalInfeasibleError):
        run_sweep(grid, initial_tsp_state(2), identity_transition, lambda s: False)


def kinds(h):
    return [("V", i) for i in range(1, h)] + [("H", i) for i in range(1, h + 1)]


TABLE_CASES = [("tsp", h) for h in range(1, 7)] + [("steiner", h) for h in range(1, 9)]


def row_mults(table):
    """Each row's multiplicity, as an int8 array read from the table's runs."""
    mult = np.zeros(len(table.src), dtype=np.int8)
    for a, b, m in table.runs:
        mult[a:b] = m
    return mult


def assert_runs(table, kind):
    """The runs cover the rows in order, split at ``opens``; each segment's
    runs rise in multiplicity, and each run is sorted by (dst, src)."""
    starts = [a for a, _, _ in table.runs]
    ends = [b for _, b, _ in table.runs]
    assert starts == [0] + ends[:-1] and ends[-1:] in ([], [len(table.src)]), kind
    assert table.opens in [0, len(table.src), *starts], kind
    for segment in ((0, table.opens), (table.opens, len(table.src))):
        mults = [m for a, _, m in table.runs if segment[0] <= a < segment[1]]
        assert mults == sorted(set(mults)), kind
    for a, b, _ in table.runs:
        key = table.dst[a:b].astype(np.int64) * len(table.keep) + table.src[a:b]
        assert (np.diff(key) > 0).all(), kind


def expand_rows(table, departs=False):
    """A split table as plain rows, each state's row to itself included,
    sorted by (dst, src, mult). Its open rows are left out, or, as at an
    event that departs a terminal, replace their sources' rows to
    themselves."""
    own = np.arange(len(table.keep), dtype=np.int32)
    end = len(table.src) if departs else table.opens
    if departs:
        own = np.setdiff1d(own, table.src[table.opens :]).astype(np.int32)
    parts = [(table.src[:end], table.dst[:end], row_mults(table)[:end])]
    parts.append((own, own, table.keep[own]))
    src, dst, mult = (np.concatenate(arrays) for arrays in zip(*parts))
    order = np.lexsort((mult, src, dst))
    return src[order], dst[order], mult[order]


def assert_rows_match_reference(got, space, reference_kernel, kind):
    src, dst, mult = reference_table(space, reference_kernel, kind)
    # a repeated (src, dst) pair keeps only its first, smallest-mult row
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    want = (src[first], dst[first], mult[first])
    names, dtypes = ("src", "dst", "mult"), (np.int32, np.int32, np.int8)
    for name, a, b, dtype in zip(names, got, want, dtypes):
        assert a.dtype == b.dtype == dtype, (kind, name)
        assert np.array_equal(a, b), (kind, name)


@pytest.mark.parametrize("problem, h", TABLE_CASES)
def test_tables_match_reference_builder(problem, h):
    space = get_space(problem, h)
    states = states_from_matrices(space.comp_mat, space.parity_mat)
    keys = [encode_state(s) for s in states]
    assert keys == sorted(set(keys))  # index order is encode_state order
    kernel, reference_kernel = {
        "tsp": (tsp._kernel, tsp_kernel),
        "steiner": (steiner._kernel, steiner_kernel),
    }[problem]
    tableset = TableSet(space, kernel)
    for kind in kinds(h):
        got = tableset.get(kind)
        assert got.keep.dtype == np.int8 and len(got.keep) == len(keys), kind
        assert not (got.src == got.dst).any(), kind
        assert_runs(got, kind)
        # the reference builder's H kinds carry the departing vertex's
        # terminal flag; the package's table up to its open rows is the
        # non-terminal one, and with them the terminal one
        plain = kind if kind[0] == "V" else kind + (False,)
        assert_rows_match_reference(expand_rows(got), space, reference_kernel, plain)
        if kind[0] == "V":
            assert got.opens == len(got.src), kind
            continue
        row = kind[1]
        opened = slice(got.opens, None)
        # one run: an opened state keeps itself at the one multiplicity its
        # opened row has
        assert len(np.unique(row_mults(got)[opened])) <= 1, kind
        assert (np.diff(got.dst[opened]) > 0).all()
        assert np.array_equal(
            np.sort(got.src[opened]), np.flatnonzero(space.comp_mat[:, row - 1] == 0)
        )
        assert_rows_match_reference(
            expand_rows(got, departs=True), space, reference_kernel, ("H", row, True)
        )


def test_non_canonical_kernel_output_raises():
    def doubled_labels(space, kind):
        n = len(space.keys)
        return np.arange(n), 2 * space.comp_mat, space.parity_mat, np.zeros(n)

    tableset = TableSet(get_space("tsp", 3), doubled_labels)
    with pytest.raises(InternalInfeasibleError, match="non-canonical"):
        tableset.get(("V", 1))


def test_unchanged_candidates_do_not_hide_a_changed_one():
    # every candidate but one keeps its source's state, which the build
    # maps back to the source without a search; the one that changed must
    # still be looked up, and is not in the space
    space = get_space("tsp", 3)
    last = len(space.keys) - 1  # {(E,E,E),(1,2,3)}

    def one_doubled(space, kind):
        n = len(space.keys)
        comp = space.comp_mat.copy()
        comp[last] *= 2
        return np.arange(n), comp, space.parity_mat, np.zeros(n)

    shown = r"non-canonical state \{\(E,E,E\),\(2,4,6\)\}"
    with pytest.raises(InternalInfeasibleError, match=shown):
        TableSet(space, one_doubled).get(("V", 1))


KERNELS = {"tsp": tsp._kernel, "steiner": steiner._kernel}
ROTATION_CASES = [("tsp", h) for h in range(1, 8)] + [
    ("steiner", h) for h in range(1, 10)
]


@pytest.mark.parametrize("problem, h", ROTATION_CASES)
def test_rotation_is_a_permutation_of_order_h(problem, h):
    rho = TableSet(get_space(problem, h), KERNELS[problem]).rotation()
    assert rho.dtype == np.int32
    assert np.array_equal(np.sort(rho), np.arange(len(rho)))
    assert rho[0] == 0  # the all-empty state
    power = np.arange(len(rho))
    for _ in range(h):
        power = rho[power]
    assert np.array_equal(power, np.arange(len(rho)))


@pytest.mark.parametrize("problem, h", [("tsp", 7), ("steiner", 9)])
def test_derived_tables_match_kernel_builds(problem, h):
    # the benchmark's sizes; the kernel runs for row 1 alone, and every
    # other row's table, its open rows included, is derived from the row
    # below it
    space = get_space(problem, h)
    called = []

    def counted(space, kind):
        called.append(kind)
        return KERNELS[problem](space, kind)

    derived, direct = TableSet(space, counted), TableSet(space, KERNELS[problem])
    for kind in kinds(h):
        got, want = derived.get(kind), direct._build(kind)
        assert (got.opens, got.runs) == (want.opens, want.runs), kind
        for name in ("keep", "src", "dst", "lower"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (kind, name)
    assert called == [("V", 1), ("H", 1)]


ENTERED_CASES = [(problem, h) for problem in ("tsp", "steiner") for h in range(1, 7)]


@pytest.mark.parametrize("problem, h", ENTERED_CASES)
def test_entered_marks_the_destinations_of_the_open_rows(problem, h):
    # row 1's H table is kernel-built and every other row's is rotated
    tableset = TableSet(get_space(problem, h), KERNELS[problem])
    for kind in kinds(h):
        table = tableset.get(kind)
        marked = np.unpackbits(table.entered, count=len(table.keep))
        assert table.entered.dtype == np.uint8, kind
        want = np.unique(table.dst[table.opens :])
        assert np.array_equal(np.flatnonzero(marked), want), kind
        assert (kind[0] == "H") == (len(want) > 0), kind


def test_rotation_refuses_a_space_not_closed_under_it():
    # without (1,-,-), the rotation of (-,-,1) has nowhere to go
    space = get_space("steiner", 3)
    gone = 1
    assert space.comp_mat[gone].tolist() == [1, 0, 0]
    keys = np.delete(space.keys, gone)
    comp = np.delete(space.comp_mat, gone, axis=0)
    tableset = TableSet(tables.StateSpace(keys, None, comp), steiner._kernel)
    shown = r"rotation by one row gives state \(1,-,-\), which is not in the space"
    with pytest.raises(InternalInfeasibleError, match=shown):
        tableset.rotation()


def fake_tableset(rows_by_kind, opens=()):
    """A TableSet over the five tree states at h=2, (0,0) (1,0) (0,1) (1,1)
    (1,2) in index order, whose kernel emits the given (src, dst, mult)
    rows for a kind, plus a row with multiplicity 0 from each state that
    they leave without a row to itself, and the (src, dst, mult) rows
    ``opens`` as every table's open rows. Every kind's table is
    kernel-built, none derived by rotation."""
    space = get_space("steiner", 2)

    def kernel(space, kind):
        rows = np.array(rows_by_kind[kind], dtype=int).reshape(-1, 3)
        stays = rows[rows[:, 0] == rows[:, 1], 0]
        alone = np.setdiff1d(np.arange(len(space.keys)), stays)
        pad = np.stack([alone, alone, np.zeros_like(alone)], axis=1)
        src, dst, mult = np.concatenate([rows, pad]).T
        return src, space.comp_mat[dst], None, mult.astype(np.int8)

    tableset = TableSet(space, kernel)
    tail = np.array(opens, dtype=np.int32).reshape(-1, 3)
    tail = tail[np.lexsort((tail[:, 1], tail[:, 2]))]  # runs by (mult, dst)
    for kind in rows_by_kind:
        table = tableset._build(kind)
        cut = table.opens
        src = np.concatenate((table.src[:cut], tail[:, 0]))
        dst = np.concatenate((table.dst[:cut], tail[:, 1]))
        moving = tuple(run for run in table.runs if run[0] < cut)
        runs = moving + tables._runs(tail[:, 2], cut)
        tableset.tables[kind] = tables._table(table.keep, src, dst, runs, cut)
    return tableset


def tight_bits(layers, events, kinds, departs, tableset):
    """Each event's packed tight bits in a traced sweep whose cost layers
    are ``layers``. A candidate s -> d at multiplicity m
    is tight when layers[l - 1][s] + m * length == layers[l][d]; its bits
    are every state's transition to itself, then the table's rows up to
    its open rows or, at an event that departs a terminal, all of them,
    where a state whose row is empty has no transition to itself."""
    n = len(tableset.space.keys)
    own = np.arange(n)
    blocks = []
    for prev, cur, event, kind, opens in zip(layers, layers[1:], events, kinds, departs):
        prev, cur = np.asarray(prev, np.int64), np.asarray(cur, np.int64)
        table = tableset.get(kind)
        end = len(table.src) if opens else table.opens
        mult = row_mults(table)
        rows = [(own, own, table.keep), (table.src[:end], table.dst[:end], mult[:end])]
        flags = np.concatenate(
            [prev[s] + m.astype(np.int64) * event.length == cur[d] for s, d, m in rows]
        )
        if opens:
            flags[table.src[table.opens :]] = False
        blocks.append(np.packbits(flags))
    return blocks


def traced(tableset, cost, idx, layers, events, kinds, departs):
    """The result of a traced sweep whose cost layers are ``layers``."""
    bits = tight_bits(layers, events, kinds, departs, tableset)
    return VectorResult(
        cost, idx, np.asarray(layers[-1]), bits, events, kinds, departs, None
    )


def test_reconstruction_breaks_ties_by_source_then_multiplicity():
    inf = 2**30
    tableset = fake_tableset({
        "spread": [(0, 1, 2), (0, 2, 1)],
        # both reach state 3 at cost 10: source 1 by m=0, source 2 by m=1
        "join": [(2, 3, 1), (1, 3, 0)],
        # at zero length every multiplicity out of source 1 costs the same
        "double": [(1, 3, 2), (2, 3, 0), (1, 3, 1)],
        # state 2 is reached from source 1 with m=2, from itself with m=1
        # and from source 3 with m=0
        "meet": [(3, 2, 0), (2, 2, 1), (1, 2, 2)],
        # one moving pair and one pair of a state with itself, each twice
        "dup": [(0, 1, 2), (3, 3, 2), (0, 1, 1), (3, 3, 1)],
    })
    assert np.array_equal(tableset.get("join").src, [1, 2])
    dup = tableset.get("dup")  # each pair is stored once, with multiplicity 1
    assert (dup.src.tolist(), dup.dst.tolist(), dup.runs) == ([0], [1], ((0, 1, 1),))
    assert dup.keep.tolist() == [0, 0, 0, 1, 0]
    spread, join = EdgeEvent("V", 1, 1, 5), EdgeEvent("V", 1, 2, 5)
    layers = [
        np.array([0, inf, inf, inf, inf]),
        np.array([inf, 10, 5, inf, inf]),
        np.array([inf, inf, inf, 10, inf]),
    ]
    result = traced(
        tableset, 10, 3, layers, [spread, join], ["spread", "join"], [False, False]
    )
    # source 1 wins: its path doubles the spread and skips the join
    assert reconstruct_vector(result, tableset) == [(spread, 2)]

    double = EdgeEvent("V", 1, 1, 0)
    layers = [np.array([inf, 4, 4, inf, inf]), np.array([inf, inf, inf, 4, inf])]
    result = traced(tableset, 4, 3, layers, [double], ["double"], [False])
    assert reconstruct_vector(result, tableset) == [(double, 1)]

    meet = EdgeEvent("V", 1, 1, 5)
    after = np.array([inf, inf, 10, inf, inf])
    for before, want in (
        ([inf, 0, 5, 10, inf], [(meet, 2)]),  # all three cost 10: source 1 wins
        ([inf, inf, 5, 10, inf], [(meet, 1)]),  # state 2 itself wins over source 3
    ):
        result = traced(
            tableset, 10, 2, [np.array(before), after], [meet], ["meet"], [False]
        )
        assert reconstruct_vector(result, tableset) == want


def test_reconstruction_tries_the_open_row_in_source_order():
    # at an event that departs a terminal, state 0 opens into state 1 with
    # m=1 and has no row to itself; state 1 also keeps itself, and is
    # reached from source 2 with m=0
    inf = 2**30
    tableset = fake_tableset({("H", 1): [(2, 1, 0), (3, 0, 0), (0, 0, 1)]}, [(0, 1, 1)])
    depart = EdgeEvent("H", 1, 1, 2)
    for idx, before, after, want in (
        # all three rows into state 1 cost 5: the open row, from source 0, wins
        (1, [3, 5, 5, inf, inf], [inf, 5, 5, inf, inf], [(depart, 1)]),
        # state 0 staying with m=1 would cost 4 like source 3, and come
        # first, but the terminal forbids it
        (0, [2, inf, inf, 4, inf], [4, 4, inf, 4, inf], []),
    ):
        layers = [np.array(before), np.array(after)]
        result = traced(tableset, 5, idx, layers, [depart], [("H", 1)], [True])
        assert reconstruct_vector(result, tableset) == want


def test_own_tight_step_yields_to_a_tight_row_from_a_smaller_source():
    # state 2 keeps itself with m=1 and is entered from sources 1 and 3 with
    # m=0; reconstruction settles a step on the state's own bit alone only
    # when no moving row into it has a smaller source
    inf = 2**30
    tableset = fake_tableset({"enter": [(1, 2, 0), (3, 2, 0), (2, 2, 1)]})
    step = EdgeEvent("V", 1, 1, 2)
    after = np.array([inf, inf, 7, inf, inf])
    for before, want in (
        ([inf, 7, 5, 9, inf], []),  # own and source 1 both cost 7: source 1
        ([inf, 8, 5, 9, inf], [(step, 1)]),  # source 1 is not tight: own
    ):
        layers = [np.array(before), after]
        result = traced(tableset, 7, 2, layers, [step], ["enter"], [False])
        assert reconstruct_vector(result, tableset) == want
    lower = np.unpackbits(tableset.get("enter").lower, count=5)
    assert lower.tolist() == [0, 0, 1, 0, 0]


def test_departing_step_takes_the_open_row_into_a_labeled_state():
    # at an event that departs a terminal on row 1, state 2 (0,1) opens into
    # state 4 (1,2) at m=1, and state 4, whose row 1 is labeled, keeps itself
    # at m=0 with no moving row into it: both cost 5, and the open row's
    # smaller source wins although the own bit is set
    inf = 2**30
    tableset = fake_tableset({("H", 1): []}, [(2, 4, 1)])
    assert not tableset.get(("H", 1)).keep.any()
    depart = EdgeEvent("H", 1, 1, 2)
    layers = [np.array([inf, inf, 3, inf, 5]), np.array([inf, inf, inf, inf, 5])]
    result = traced(tableset, 5, 4, layers, [depart], [("H", 1)], [True])
    assert np.unpackbits(result.layers[0])[4]  # state 4's own transition is tight
    assert reconstruct_vector(result, tableset) == [(depart, 1)]


def test_departing_step_searches_only_into_an_open_destination(monkeypatch):
    # at an event that departs a terminal on row 1, state 2 (0,1) opens into
    # state 4 (1,2) at m=1, and state 3 (1,1), whose row 1 is labeled too,
    # keeps itself at m=0 and is entered by no row. State 3's step settles
    # on its own bit without a search; state 4's searches the open run.
    inf = 2**30
    tableset = fake_tableset({("H", 1): []}, [(2, 4, 1)])
    table = tableset.get(("H", 1))
    searched = []

    def spy(seq, x, lo, hi):
        searched.append((x, lo, hi))
        return bisect.bisect_left(seq, x, lo, hi)

    monkeypatch.setattr(tables, "bisect_left", spy)
    depart = EdgeEvent("H", 1, 1, 2)
    layers = [np.array([inf, inf, 3, 5, inf]), np.array([inf, inf, inf, 5, 5])]
    for idx, want, runs in ((3, [], []), (4, [(depart, 1)], [(4, table.opens, 1)])):
        searched.clear()
        result = traced(tableset, 5, idx, layers, [depart], [("H", 1)], [True])
        assert np.unpackbits(result.layers[0])[idx] == (idx == 3)
        assert reconstruct_vector(result, tableset) == want, idx
        assert searched == runs, idx


REFERENCE_SWEEPS = {
    "tsp": (tsp.TSP, initial_tsp_state, tsp_transition, tsp_accept),
    "steiner": (
        steiner.STEINER, initial_steiner_state, steiner_transition, steiner_accept
    ),
}


def reference_layers(variant, grid, tableset):
    """The reference dict sweep on a grid and its cost layers as arrays in
    state order, inf where a state is not reached."""
    initial, transition, accept = REFERENCE_SWEEPS[variant.name][1:]
    term_rows = grid.terminal_rows_last_col()
    want = run_sweep(grid, initial(grid.h), transition, lambda s: accept(s, term_rows))
    space = tableset.space
    keys = [encode_state(s) for s in states_from_matrices(space.comp_mat, space.parity_mat)]
    inf = 2**30 if tables._cost_dtype(grid, variant.mult_max) is np.int32 else 2**62
    layers = [[ref[k].cost if k in ref else inf for k in keys] for ref in want.trace.layers]
    return want, layers


@pytest.mark.parametrize("problem", ["tsp", "steiner"])
def test_layers_match_reference_sweep(problem):
    # every event's tight bits, own and moving candidates from one compare,
    # are those of the reference sweep's costs, layer by layer, and the
    # final row holds its last layer's costs; the last instance is the
    # small stream's size, n=80 h=5
    variant = REFERENCE_SWEEPS[problem][0]
    instances = [
        gen_instance(4 + seed, 2 + seed % 3, 60, 40, 700 + seed) for seed in range(6)
    ]
    opened = 0
    for inst in instances + [gen_instance(80, 5, 320, 20, 1)]:
        grid = build_grid(inst)
        got, _ = tables.solve_grid(variant, grid, trace=True)
        tableset = get_tableset(variant, grid.h)
        want, layers = reference_layers(variant, grid, tableset)
        assert len(layers) == len(got.events) + 1
        blocks = tight_bits(layers, got.events, got.kinds, got.departs, tableset)
        assert len(got.layers) == len(blocks)
        for e, (a, b) in enumerate(zip(got.layers, blocks)):
            assert a.dtype == np.uint8 and a.tolist() == b.tolist(), e
        n = len(tableset.space.keys)
        for block, kind, departs in zip(got.layers, got.kinds, got.departs):
            table = tableset.get(kind)
            if departs:
                bits = np.unpackbits(block, count=n + len(table.src))
                opened += np.count_nonzero(bits[n + table.opens :])
        # one tuple per kind, shared by its events, built column by column in
        # the order of edge_schedule
        assert len(set(map(id, got.kinds))) <= 2 * grid.h - 1
        events = list(edge_schedule(grid))
        assert got.kinds == [(ev.kind, ev.row) for ev in events]
        assert got.departs == [
            ev.kind == "H" and grid.is_terminal(ev.row, ev.col) for ev in events
        ]
        assert got.final_layer.tolist() == layers[-1]
        assert got.stats.max_layer_states == want.stats.max_layer_states
        assert type(got.stats.max_layer_states) is int  # JSON-serialisable
        assert type(got.stats.total_expansions) is int
        assert got.cost == want.cost
    assert opened  # some tight open rows, at events that depart a terminal


@pytest.mark.parametrize("problem", ["tsp", "steiner"])
def test_total_expansions_counts_reached_states_and_moving_rows(problem):
    # per event: each state reached in the previous layer expands once, to
    # itself or to its opened state, and each moving row whose source was
    # reached once more; the open rows are not counted on top
    variant = REFERENCE_SWEEPS[problem][0]
    for seed in range(4):
        inst = gen_instance(6 + seed, 2 + seed, 40, 16, 900 + seed)
        grid = build_grid(inst)
        res, _ = tables.solve_grid(variant, grid, trace=True)
        tableset = get_tableset(variant, grid.h)
        _, layers = reference_layers(variant, grid, tableset)
        want = 0
        for prev, kind in zip(layers, res.kinds):
            reached = np.array(prev) < (2**30 if res.final_layer.dtype == np.int32 else 2**62)
            table = tableset.get(kind)
            want += np.count_nonzero(reached)
            want += np.count_nonzero(reached[table.src[: table.opens]])
        assert any(res.departs) and res.stats.total_expansions == want


def test_build_refuses_a_kernel_that_drops_a_state():
    # every state keeps itself but the last, which a layer could lose
    def all_but_last(space, kind):
        n = len(space.keys) - 1
        return np.arange(n), space.comp_mat[:n], None, np.zeros(n, dtype=np.int8)

    tableset = TableSet(get_space("steiner", 2), all_but_last)
    shown = r"left state \(1,2\) without a transition to itself for kind \('V', 1\)"
    with pytest.raises(InternalInfeasibleError, match=shown):
        tableset.get(("V", 1))


ACCEPT_CASES = [("tsp", h) for h in range(1, 6)] + [("steiner", h) for h in range(1, 7)]


@pytest.mark.parametrize("problem, h", ACCEPT_CASES)
def test_one_acceptance_rule_for_both_problems(problem, h):
    # the tour rule asks for even parity on last-column terminal rows, the
    # tree rule for a label there: the same, as a tour row with no odd
    # parity is ZERO exactly when it has no label
    space = get_space(problem, h)
    states = states_from_matrices(space.comp_mat, space.parity_mat)
    accept = {"tsp": tsp_accept, "steiner": steiner_accept}[problem]
    for term_rows in itertools.product((False, True), repeat=h):
        want = [accept(s, term_rows) for s in states]
        assert tables.accept_mask(space, term_rows).tolist() == want, term_rows


def test_sweep_raises_when_no_final_state_is_accepted():
    grid = build_grid(make_instance([(0, 0), (3, 1)]))
    tableset = fake_tableset(dict.fromkeys(kinds(2), [(0, 0, 0), (0, 1, 1)]))
    with pytest.raises(InternalInfeasibleError, match="no accepted state"):
        run_vector_sweep(grid, tableset, np.zeros(5, dtype=bool), mult_max=2)


def test_reconstruction_raises_on_a_broken_cost_chain():
    grid = build_grid(make_instance([(0, 0), (3, 1)]))
    tableset = fake_tableset(dict.fromkeys(kinds(2), [(0, 0, 0), (0, 1, 1), (1, 1, 0)]))
    accept = np.array([False, True, False, False, False])
    result = run_vector_sweep(grid, tableset, accept, mult_max=2)
    # state 1 is first reached at layer 1, and the tie on the last event
    # goes to source 0
    assert reconstruct_vector(result, tableset) == [(result.events[-1], 1)]
    # no row into state 1 is tight at the last event any more
    table = tableset.get(result.kinds[3])
    into = [1] + [len(table.keep) + j for j in np.flatnonzero(table.dst == 1)]
    block = np.unpackbits(result.layers[3])
    assert block[into].any()
    block[into] = 0
    result.layers[3] = np.packbits(block)
    with pytest.raises(InternalInfeasibleError, match="broken cost chain at layer 4"):
        reconstruct_vector(result, tableset)


def test_no_candidate_reads_a_cost_written_in_its_own_event():
    # chained rows 0 -> 1 -> 2 on every kind; on the H kinds states 0, 1
    # and 2 also keep themselves at m=1, so the dense pass changes the
    # chain's sources. Each event's candidates must read the previous
    # layer: state 2 is two events away from state 0, never one.
    inf = 2**30
    chain = [(0, 1, 1), (1, 2, 1)]
    tableset = fake_tableset({
        ("V", 1): chain,
        ("H", 1): chain + [(0, 0, 1), (1, 1, 1), (2, 2, 1)],
        ("H", 2): chain + [(0, 0, 1), (1, 1, 1), (2, 2, 1)],
    })
    assert not tableset.get(("V", 1)).keep.any()
    grid = build_grid(make_instance([(0, 0), (3, 1)]))
    accept = np.array([False, False, True, False, False])
    result = run_vector_sweep(grid, tableset, accept, mult_max=2)
    # V 1, H 3 (departing a terminal, with no open rows), H 3, V 1
    assert [(ev.kind, ev.length) for ev in result.events] == [
        ("V", 1), ("H", 3), ("H", 3), ("V", 1)
    ]
    assert result.departs == [False, True, False, False]
    layers = [
        [0, inf, inf, inf, inf],
        [0, 1, inf, inf, inf],
        [3, 3, 4, inf, inf],
        [6, 6, 6, inf, inf],
        [6, 6, 6, inf, inf],
    ]
    want = tight_bits(layers, result.events, result.kinds, result.departs, tableset)
    assert [block.tolist() for block in result.layers] == [b.tolist() for b in want]
    assert result.final_layer.tolist() == layers[-1]
    assert (result.cost, result.final_index) == (6, 2)
    assert result.stats.max_layer_states == 3
    # reached states plus moving rows out of them: 1 + 1, 2 + 2, 3 + 2, 3 + 2
    assert result.stats.total_expansions == 16
    assert reconstruct_vector(result, tableset) == [
        (result.events[1], 1), (result.events[2], 1)
    ]


def test_a_departing_event_bars_its_opened_states_whatever_its_keep():
    # every table's keep is all zero, so no event needs a dense pass to
    # add own costs; the departing event must still stop state 0 staying,
    # and send it through its open row into state 1 at m=1
    inf = 2**30
    tableset = fake_tableset(dict.fromkeys(kinds(2), []), [(0, 1, 1)])
    assert not any(tableset.get(kind).keep.any() for kind in kinds(2))
    grid = build_grid(make_instance([(0, 0), (3, 1)]))
    accept = np.array([False, True, False, False, False])
    result = run_vector_sweep(grid, tableset, accept, mult_max=2)
    assert result.departs == [False, True, False, False]
    layers = [[0, inf, inf, inf, inf]] * 2 + [[inf, 3, inf, inf, inf]] * 3
    want = tight_bits(layers, result.events, result.kinds, result.departs, tableset)
    assert [block.tolist() for block in result.layers] == [b.tolist() for b in want]
    assert result.final_layer.tolist() == layers[-1]
    assert reconstruct_vector(result, tableset) == [(result.events[1], 1)]


@pytest.mark.parametrize(
    "x, dtype, inf",
    [(3, np.int32, 2**30), (2**28, np.int64, 2**62)],
    ids=["int32", "int64"],
)
def test_unreached_sources_leave_exactly_inf(x, dtype, inf):
    # state 4 is reached only from itself, which is never reached: its cost
    # is min(inf, inf + 2 * length) at every event, with no clamp after it
    rows = [(0, 0, 0), (0, 1, 1), (1, 1, 0), (4, 4, 2)]
    tableset = fake_tableset(dict.fromkeys(kinds(2), rows))  # the same for every kind
    grid = build_grid(make_instance([(0, 0), (x, 1)]))
    accept = np.array([False, True, False, False, False])
    res = run_vector_sweep(grid, tableset, accept, mult_max=2)
    assert res.cost == 1  # the first vertical segment, once
    assert res.stats.layer_count == 5
    assert res.final_layer.dtype == dtype
    assert res.final_layer[4] == inf


@pytest.mark.parametrize("h", [3, 4, 5])
def test_mirror_invariance(h):
    # x -> -x reverses the sweep direction, so closure, U-turn and pendant
    # pruning act on the other side of every component
    for seed in range(10):
        inst = gen_instance(8, h, 60, 4 * h, 500 + seed)
        grid = build_grid(inst)
        assert grid.h == h and not grid.transposed  # columns run along x
        mirrored = make_instance([(-p.x, p.y) for p in inst.points])
        assert solve_tsp(mirrored).length == solve_tsp(inst).length
        assert solve_steiner(mirrored).length == solve_steiner(inst).length


SOLVERS = {"tsp": (tsp.TSP, solve_tsp), "steiner": (steiner.STEINER, solve_steiner)}
SWITCH_BASE = gen_instance(8, 4, 40, 16, 3)  # total segment length 204


@pytest.mark.parametrize(
    "problem, mult_max, k_last_int32",
    [("tsp", 2, 1315860), ("steiner", 1, 2631720)],
)
def test_cost_dtype_switch(problem, mult_max, k_last_int32):
    # run_vector_sweep keeps costs in int32 while mult_max times the total
    # segment length stays below 2**29, and in int64 past it; the optimum
    # scales with the instance on both sides of the switch
    variant, solve = SOLVERS[problem]
    assert variant.mult_max == mult_max
    base = solve(SWITCH_BASE).length
    for k in (k_last_int32, k_last_int32 + 1):
        inst = make_instance([(k * p.x, k * p.y) for p in SWITCH_BASE.points])
        grid = build_grid(inst)
        bound = mult_max * sum(ev.length for ev in edge_schedule(grid))
        assert (bound < 2**29) == (k == k_last_int32)
        tableset = get_tableset(variant, grid.h)
        mask = tables.accept_mask(tableset.space, grid.terminal_rows_last_col())
        res = run_vector_sweep(grid, tableset, mask, mult_max)
        want = np.int32 if k == k_last_int32 else np.int64
        assert res.final_layer.dtype == want
        assert res.cost == k * base
        assert solve(inst).length == k * base
    # the int64 instance moved out to the coordinate limit in x and in -y
    dx = COORD_LIMIT - max(p.x for p in inst.points)
    dy = -COORD_LIMIT - min(p.y for p in inst.points)
    moved = make_instance([(p.x + dx, p.y + dy) for p in inst.points])
    assert max(p.x for p in moved.points) == COORD_LIMIT
    assert min(p.y for p in moved.points) == -COORD_LIMIT
    assert solve(moved).length == k * base
