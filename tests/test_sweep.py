from collections import defaultdict

import numpy as np
import pytest

from rectisolve import steiner, tsp
from rectisolve.errors import InternalInfeasibleError
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

from reference_states import encode_state, initial_tsp_state, states_from_matrices
from reference_sweep import (
    reconstruct,
    reference_table,
    replay,
    run_sweep,
    steiner_kernel,
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


def test_empty_transition_raises():
    grid = build_grid(make_instance([(0, 0), (1, 1)]))
    with pytest.raises(InternalInfeasibleError):
        run_sweep(grid, initial_tsp_state(2), lambda s, e, g: [], lambda s: True)


def test_nothing_accepted_raises():
    grid = build_grid(make_instance([(0, 0), (1, 1)]))
    with pytest.raises(InternalInfeasibleError):
        run_sweep(grid, initial_tsp_state(2), identity_transition, lambda s: False)


def kinds(h):
    return [("V", i) for i in range(1, h)] + [
        ("H", i, terminal) for i in range(1, h + 1) for terminal in (False, True)
    ]


TABLE_CASES = [("tsp", h) for h in range(1, 7)] + [("steiner", h) for h in range(1, 9)]


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
        want = reference_table(space, reference_kernel, kind)
        for field, dtype in (("src", np.int32), ("dst", np.int32), ("mult", np.int8)):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype == dtype, (kind, field)
            assert np.array_equal(a, b), (kind, field)


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


def fake_tableset(rows_by_kind):
    """A TableSet over the five tree states at h=2, (0,0) (1,0) (0,1) (1,1)
    (1,2) in index order, whose kernel emits the given (src, dst, mult)
    rows for a kind."""
    space = get_space("steiner", 2)

    def kernel(space, kind):
        src, dst, mult = np.array(rows_by_kind[kind]).T
        return src, space.comp_mat[dst], None, mult.astype(np.int8)

    return TableSet(space, kernel)


def test_reconstruction_breaks_ties_by_source_then_multiplicity():
    inf = 2**30
    tableset = fake_tableset({
        "spread": [(0, 1, 2), (0, 2, 1)],
        # both reach state 3 at cost 10: source 1 by m=0, source 2 by m=1
        "join": [(2, 3, 1), (1, 3, 0)],
        # at zero length every multiplicity out of source 1 costs the same
        "double": [(1, 3, 2), (2, 3, 0), (1, 3, 1)],
    })
    assert np.array_equal(tableset.get("join").src, [1, 2])
    spread, join = EdgeEvent("V", 1, 1, 5), EdgeEvent("V", 1, 2, 5)
    layers = [
        np.array([0, inf, inf, inf, inf]),
        np.array([inf, 10, 5, inf, inf]),
        np.array([inf, inf, inf, 10, inf]),
    ]
    result = VectorResult(10, 3, layers, [spread, join], ["spread", "join"], None)
    # source 1 wins: its path doubles the spread and skips the join
    assert reconstruct_vector(result, tableset) == [(spread, 2)]

    double = EdgeEvent("V", 1, 1, 0)
    layers = [np.array([inf, 4, 4, inf, inf]), np.array([inf, inf, inf, 4, inf])]
    result = VectorResult(4, 3, layers, [double], ["double"], None)
    assert reconstruct_vector(result, tableset) == [(double, 1)]


@pytest.mark.parametrize(
    "x, dtype, inf",
    [(3, np.int32, 2**30), (2**28, np.int64, 2**62)],
    ids=["int32", "int64"],
)
def test_unreached_sources_leave_exactly_inf(x, dtype, inf):
    # state 4 is reached only from itself, which is never reached: its cost
    # is min(inf, inf + 2 * length) at every event, with no clamp after it
    rows = [(0, 0, 0), (0, 1, 1), (1, 1, 0), (4, 4, 2)]
    tableset = fake_tableset(defaultdict(lambda: rows))  # the same for every kind
    grid = build_grid(make_instance([(0, 0), (x, 1)]))
    accept = np.array([False, True, False, False, False])
    res = run_vector_sweep(grid, tableset, accept, mult_max=2)
    assert res.cost == 1  # the first vertical segment, once
    assert len(res.layers) == 5
    for layer in res.layers:
        assert layer.dtype == dtype
        assert layer[4] == inf


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


SOLVERS = {"tsp": (tsp, solve_tsp), "steiner": (steiner, solve_steiner)}
SWITCH_BASE = gen_instance(8, 4, 40, 16, 3)  # total segment length 204


@pytest.mark.parametrize(
    "problem, mult_max, k_last_int32",
    [("tsp", 2, 1315860), ("steiner", 1, 2631720)],
)
def test_cost_dtype_switch(problem, mult_max, k_last_int32):
    # run_vector_sweep keeps costs in int32 while mult_max times the total
    # segment length stays below 2**29, and in int64 past it; the optimum
    # scales with the instance on both sides of the switch
    module, solve = SOLVERS[problem]
    base = solve(SWITCH_BASE).length
    for k in (k_last_int32, k_last_int32 + 1):
        inst = make_instance([(k * p.x, k * p.y) for p in SWITCH_BASE.points])
        grid = build_grid(inst)
        bound = mult_max * sum(ev.length for ev in edge_schedule(grid))
        assert (bound < 2**29) == (k == k_last_int32)
        tableset = get_tableset(problem, grid.h, module._kernel)
        mask = module._accept_mask(tableset.space, grid.terminal_rows_last_col())
        res = run_vector_sweep(grid, tableset, mask, mult_max)
        want = np.int32 if k == k_last_int32 else np.int64
        assert all(layer.dtype == want for layer in res.layers)
        assert res.cost == k * base
        assert solve(inst).length == k * base
    # the int64 instance moved out to the coordinate limit in x and in -y
    dx = COORD_LIMIT - max(p.x for p in inst.points)
    dy = -COORD_LIMIT - min(p.y for p in inst.points)
    moved = make_instance([(p.x + dx, p.y + dy) for p in inst.points])
    assert max(p.x for p in moved.points) == COORD_LIMIT
    assert min(p.y for p in moved.points) == -COORD_LIMIT
    assert solve(moved).length == k * base
