import pytest

from rectisolve.errors import InternalInfeasibleError
from rectisolve.generate import gen_instance
from rectisolve.geometry import EdgeEvent, build_grid, make_instance
from rectisolve.states import TspFrontierState, count_states, initial_tsp_state
from rectisolve.tables import TableSet, get_space

from reference_sweep import reconstruct, replay, run_sweep, tsp_transition


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


def test_non_canonical_kernel_output_raises():
    def doubled_labels(state, kind):
        return [(TspFrontierState(state.parity, tuple(2 * c for c in state.comp)), 0)]

    tableset = TableSet(get_space("tsp", 3), doubled_labels)
    with pytest.raises(InternalInfeasibleError, match="non-canonical"):
        tableset.get(("V", 1))
