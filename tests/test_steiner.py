import random

from rectisolve.generate import gen_instance
from rectisolve.geometry import EdgeEvent, build_grid, make_instance
from rectisolve.steiner import solve_steiner
from rectisolve.tsp import solve_tsp

from reference_oracles import UnionFind, segment_points, steiner_oracle
from reference_states import (
    SteinerFrontierState,
    canonicalize_steiner,
    enumerate_tuple_states,
)
from reference_sweep import solve_steiner_reference, steiner_transition

GRID3 = build_grid(make_instance([(0, 0), (1, 1), (2, 2)]))


class TestTransitions:
    def test_cycle_is_pruned(self):
        s = SteinerFrontierState((1, 1, 0))
        out = steiner_transition(s, EdgeEvent("V", 1, 1, 1), GRID3)
        assert [m for _, _, m in out] == [0]

    def test_fresh_component(self):
        s = SteinerFrontierState((0, 0, 0))
        out = steiner_transition(s, EdgeEvent("V", 1, 1, 4), GRID3)
        taken = [(ns, c) for ns, c, m in out if m == 1]
        assert taken == [(SteinerFrontierState((1, 1, 0)), 4)]

    def test_pendant_nonterminal_pruned(self):
        grid = build_grid(make_instance([(0, 0), (9, 0), (4, 7)]))
        assert not grid.is_terminal(1, 2)
        s = SteinerFrontierState((0, 0))
        out = steiner_transition(s, EdgeEvent("H", 1, 2, 5), grid)
        assert [m for _, _, m in out] == [0]

    def test_closure_pruned(self):
        s = SteinerFrontierState((1, 1, 2))
        out = steiner_transition(s, EdgeEvent("H", 3, 1, 1), GRID3)
        assert [m for _, _, m in out] == [1]

    def test_emitted_states_are_canonical(self):
        rng = random.Random(3)
        pool = sorted(enumerate_tuple_states(3, "steiner"), key=str)
        for _ in range(150):
            s = pool[rng.randrange(len(pool))]
            event = (
                EdgeEvent("V", rng.randint(1, 2), 1, 2)
                if rng.random() < 0.5
                else EdgeEvent("H", rng.randint(1, 3), rng.randint(1, 2), 2)
            )
            for ns, _, _ in steiner_transition(s, event, GRID3):
                assert canonicalize_steiner(ns.comp) == ns


class TestSolve:
    def test_two_terminals(self):
        sol = solve_steiner(make_instance([(0, 0), (8, 3)]))
        assert sol.length == 11

    def test_three_terminals_bounding_box(self):
        sol = solve_steiner(make_instance([(0, 0), (4, 2), (2, 5)]))
        assert sol.length == 9  # (xmax-xmin) + (ymax-ymin) for three points

    def test_single_point(self):
        sol = solve_steiner(make_instance([(2, 2)]))
        assert sol.length == 0 and sol.tree.edges == ()

    def test_matches_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(3, 7)
            h = rng.randint(2, n)
            inst = gen_instance(n, h, 50, 50, rng.randint(0, 10**6))
            assert solve_steiner(inst).length == steiner_oracle(inst)

    def test_engines_agree_exactly(self):
        rng = random.Random(29)
        for _ in range(12):
            n = rng.randint(3, 8)
            h = rng.randint(2, min(5, n))
            inst = gen_instance(n, h, 60, 30, rng.randint(0, 10**6))
            a = solve_steiner(inst)
            b = solve_steiner_reference(inst)
            assert a.length == b.length
            assert a.tree.edges == b.tree.edges

    def test_tree_is_acyclic_and_spanning(self):
        rng = random.Random(41)
        for _ in range(10):
            inst = gen_instance(8, 4, 50, 20, rng.randint(0, 10**6))
            sol = solve_steiner(inst)
            uf = UnionFind()
            for e, (p, q) in zip(sol.tree.edges, segment_points(inst, sol.tree.edges)):
                assert e.mult == 1
                assert uf.union(p, q)  # acyclic: no edge joins a component to itself
            root = uf.find(inst.points[0])
            assert all(uf.find(p) == root for p in inst.points)

    def test_never_longer_than_tour(self):
        rng = random.Random(43)
        for _ in range(10):
            inst = gen_instance(7, 3, 40, 20, rng.randint(0, 10**6))
            assert (
                solve_steiner(inst, trace=False).length
                <= solve_tsp(inst, trace=False).length
            )
