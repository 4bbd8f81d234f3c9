import random

from rectisolve.generate import gen_instance
from rectisolve.geometry import EdgeEvent, Point, build_grid, l1, make_instance
from rectisolve.solution import SolutionEdge, Subgraph
from rectisolve.states import EVEN, ODD, ZERO, count_states
from rectisolve.tsp import orient_tour, solve_tsp, validate_tour_subgraph

from reference_oracles import tsp_bruteforce
from reference_states import (
    TspFrontierState,
    canonicalize_tsp,
    enumerate_tuple_states,
    initial_tsp_state,
    package_states,
)
from reference_sweep import run_sweep, solve_tsp_reference, tsp_transition

GRID3 = build_grid(make_instance([(0, 0), (1, 1), (2, 2)]))


class TestTransitions:
    def test_single_vertical_merges_and_flips(self):
        # {(U,U,E),(1,1,2)} + one edge between rows 2 and 3
        s = canonicalize_tsp(("U", "U", "E"), (2, 2, 1))
        out = tsp_transition(s, EdgeEvent("V", 2, 1, 5), GRID3)
        by_mult = {m: (ns, c) for ns, c, m in out}
        assert set(by_mult) == {0, 1, 2}
        assert by_mult[1][0] == TspFrontierState((ODD, EVEN, ODD), (1, 1, 1))
        assert by_mult[1][1] == 5
        assert by_mult[0] == (s, 0)

    def test_double_horizontal_creates_self_loop(self):
        # {(0,E,0),(-,1,-)} + doubled edge on row 1, departing a terminal
        s = canonicalize_tsp(("0", "E", "0"), (None, 1, None))
        out = tsp_transition(s, EdgeEvent("H", 1, 1, 3), GRID3)
        doubled = [(ns, c) for ns, c, m in out if m == 2]
        assert doubled == [
            (TspFrontierState((EVEN, EVEN, ZERO), (1, 2, 0)), 6)
        ]

    def test_odd_row_must_take_one_edge(self):
        s = TspFrontierState((ODD, ZERO), (1, 0))  # raw: not a legal final shape
        grid = build_grid(make_instance([(0, 0), (1, 1)]))
        out = tsp_transition(s, EdgeEvent("H", 1, 1, 1), grid)
        assert [m for _, _, m in out] == [1]

    def test_closure_is_pruned(self):
        s = TspFrontierState((EVEN, ZERO), (1, 0))
        grid = build_grid(make_instance([(0, 0), (1, 1)]))
        out = tsp_transition(s, EdgeEvent("H", 1, 1, 1), grid)
        assert all(m != 0 for _, _, m in out)

    def test_uturn_pruned_for_nonterminal(self):
        # (4,0) on row 1, col 2 of the grid of (0,0),(9,0),(4,7) is free
        grid = build_grid(make_instance([(0, 0), (9, 0), (4, 7)]))
        assert not grid.is_terminal(1, 2)
        s = TspFrontierState((ZERO, ZERO), (0, 0))
        out = tsp_transition(s, EdgeEvent("H", 1, 2, 5), grid)
        assert [m for _, _, m in out] == [0]

    def test_emitted_states_are_canonical(self):
        rng = random.Random(2)
        pool = sorted(enumerate_tuple_states(3, "tsp"), key=str)
        for _ in range(200):
            s = pool[rng.randrange(len(pool))]
            event = (
                EdgeEvent("V", rng.randint(1, 2), 1, 2)
                if rng.random() < 0.5
                else EdgeEvent("H", rng.randint(1, 3), rng.randint(1, 2), 2)
            )
            for ns, _, _ in tsp_transition(s, event, GRID3):
                assert canonicalize_tsp(ns.parity, ns.comp) == ns


class TestSolve:
    def test_rectangle_perimeter(self):
        sol = solve_tsp(make_instance([(0, 0), (10, 0), (0, 5), (10, 5)]))
        assert sol.length == 30
        assert sol.subgraph.total_length == 30

    def test_collinear_out_and_back(self):
        sol = solve_tsp(make_instance([(0, 0), (3, 0), (7, 0)]))
        assert sol.length == 14

    def test_single_point(self):
        sol = solve_tsp(make_instance([(5, 7)]))
        assert sol.length == 0
        assert sol.subgraph.edges == ()
        assert sol.tour == (Point(5, 7),)

    def test_matches_bruteforce(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(4, 8)
            h = rng.randint(2, min(5, n))
            inst = gen_instance(n, h, 100, 100, rng.randint(0, 10**6))
            assert solve_tsp(inst).length == tsp_bruteforce(inst)

    def test_engines_agree_exactly(self):
        rng = random.Random(77)
        for _ in range(12):
            n = rng.randint(4, 9)
            h = rng.randint(2, min(4, n))
            inst = gen_instance(n, h, 60, 40, rng.randint(0, 10**6))
            a = solve_tsp(inst)
            b = solve_tsp_reference(inst)
            assert a.length == b.length
            assert a.subgraph.edges == b.subgraph.edges
            assert a.tour == b.tour

    def test_transposition_invariance(self):
        rng = random.Random(13)
        for _ in range(10):
            inst = gen_instance(7, 3, 40, 40, rng.randint(0, 10**6))
            swapped = make_instance([(p.y, p.x) for p in inst.points])
            assert solve_tsp(inst).length == solve_tsp(swapped).length

    def test_translation_invariance(self):
        rng = random.Random(14)
        for _ in range(10):
            inst = gen_instance(6, 3, 40, 40, rng.randint(0, 10**6))
            moved = make_instance([(p.x + 1000, p.y - 77) for p in inst.points])
            assert solve_tsp(inst).length == solve_tsp(moved).length

    def test_trace_and_rolling_agree_at_scale(self):
        inst = gen_instance(200, 5, 800, 20, 6)
        full = solve_tsp(inst)
        rolling = solve_tsp(inst, trace=False)
        assert full.length == rolling.length
        assert rolling.subgraph is None and rolling.tour is None

    def test_reachable_states_are_enumerable(self):
        inst = gen_instance(8, 4, 30, 16, 5)
        grid = build_grid(inst)
        res = run_sweep(
            grid, initial_tsp_state(grid.h), tsp_transition, lambda s: True
        )
        all_states = set(package_states(grid.h, "tsp"))
        for layer in res.trace.layers:
            assert len(layer) <= count_states(grid.h, "tsp")
            for entry in layer.values():
                assert entry.state in all_states


class TestTourExtraction:
    def test_unit_square(self):
        pts = [Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)]
        edges = (
            SolutionEdge("H", 1, 1, 1),
            SolutionEdge("H", 2, 1, 1),
            SolutionEdge("V", 1, 1, 1),
            SolutionEdge("V", 1, 2, 1),
        )
        sub = Subgraph(edges, 4)
        inst = make_instance([(0, 0), (1, 0), (0, 1), (1, 1)])
        validate_tour_subgraph(sub, inst)
        tour = orient_tour(sub, inst)
        assert tour[0] == tour[-1] == Point(0, 0)
        assert len(tour) == 5
        assert sorted(set(tour)) == sorted(pts)

    def test_single_doubled_edge(self):
        a, b = Point(0, 0), Point(4, 0)
        sub = Subgraph((SolutionEdge("H", 1, 1, 2),), 8)
        tour = orient_tour(sub, make_instance([(0, 0), (4, 0)]))
        assert tour == (a, b, a)

    def test_walk_takes_the_lowest_then_leftmost_neighbour_first(self):
        # every segment doubled: the walk's choices at (1, 1), (1, 2) and
        # (2, 1) follow the (y, x) order of the other end, not the edge order
        inst = make_instance([(x, y) for x in range(3) for y in range(3)])
        names = [("H", 1, 2), ("H", 2, 2), ("H", 3, 1), ("H", 3, 2), ("V", 1, 1),
                 ("V", 1, 3), ("V", 2, 1), ("V", 2, 2), ("V", 2, 3)]
        sub = Subgraph(tuple(SolutionEdge(k, r, c, 2) for k, r, c in names), 18)
        validate_tour_subgraph(sub, inst)
        walk = [(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (2, 1), (2, 0), (1, 0), (2, 0),
                (2, 1), (1, 1), (1, 2), (2, 2), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1),
                (0, 0)]
        assert orient_tour(sub, inst) == tuple(Point(x, y) for x, y in walk)

    def test_walk_length_equals_optimum(self):
        rng = random.Random(8)
        for _ in range(10):
            inst = gen_instance(9, 4, 50, 20, rng.randint(0, 10**6))
            sol = solve_tsp(inst)
            walked = sum(
                l1(sol.tour[i], sol.tour[i + 1]) for i in range(len(sol.tour) - 1)
            )
            assert walked == sol.length
            assert sol.tour[0] == sol.tour[-1]
            assert set(inst.points) <= set(sol.tour)
