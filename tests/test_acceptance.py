"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion measurements. Budgets are generous wall-clock bounds meant
for commodity hardware; the exactness assertions are the real gate.
"""

import resource
import time

from rectisolve.generate import gen_instance
from rectisolve.geometry import build_grid, l1, make_instance
from rectisolve.states import count_states, enumerate_states, unpack_states
from rectisolve.steiner import solve_steiner
from rectisolve.tsp import solve_tsp

from reference_oracles import (
    UnionFind,
    segment_points,
    steiner_oracle,
    super_catalan,
    tsp_bruteforce,
)
from reference_states import (
    canonicalize_steiner,
    canonicalize_tsp,
    initial_tsp_state,
    package_states,
)
from reference_sweep import (
    run_sweep,
    solve_steiner_reference,
    solve_tsp_reference,
    tsp_transition,
)

GIB = 2**30

# tour states: binomial transform of the little Schroeder numbers (A118376,
# shifted); positive-degree tour states: A001003
TSP_STATE_COUNTS = [2, 6, 24, 112, 568, 3032, 16768, 95200]
TSP_POSITIVE_COUNTS = [1, 3, 11, 45, 197, 903, 4279, 20793]
# tree states: binomial transform of the Catalan numbers (A007317)
STEINER_STATE_COUNTS = [2, 5, 15, 51, 188, 731, 2950, 12235, 51822, 223191, 974427]


def report(criterion: int, detail: str):
    print(f"\nACCEPTANCE criterion {criterion}: PASS ({detail})")


def test_criterion_1_state_count_reproduction():
    t0 = time.perf_counter()
    for h in range(1, 9):
        assert count_states(h, "tsp") == TSP_STATE_COUNTS[h - 1]
        keys = enumerate_states(h, "tsp")
        assert len(keys) == TSP_STATE_COUNTS[h - 1]
        comp, _ = unpack_states(keys, h, "tsp")
        positive = int((comp != 0).all(axis=1).sum())  # every row labeled
        assert positive == TSP_POSITIVE_COUNTS[h - 1]
        assert super_catalan(h) == TSP_POSITIVE_COUNTS[h - 1]
    for h in range(1, 12):
        assert count_states(h, "steiner") == STEINER_STATE_COUNTS[h - 1]
    for h in range(1, 11):
        assert len(enumerate_states(h, "steiner")) == STEINER_STATE_COUNTS[h - 1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(1, f"TSP h<=8 and Steiner h<=10 enumerated and matched in {elapsed:.1f}s")


def _tsp_cases(count=200):
    cases = []
    k = 0
    while len(cases) < count:
        n = 4 + k % 5  # 4..8
        h = 2 + k % 4  # 2..5
        k += 1
        if h > n:
            continue
        cases.append((n, h, 1000 + k))
    return cases


def test_criterion_2_tsp_oracle_equivalence():
    t0 = time.perf_counter()
    for n, h, seed in _tsp_cases(200):
        inst = gen_instance(n, h, 100, 100, seed)
        got = solve_tsp(inst).length
        want = tsp_bruteforce(inst)
        assert got == want, (n, h, seed, got, want)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(2, f"200 instances, exact equality, {elapsed:.1f}s")


def test_criterion_3_steiner_oracle_equivalence():
    t0 = time.perf_counter()
    k = 0
    for case in range(200):
        n = 3 + case % 5  # 3..7 terminals
        h = 2 + case % max(1, min(n, 6) - 1)
        h = min(h, n)
        seed = 9000 + case
        inst = gen_instance(n, h, 50, 50, seed)
        grid = build_grid(inst)
        assert grid.h * grid.v <= 400
        got = solve_steiner(inst).length
        want = steiner_oracle(inst)
        assert got == want, (n, h, seed, got, want)
        k += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, f"{k} instances, exact equality, {elapsed:.1f}s")


def test_criterion_4_desk_scale_performance():
    t0 = time.perf_counter()
    tsp_inst = gen_instance(200, 8, 800, 32, 1)
    tsp_sol = solve_tsp(tsp_inst)
    tsp_elapsed = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert tsp_elapsed < 600.0, f"tsp n=200 h=8 took {tsp_elapsed:.0f}s"
    assert peak < 8 * GIB, f"peak memory {peak / GIB:.2f} GiB"
    assert tsp_sol.subgraph is not None and tsp_sol.tour is not None

    t1 = time.perf_counter()
    st_inst = gen_instance(100, 10, 400, 40, 1)
    st_sol = solve_steiner(st_inst)
    st_elapsed = time.perf_counter() - t1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert st_elapsed < 300.0, f"steiner n=100 h=10 took {st_elapsed:.0f}s"
    assert peak < 8 * GIB, f"peak memory {peak / GIB:.2f} GiB"
    assert st_sol.tree is not None
    report(
        4,
        f"tsp n=200 h=8 in {tsp_elapsed:.0f}s, steiner n=100 h=10 in "
        f"{st_elapsed:.0f}s, peak {peak / GIB:.2f} GiB",
    )


def test_criterion_5_layer_size_bound():
    solvers = {"tsp": solve_tsp, "steiner": solve_steiner}
    n = 50
    checked = 0
    for problem, solve in solvers.items():
        for h in range(1, 7):
            bound = count_states(h, problem)
            observed = 0
            for seed in range(100, 103):
                inst = gen_instance(n, h, 4 * n, 4 * h, seed)
                sol = solve(inst, trace=False)
                assert sol.stats.max_layer_states <= bound, (problem, h, seed)
                observed = max(observed, sol.stats.max_layer_states)
                checked += 1
            marker = "=" if observed == bound else "<"
            print(
                f"\n{problem} h={h} n={n}: observed max layer "
                f"{observed} {marker} state-space size {bound}"
            )
    assert checked == 2 * 6 * 3
    report(5, f"{checked} runs all within the state-count bound")


def test_criterion_6_solution_validity():
    rng_cases = [(6 + k % 3, 2 + k % 4, 3000 + k) for k in range(30)]
    for n, h, seed in rng_cases:
        inst = gen_instance(n, min(h, n), 60, 60, seed)
        sol = solve_tsp(inst)
        # independent replay of the tour-subgraph conditions
        degree = {}
        uf = UnionFind()
        edges = sol.subgraph.edges
        ends = segment_points(inst, edges)
        for e, (p, q) in zip(edges, ends):
            assert e.mult in (1, 2)
            degree[p] = degree.get(p, 0) + e.mult
            degree[q] = degree.get(q, 0) + e.mult
            uf.union(p, q)
        assert all(d % 2 == 0 for d in degree.values())
        assert all(p in degree for p in inst.points)
        assert len({uf.find(p) for p in degree}) == 1
        assert sum(e.mult * l1(p, q) for e, (p, q) in zip(edges, ends)) == sol.length
        walked = sum(l1(a, b) for a, b in zip(sol.tour, sol.tour[1:]))
        assert walked == sol.length and sol.tour[0] == sol.tour[-1]

        st = solve_steiner(inst)
        uf = UnionFind()
        touched = set()
        ends = segment_points(inst, st.tree.edges)
        for e, (p, q) in zip(st.tree.edges, ends):
            assert e.mult == 1
            assert uf.union(p, q)  # acyclic
            touched.update((p, q))
        assert all(p in touched for p in inst.points)
        assert len({uf.find(p) for p in touched}) == 1
        assert sum(l1(p, q) for p, q in ends) == st.length
    report(6, "30 tour subgraphs and 30 trees replay-validated")


def test_criterion_7_invariance_suite():
    # transposition and translation invariance of optima
    for k in range(10):
        inst = gen_instance(8, 3, 60, 30, 4000 + k)
        swapped = make_instance([(p.y, p.x) for p in inst.points])
        moved = make_instance([(p.x - 500, p.y + 123) for p in inst.points])
        base = solve_tsp(inst, trace=False).length
        assert solve_tsp(swapped, trace=False).length == base
        assert solve_tsp(moved, trace=False).length == base
        sbase = solve_steiner(inst, trace=False).length
        assert solve_steiner(swapped, trace=False).length == sbase
        assert solve_steiner(moved, trace=False).length == sbase
    # canonicalization idempotence
    for h in (3, 5):
        for state in package_states(h, "tsp"):
            assert canonicalize_tsp(state.parity, state.comp) == state
        for state in package_states(h, "steiner"):
            assert canonicalize_steiner(state.comp) == state
    # 20 random full solves at h=6 with the reference sweep: every state
    # generated by the transition functions is re-validated, and reachable
    # states are contained in the enumerated space
    all_tsp_states = set(package_states(6, "tsp"))
    all_steiner_states = set(package_states(6, "steiner"))
    for k in range(10):
        inst = gen_instance(8, 6, 60, 24, 4400 + k)
        sol = solve_tsp_reference(inst)
        assert sol.stats.max_layer_states <= len(all_tsp_states)
        inst2 = gen_instance(12, 6, 60, 24, 4500 + k)
        sol2 = solve_steiner_reference(inst2)
        assert sol2.stats.max_layer_states <= len(all_steiner_states)
    # spot-check reachable-state containment through a full trace
    inst = gen_instance(8, 6, 60, 24, 4999)
    grid = build_grid(inst)
    res = run_sweep(grid, initial_tsp_state(6), tsp_transition, lambda s: True)
    for layer in res.trace.layers:
        for entry in layer.values():
            assert entry.state in all_tsp_states
    report(7, "transposition/translation invariant; 20 checked reference solves clean")


def test_criterion_8_scaling_shape():
    solve_tsp(gen_instance(50, 6, 200, 24, 42), trace=False)  # warm tables

    def best_ms(inst):
        # the best of three solves, so a stall of the host falls out
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            solve_tsp(inst, trace=False)
            best = min(best, time.perf_counter() - t0)
        return 1000.0 * best

    # the two sizes interleaved per seed, so a slow spell hits both
    total = {50: 0.0, 200: 0.0}
    seeds = range(1, 11)
    for s in seeds:
        for n in total:
            total[n] += best_ms(gen_instance(n, 6, 4 * n, 24, s))
    m50, m200 = total[50] / len(seeds), total[200] / len(seeds)
    ratio = m200 / m50
    assert ratio <= 6.0, f"n=200 mean {m200:.0f}ms vs n=50 mean {m50:.0f}ms"
    report(8, f"h=6 mean best-of-3 wall: n=50 {m50:.0f}ms, n=200 {m200:.0f}ms, ratio {ratio:.2f}")
