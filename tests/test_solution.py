import pytest

from rectisolve.generate import gen_instance
from rectisolve.geometry import build_grid, make_instance
from rectisolve.solution import format_solution, parse_solution, resolve_edges
from rectisolve.steiner import solve_steiner
from rectisolve.tsp import solve_tsp

PLAIN = gen_instance(12, 4, 48, 16, 5)
TRANSPOSED = make_instance([(p.y, p.x) for p in PLAIN.points])


@pytest.mark.parametrize("solver", ["tsp", "steiner"])
@pytest.mark.parametrize("instance", [PLAIN, TRANSPOSED], ids=["plain", "transposed"])
def test_solution_text_names_original_segments(solver, instance):
    # the written names resolve back, on the original grid, to exactly the
    # solver's edges: kinds, indices, endpoints and multiplicities
    assert build_grid(instance).transposed == (instance is TRANSPOSED)
    if solver == "tsp":
        sol = solve_tsp(instance)
        edges = sol.subgraph.edges
    else:
        sol = solve_steiner(instance)
        edges = sol.tree.edges
    _, raw = parse_solution(format_solution(list(edges), sol.length))
    assert resolve_edges(instance, raw) == list(edges)
