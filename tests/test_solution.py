from dataclasses import replace

import pytest

from rectisolve.errors import InputError, InternalInfeasibleError, NotEulerianError
from rectisolve.generate import gen_instance
from rectisolve.geometry import Point, build_grid, make_instance
from rectisolve.solution import (
    SolutionEdge,
    format_solution,
    parse_solution,
    resolve_edges,
    total_edge_length,
)
from rectisolve.steiner import solve_steiner, validate_steiner_tree
from rectisolve.tsp import orient_tour, solve_tsp, validate_tour_subgraph

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


@pytest.mark.parametrize(
    "text", ["length 5\nlength 7\n", "length 5\nH 1 1 1\nlength 5\n", "length -5\n"]
)
def test_parse_solution_refuses_malformed_length_lines(text):
    with pytest.raises(InputError):
        parse_solution(text)


# --- every rejection path of the solution checks ----------------------------
#
# Each case starts from a valid subgraph of a small solve and breaks one
# invariant, keeping the others where it can: an edge's multiplicity changes
# with the length re-summed, a second component is kept even and acyclic.
# Records are rebuilt with ``dataclasses.replace`` so that only the solvers'
# own record type is used.

SMALL = make_instance([(0, 0), (3, 0), (1, 2), (4, 2), (2, 5), (5, 5)])
TOUR = solve_tsp(SMALL).subgraph
TREE = solve_steiner(SMALL).tree
MISSING = make_instance(list(SMALL.points) + [(9, 9)])  # (9, 9) is on no edge
SPLIT = make_instance(list(SMALL.points) + [(20, 20)])  # a terminal of stray()


def with_edges(sub, edges):
    """``sub`` with other edges and the length they sum to."""
    return replace(sub, edges=tuple(edges), total_length=total_edge_length(edges))


def remult(sub, old, new):
    """``sub`` with its first edge of multiplicity ``old`` at ``new``."""
    k = next(k for k, e in enumerate(sub.edges) if e.mult == old)
    edges = list(sub.edges)
    edges[k] = edges[k]._replace(mult=new)
    return with_edges(sub, edges)


def stray(mult):
    """A far edge, away from every terminal of SMALL."""
    return SolutionEdge("H", 1, 1, Point(20, 20), Point(21, 20), mult)


BROKEN = {
    "tsp-empty": (TOUR, replace(TOUR, edges=()), SMALL),
    "tsp-mult-0": (TOUR, remult(TOUR, 2, 0), SMALL),
    "tsp-mult-3": (TOUR, remult(TOUR, 1, 3), SMALL),
    "tsp-terminal-dropped": (TOUR, TOUR, MISSING),
    "tsp-stray-component": (TOUR, with_edges(TOUR, TOUR.edges + (stray(2),)), SMALL),
    "tsp-two-components": (TOUR, with_edges(TOUR, TOUR.edges + (stray(2),)), SPLIT),
    "tsp-length-off-by-one": (TOUR, replace(TOUR, total_length=TOUR.total_length + 1), SMALL),
    "tsp-odd-degree": (TOUR, remult(TOUR, 2, 1), SMALL),
    "steiner-empty": (TREE, replace(TREE, edges=()), SMALL),
    "steiner-mult-2": (TREE, remult(TREE, 1, 2), SMALL),
    "steiner-terminal-dropped": (TREE, TREE, MISSING),
    "steiner-stray-component": (TREE, with_edges(TREE, TREE.edges + (stray(1),)), SMALL),
    "steiner-two-components": (TREE, with_edges(TREE, TREE.edges + (stray(1),)), SPLIT),
    "steiner-length-off-by-one": (TREE, replace(TREE, total_length=TREE.total_length + 1), SMALL),
    "steiner-cycle": (TREE, with_edges(TREE, TREE.edges + TREE.edges[:1]), SMALL),
}


def validator(valid):
    return validate_tour_subgraph if valid is TOUR else validate_steiner_tree


@pytest.mark.parametrize("case", BROKEN)
def test_solution_checks_refuse_a_broken_invariant(case):
    valid, broken, instance = BROKEN[case]
    validator(valid)(valid, SMALL)  # the unbroken subgraph passes
    with pytest.raises(InternalInfeasibleError):
        validator(valid)(broken, instance)


@pytest.mark.parametrize(
    "solve, field, validate",
    [
        (solve_tsp, "subgraph", validate_tour_subgraph),
        (solve_steiner, "tree", validate_steiner_tree),
    ],
    ids=["tsp", "steiner"],
)
def test_solution_checks_accept_one_point(solve, field, validate):
    # the one-point solve's empty subgraph, validated as the solver would
    one = make_instance([(3, 4)])
    sub = getattr(solve(one), field)
    assert sub.edges == () and sub.total_length == 0
    validate(sub, one)


@pytest.mark.parametrize(
    "broken",
    [
        replace(TOUR, edges=()),
        remult(TOUR, 2, 1),  # odd degree
        with_edges(TOUR, (stray(2),)),  # the start point is on no edge
        with_edges(TOUR, TOUR.edges + (stray(2),)),  # disconnected
    ],
    ids=["empty", "odd-degree", "start-missing", "disconnected"],
)
def test_orient_tour_refuses_non_eulerian_subgraphs(broken):
    orient_tour(TOUR, SMALL)
    with pytest.raises(NotEulerianError):
        orient_tour(broken, SMALL)
