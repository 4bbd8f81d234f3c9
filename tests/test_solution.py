from dataclasses import replace

import pytest

from rectisolve.errors import InputError, InternalInfeasibleError, NotEulerianError
from rectisolve.generate import gen_instance
from rectisolve.geometry import build_grid, l1, make_instance
from rectisolve.render import render_svg
from rectisolve.solution import SolutionEdge, format_solution, parse_solution
from rectisolve.steiner import STEINER, solve_steiner, validate_steiner_tree
from rectisolve.tables import solve_grid
from rectisolve.tsp import TSP, orient_tour, solve_tsp, validate_tour_subgraph

from reference_oracles import segment_points

PLAIN = gen_instance(12, 4, 48, 16, 5)
TRANSPOSED = make_instance([(p.y, p.x) for p in PLAIN.points])


@pytest.mark.parametrize("solver", ["tsp", "steiner"])
@pytest.mark.parametrize("instance", [PLAIN, TRANSPOSED], ids=["plain", "transposed"])
def test_solution_text_names_original_segments(solver, instance):
    # the written names read back as the solver's edges, and each names, on
    # the original grid, the segment of one sweep move on the normalized grid
    grid = build_grid(instance)
    assert grid.transposed == (instance is TRANSPOSED)
    if solver == "tsp":
        sol = solve_tsp(instance)
        edges = sol.subgraph.edges
    else:
        sol = solve_steiner(instance)
        edges = sol.tree.edges
    _, parsed = parse_solution(format_solution(list(edges), sol.length))
    assert parsed == list(edges)
    named = {
        (frozenset(ends), e.mult) for e, ends in zip(parsed, segment_points(instance, parsed))
    }
    _, moves = solve_grid(TSP if solver == "tsp" else STEINER, grid, True)
    swept = {
        (frozenset({
            grid.point_at(ev.row, ev.col),
            grid.point_at(ev.row + (ev.kind == "V"), ev.col + (ev.kind == "H")),
        }), m)
        for ev, m in moves
    }
    assert named == swept and len(named) == len(parsed)


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
# own record type is used. MISSING's and SPLIT's grids number SMALL's rows
# and columns alike, so the edges mean the same segments on all three.

SMALL = make_instance([(0, 0), (3, 0), (1, 2), (4, 2), (2, 5), (5, 5)])
TOUR = solve_tsp(SMALL).subgraph
TREE = solve_steiner(SMALL).tree
MISSING = make_instance(list(SMALL.points) + [(9, 9)])  # (9, 9) is on no edge
SPLIT = make_instance(list(SMALL.points) + [(5, 0)])  # the same grid, and an end of stray()


def with_edges(sub, edges):
    """``sub`` with other edges and the length they sum to on SMALL's grid."""
    length = sum(e.mult * l1(p, q) for e, (p, q) in zip(edges, segment_points(SMALL, edges)))
    return replace(sub, edges=tuple(edges), total_length=length)


def remult(sub, old, new):
    """``sub`` with its first edge of multiplicity ``old`` at ``new``."""
    k = next(k for k, e in enumerate(sub.edges) if e.mult == old)
    edges = list(sub.edges)
    edges[k] = edges[k]._replace(mult=new)
    return with_edges(sub, edges)


def stray(mult):
    """SMALL's grid segment (4, 0)-(5, 0), which shares no vertex with TOUR
    or TREE."""
    return SolutionEdge("H", 1, 5, mult)


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


# row or column 0, a negative index (which would wrap round the axis), and
# an index one past the grid, for each kind; SMALL's grid has 3 rows and 6
# columns
OFF_GRID = [
    SolutionEdge("V", 0, 1, 2),
    SolutionEdge("H", 1, 0, 2),
    SolutionEdge("H", -1, 2, 2),
    SolutionEdge("V", 1, -6, 2),
    SolutionEdge("V", 3, 1, 2),
    SolutionEdge("V", 1, 7, 2),
    SolutionEdge("H", 4, 1, 2),
    SolutionEdge("H", 1, 6, 2),
]


@pytest.mark.parametrize("edge", OFF_GRID, ids=lambda e: f"{e.kind}{e.row},{e.col}")
def test_an_edge_off_the_grid_is_refused(edge):
    for valid, check in (
        (TOUR, validate_tour_subgraph),
        (TREE, validate_steiner_tree),
        (TOUR, orient_tour),
    ):
        broken = replace(valid, edges=valid.edges + (edge,))
        with pytest.raises(InternalInfeasibleError, match="not on the instance grid"):
            check(broken, SMALL)
    with pytest.raises(InputError, match="not on the instance grid"):
        render_svg(SMALL, list(TOUR.edges) + [edge])
