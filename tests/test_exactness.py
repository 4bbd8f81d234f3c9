"""Checks on optima past the oracles' reach, which need no oracle: the
eight symmetries of a square grid, and the classic bounds between tours,
trees and spanning trees."""

import random

import pytest

from rectisolve.generate import gen_instance
from rectisolve.geometry import build_grid, l1, make_instance
from rectisolve.steiner import solve_steiner, validate_steiner_tree
from rectisolve.tsp import solve_tsp, validate_tour_subgraph

from reference_oracles import l1_mst

# the symmetries of the square: mirror x, mirror y and transpose, composed
SYMMETRIES = [
    lambda x, y: (x, y), lambda x, y: (-x, y), lambda x, y: (x, -y),
    lambda x, y: (-x, -y), lambda x, y: (y, x), lambda x, y: (-y, x),
    lambda x, y: (y, -x), lambda x, y: (-y, -x),
]


def square_instance(n, k, seed):
    """n points on a k x k Hanan grid: each of k distinct x and k distinct
    y values is used."""
    rng = random.Random(seed)
    xs, ys = rng.sample(range(4 * k), k), rng.sample(range(4 * k), k)
    points = set(zip(xs, rng.sample(ys, k)))
    while len(points) < n:
        points.add((rng.choice(xs), rng.choice(ys)))
    return make_instance(sorted(points))


@pytest.mark.parametrize("problem, n, k", [("tsp", 30, 8), ("steiner", 25, 10)])
def test_eight_symmetries_of_a_square_grid_agree(problem, n, k):
    # on a square grid no instance is transposed, so each symmetry runs a
    # sweep of its own: other column and row orders, terminal schedules
    # and tables. Every optimum must agree, and every solution validate.
    inst = square_instance(n, k, 1)
    lengths = []
    for f in SYMMETRIES:
        moved = make_instance(f(x, y) for x, y in inst.points)
        grid = build_grid(moved)
        assert grid.h == grid.v == k and not grid.transposed
        if problem == "tsp":
            sol = solve_tsp(moved, trace=True)
            validate_tour_subgraph(sol.subgraph, moved)
            walk = sol.tour
            assert walk[0] == walk[-1] and set(moved.points) <= set(walk)
            assert sum(l1(a, b) for a, b in zip(walk, walk[1:])) == sol.length
        else:
            sol = solve_steiner(moved, trace=True)
            validate_steiner_tree(sol.tree, moved)
        lengths.append(sol.length)
    assert len(set(lengths)) == 1, lengths


@pytest.mark.parametrize("n, h, seed", [(200, 7, 1), (200, 7, 2), (200, 8, 3)])
def test_classic_bounds_at_desk_scale(n, h, seed):
    inst = gen_instance(n, h, 4 * n, 4 * h, seed)
    tour = solve_tsp(inst, trace=False).length
    tree = solve_steiner(inst, trace=False).length
    mst = l1_mst(inst)
    xs = [p.x for p in inst.points]
    ys = [p.y for p in inst.points]
    width, height = max(xs) - min(xs), max(ys) - min(ys)
    # a tour less an edge is a tree; a tree walked around and shortcut is a
    # tour
    assert tree <= tour <= 2 * tree
    # a tour crosses the bounding box twice each way, and a tree once
    assert tour >= 2 * (width + height)
    assert tree >= width + height
    # the rectilinear Steiner ratio (Hwang, SIAM J. Appl. Math. 1976)
    assert tree <= mst and 2 * mst <= 3 * tree
