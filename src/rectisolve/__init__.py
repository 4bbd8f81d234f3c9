"""Exact rectilinear TSP and rectilinear Steiner tree solvers.

Both problems are solved by a layered dynamic program that sweeps the
Hanan grid of the input points column by column, summarizing progress in
canonical per-row frontier states. Runtime is linear in the number of
points and exponential only in the number of distinct horizontal lines.
"""

from .generate import SplitMix64, gen_instance
from .geometry import (
    EdgeEvent,
    HananGrid,
    Instance,
    Point,
    build_grid,
    edge_schedule,
    l1,
    make_instance,
    parse_instance,
    write_instance,
)
from .render import render_svg
from .solution import (
    SolutionEdge,
    Subgraph,
    format_solution,
    parse_solution,
)
from .states import count_states, enumerate_states, render_row, unpack_states
from .steiner import SteinerSolution, solve_steiner
from .tables import SweepStats
from .tsp import TspSolution, orient_tour, solve_tsp, validate_tour_subgraph

__version__ = "0.1.0"

__all__ = [
    "EdgeEvent",
    "HananGrid",
    "Instance",
    "Point",
    "SolutionEdge",
    "SplitMix64",
    "SteinerSolution",
    "Subgraph",
    "SweepStats",
    "TspSolution",
    "build_grid",
    "count_states",
    "edge_schedule",
    "enumerate_states",
    "format_solution",
    "gen_instance",
    "l1",
    "make_instance",
    "orient_tour",
    "parse_instance",
    "parse_solution",
    "render_row",
    "render_svg",
    "solve_steiner",
    "solve_tsp",
    "unpack_states",
    "validate_tour_subgraph",
    "write_instance",
]
