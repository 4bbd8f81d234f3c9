"""Command-line front end.

Exit codes: 0 success, 2 invalid input, 3 guard exceeded, 4 internal
infeasibility (a solver bug, never expected on valid instances).
"""

from __future__ import annotations

import argparse
import sys

from .errors import GuardExceeded, InputError, InternalInfeasibleError
from .generate import gen_instance
from .geometry import parse_instance, write_instance
from .render import render_svg
from .solution import format_solution, parse_solution
from .states import count_states, enumerate_states, render_row, unpack_states
from .steiner import solve_steiner
from .tsp import solve_tsp


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_instance(args) -> object:
    return parse_instance(_read_text(args.input))


def _print_stats(stats):
    print(
        f"stats layers={stats.layer_count} max_states={stats.max_layer_states} "
        f"expansions={stats.total_expansions} wall_ms={stats.wall_ms:.1f}"
    )


def _cmd_solve(args) -> int:
    # --output and --svg write the reconstructed solution, which rolling
    # mode does not make; refuse them there rather than write nothing
    if args.no_trace:
        for flag, value in (("--output", args.output), ("--svg", args.svg)):
            if value:
                raise InputError(
                    f"{flag} needs a solution, which --no-trace does not make"
                )
    instance = _load_instance(args)
    trace = not args.no_trace
    if args.problem == "tsp":
        sol = solve_tsp(instance, trace=trace)
        sub, tour = sol.subgraph, sol.tour
    else:
        sol = solve_steiner(instance, trace=trace)
        sub, tour = sol.tree, None
    print(f"length {sol.length}")
    if tour is not None:
        print("tour " + " ".join(f"({p.x},{p.y})" for p in tour))
    _print_stats(sol.stats)
    if sub is not None:
        edges = list(sub.edges)
        if args.output:
            _write_text(args.output, format_solution(edges, sol.length))
        if args.svg:
            _write_text(args.svg, render_svg(instance, edges))
    return 0


def _cmd_states(args) -> int:
    keys = enumerate_states(args.h, args.problem)
    comp, parity = unpack_states(keys, args.h, args.problem)
    if parity is None:
        rows = map(render_row, comp.tolist())
    else:
        rows = map(render_row, comp.tolist(), parity.tolist())
    text = "\n".join(rows) + "\n"
    _write_text(args.output, text)
    return 0


def _decimal(n: int) -> str:
    """All decimal digits of a non-negative int; ``str`` refuses ints of
    more than 4300 digits."""
    chunk = 10**1000
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(f"{low:01000d}")
    parts.append(str(n))
    return "".join(reversed(parts))


def _cmd_count(args) -> int:
    print(_decimal(count_states(args.h, args.problem)))
    return 0


def _cmd_gen(args) -> int:
    instance = gen_instance(args.n, args.h, 4 * args.n, 4 * args.h, args.seed)
    _write_text(args.output, write_instance(instance))
    return 0


def _cmd_render(args) -> int:
    instance = _load_instance(args)
    edges = parse_solution(_read_text(args.solution))[1] if args.solution else None
    _write_text(args.svg, render_svg(instance, edges))
    return 0


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="instance file ('-' = stdin)")
    p.add_argument("--output", help="write the solution edge list here")
    p.add_argument("--svg", help="render the solution to this SVG file")
    p.add_argument("--no-trace", action="store_true",
                   help="cost-only rolling mode (no solution reconstruction)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectisolve",
        description="Exact rectilinear TSP and Steiner tree solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-tsp", help="exact minimum rectilinear tour")
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_solve, problem="tsp")

    p = sub.add_parser("solve-steiner", help="exact minimum rectilinear Steiner tree")
    _add_solver_flags(p)
    p.set_defaults(fn=_cmd_solve, problem="steiner")

    p = sub.add_parser("states", help="enumerate all frontier states for h rows")
    p.add_argument("--problem", required=True, choices=["tsp", "steiner"])
    p.add_argument("--h", required=True, type=int)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_states)

    p = sub.add_parser("count", help="closed-form state count for h rows")
    p.add_argument("--problem", required=True, choices=["tsp", "steiner"])
    p.add_argument("--h", required=True, type=int)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--h", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("render", help="render an instance (and solution) to SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--solution", help="edge-list file produced by solve --output")
    p.add_argument("--svg", required=True)
    p.set_defaults(fn=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalInfeasibleError as exc:
        print(f"internal infeasibility (bug): {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
