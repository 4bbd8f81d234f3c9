"""Deterministic SVG rendering of instances and solutions.

Output is plain SVG 1.1 assembled by string formatting with fixed number
formats, so a given (instance, edges) pair always produces identical
bytes. Grid lines are light gray, terminals are filled circles, solution
edges (placed by row and column) solid strokes; a doubled edge is drawn as
two parallel strokes offset perpendicular to its direction.
"""

from __future__ import annotations

from .errors import InputError
from .geometry import Instance
from .solution import SolutionEdge, edge_ends, grid_axes

_MARGIN = 24.0
_TARGET = 640.0
_GRID_STYLE = 'stroke="#cccccc" stroke-width="1"'
_EDGE_STYLE = 'stroke="#1f77b4" stroke-width="3" stroke-linecap="round"'


def render_svg(instance: Instance, edges: list[SolutionEdge] | None = None) -> str:
    """The instance and its edges as SVG; raises InputError at an edge off
    the grid."""
    xs, ys = grid_axes(instance)
    edges = edges or []
    edge_ends(edges, xs, ys, InputError)

    span = max(xs[-1] - xs[0], ys[-1] - ys[0], 1)
    scale = _TARGET / span

    def sx(x: int) -> float:
        return _MARGIN + (x - xs[0]) * scale

    def sy(y: int) -> float:
        return _MARGIN + (ys[-1] - y) * scale

    width = _MARGIN * 2 + (xs[-1] - xs[0]) * scale
    height = _MARGIN * 2 + (ys[-1] - ys[0]) * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.2f}" height="{height:.2f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    for x in xs:
        parts.append(
            f'<line x1="{sx(x):.2f}" y1="{sy(ys[0]):.2f}" '
            f'x2="{sx(x):.2f}" y2="{sy(ys[-1]):.2f}" {_GRID_STYLE}/>'
        )
    for y in ys:
        parts.append(
            f'<line x1="{sx(xs[0]):.2f}" y1="{sy(y):.2f}" '
            f'x2="{sx(xs[-1]):.2f}" y2="{sy(y):.2f}" {_GRID_STYLE}/>'
        )
    for kind, row, col, mult in edges:
        x1, y1 = sx(xs[col - 1]), sy(ys[row - 1])
        x2, y2 = (x1, sy(ys[row])) if kind == "V" else (sx(xs[col]), y1)
        for off in (0.0,) if mult == 1 else (-2.0, 2.0):
            dx, dy = (off, 0.0) if kind == "V" else (0.0, off)
            parts.append(
                f'<line x1="{x1 + dx:.2f}" y1="{y1 + dy:.2f}" '
                f'x2="{x2 + dx:.2f}" y2="{y2 + dy:.2f}" {_EDGE_STYLE}/>'
            )
    for p in instance.points:
        parts.append(
            f'<circle cx="{sx(p.x):.2f}" cy="{sy(p.y):.2f}" r="4" fill="#222222"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
