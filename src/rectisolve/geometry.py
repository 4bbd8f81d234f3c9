"""Instances, the Hanan grid, and the fixed edge-processing schedule.

The grid is always normalized so that the number of horizontal lines h is
at most the number of vertical lines v (the sweep cost is exponential in h
only). Normalization swaps the two coordinate axes; ``HananGrid.transposed``
records the swap and ``point_at`` maps grid positions back to original
coordinates.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import (
    CoordinateRangeError,
    CountMismatchError,
    EmptyInstanceError,
    GuardExceeded,
    MalformedLineError,
    NonIntegerCoordinateError,
)

COORD_LIMIT = 2**31  # keeps every tour length inside a 63-bit accumulator

MAX_GRID_VERTICES = 10**7


class Point(NamedTuple):
    x: int
    y: int


def l1(p: Point, q: Point) -> int:
    """Manhattan distance |px-qx| + |py-qy|."""
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


@dataclass(frozen=True)
class Instance:
    """A deduplicated set of integer points (duplicates are merged: a tour
    or tree visiting a point visits all of its copies)."""

    points: tuple[Point, ...]

    def __post_init__(self):
        if not self.points:
            raise EmptyInstanceError("instance has no points")


def make_instance(coords: Iterable[tuple[int, int]]) -> Instance:
    """Build an Instance from raw (x, y) pairs of integers (numpy integers
    too), dropping repeats."""
    seen: dict[Point, None] = {}
    for x, y in coords:
        try:
            point = Point(operator.index(x), operator.index(y))
        except TypeError:
            raise NonIntegerCoordinateError(
                f"coordinate is not an integer: ({x!r}, {y!r})"
            ) from None
        _check_coord(*point, line=None)
        seen.setdefault(point)
    return Instance(points=tuple(seen))


def _check_coord(x: int, y: int, line: int | None):
    if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
        raise CoordinateRangeError(f"coordinate out of range: {x} {y}", line)


def _long_coord(token: str, line: int) -> int:
    """A signed decimal token of any length as an int. One with more
    significant digits than COORD_LIMIT is out of range, and is refused on
    its length alone."""
    digits = token.lstrip("+-").lstrip("0")
    if len(digits) > len(str(COORD_LIMIT)):
        raise CoordinateRangeError(
            f"coordinate out of range: a {len(digits)}-digit value", line
        )
    value = int(digits or "0")
    return -value if token.startswith("-") else value


_POINT_LINE = re.compile(r"^([+-]?\d+) ([+-]?\d+)$")


def parse_instance(text: str) -> Instance:
    """Parse the instance file format.

    First significant line is the declared point count n, followed by n
    lines of "x y" (two signed decimal integers, one space). Lines starting
    with '#' are comments; blank lines are skipped.
    """
    declared: int | None = None
    coords: list[tuple[int, int]] = []
    lines_seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        if declared is None:
            try:
                declared = int(line)
            except ValueError:
                raise MalformedLineError(f"expected point count, got {line!r}", lineno)
            if declared == 0:
                raise EmptyInstanceError("declared point count is 0", lineno)
            if declared < 0:
                raise MalformedLineError(f"negative point count {declared}", lineno)
            continue
        m = _POINT_LINE.match(line)
        if not m:
            raise MalformedLineError(f"expected 'x y', got {line!r}", lineno)
        try:
            x, y = int(m.group(1)), int(m.group(2))
        except ValueError:  # int() refuses more than 4300 digits
            x, y = _long_coord(m.group(1), lineno), _long_coord(m.group(2), lineno)
        _check_coord(x, y, lineno)
        lines_seen += 1
        if lines_seen > declared:
            raise CountMismatchError(
                f"more than the declared {declared} points", lineno
            )
        coords.append((x, y))
    if declared is None:
        raise EmptyInstanceError("no point count found")
    if lines_seen != declared:
        raise CountMismatchError(
            f"declared {declared} points but found {lines_seen}"
        )
    return make_instance(coords)


def write_instance(instance: Instance) -> str:
    """Serialize back to the file format (deduplicated points)."""
    lines = [str(len(instance.points))]
    lines.extend(f"{p.x} {p.y}" for p in instance.points)
    return "\n".join(lines) + "\n"


class EdgeEvent(NamedTuple):
    """One grid segment in the sweep schedule.

    Rows and columns are 1-based in the normalized grid. ``kind`` is "V"
    for the segment between rows (row, row+1) of column col, "H" for the
    segment between columns (col, col+1) of row row.
    """

    kind: str
    row: int
    col: int
    length: int


@dataclass(frozen=True)
class HananGrid:
    """Normalized coordinate grid through all instance points.

    ``xs``/``ys`` are the distinct column/row coordinates after the h <= v
    swap; ``terminal[i-1][j-1]`` flags instance points at (row i, col j).
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    terminal: tuple[tuple[bool, ...], ...]
    transposed: bool

    @property
    def h(self) -> int:
        return len(self.ys)

    @property
    def v(self) -> int:
        return len(self.xs)

    def is_terminal(self, row: int, col: int) -> bool:
        return self.terminal[row - 1][col - 1]

    def point_at(self, row: int, col: int) -> Point:
        """Original-coordinate point at normalized (row, col), 1-based."""
        sx, sy = self.xs[col - 1], self.ys[row - 1]
        return Point(sy, sx) if self.transposed else Point(sx, sy)

    def terminal_rows_last_col(self) -> tuple[bool, ...]:
        return tuple(self.terminal[i][self.v - 1] for i in range(self.h))


def check_grid_size(h: int, v: int):
    """Raise GuardExceeded for a grid of more than MAX_GRID_VERTICES."""
    if h * v > MAX_GRID_VERTICES:
        raise GuardExceeded(
            f"grid would have {h * v} vertices (limit {MAX_GRID_VERTICES})"
        )


def build_grid(instance: Instance) -> HananGrid:
    """Construct the normalized Hanan grid of an instance. Raises
    GuardExceeded when it would have more than MAX_GRID_VERTICES vertices."""
    xs = sorted({p.x for p in instance.points})
    ys = sorted({p.y for p in instance.points})
    transposed = len(ys) > len(xs)
    if transposed:
        xs, ys = ys, xs
        pts = [(p.y, p.x) for p in instance.points]
    else:
        pts = [(p.x, p.y) for p in instance.points]
    h, v = len(ys), len(xs)
    check_grid_size(h, v)
    col_of = {x: j for j, x in enumerate(xs)}
    row_of = {y: i for i, y in enumerate(ys)}
    mask = [[False] * v for _ in range(h)]
    for x, y in pts:
        mask[row_of[y]][col_of[x]] = True
    return HananGrid(
        xs=tuple(xs),
        ys=tuple(ys),
        terminal=tuple(tuple(r) for r in mask),
        transposed=transposed,
    )


class EdgeSchedule(Sequence):
    """The fixed processing order of a grid's segments, as a sequence of
    EdgeEvents that are made only when read: per column, verticals
    bottom-to-top, then the horizontals to the next column bottom-to-top.

    Total event count is (h-1)*v + (v-1)*h = 2hv - h - v.
    """

    def __init__(self, grid: HananGrid):
        self.grid = grid
        self._h = grid.h
        self._count = 2 * grid.h * grid.v - grid.h - grid.v

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, e: int) -> EdgeEvent:
        if e < 0:
            e += self._count
        if not 0 <= e < self._count:
            raise IndexError("event index out of range")
        grid, h = self.grid, self._h
        col, i = divmod(e, 2 * h - 1)
        if i < h - 1:
            return EdgeEvent("V", i + 1, col + 1, grid.ys[i + 1] - grid.ys[i])
        return EdgeEvent("H", i - h + 2, col + 1, grid.xs[col + 1] - grid.xs[col])


def edge_schedule(grid: HananGrid) -> EdgeSchedule:
    """The grid's events in sweep order (``EdgeSchedule``)."""
    return EdgeSchedule(grid)
