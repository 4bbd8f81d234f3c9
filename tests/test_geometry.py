import math
import random

import numpy as np
import pytest

from rectisolve.errors import (
    CoordinateRangeError,
    CountMismatchError,
    EmptyInstanceError,
    GuardExceeded,
    MalformedLineError,
    NonIntegerCoordinateError,
)
from rectisolve.geometry import (
    COORD_LIMIT,
    MAX_GRID_VERTICES,
    EdgeEvent,
    Point,
    build_grid,
    edge_schedule,
    l1,
    make_instance,
    parse_instance,
    write_instance,
)


class TestParseInstance:
    def test_duplicates_merged(self):
        inst = parse_instance("3\n0 0\n2 1\n0 0\n")
        assert inst.points == (Point(0, 0), Point(2, 1))

    def test_single_point(self):
        inst = parse_instance("1\n5 7\n")
        assert inst.points == (Point(5, 7),)

    def test_malformed_line(self):
        with pytest.raises(MalformedLineError) as err:
            parse_instance("2\n0 0\nx y\n")
        assert err.value.line == 3

    def test_comments_and_missing_trailing_newline(self):
        inst = parse_instance("# header\n2\n0 0\n# middle\n1 -4")
        assert inst.points == (Point(0, 0), Point(1, -4))

    def test_count_mismatch(self):
        with pytest.raises(CountMismatchError):
            parse_instance("3\n0 0\n1 1\n")
        with pytest.raises(CountMismatchError):
            parse_instance("1\n0 0\n1 1\n")

    def test_zero_points(self):
        with pytest.raises(EmptyInstanceError):
            parse_instance("0\n")

    def test_strict_separator(self):
        with pytest.raises(MalformedLineError):
            parse_instance("1\n0  0\n")
        with pytest.raises(MalformedLineError):
            parse_instance("1\n0\t0\n")

    def test_coordinate_range(self):
        inst = parse_instance(f"2\n{COORD_LIMIT} -{COORD_LIMIT}\n-000 +0012\n")
        assert inst.points == (Point(COORD_LIMIT, -COORD_LIMIT), Point(0, 12))
        # leading zeros do not count towards the length
        inst = parse_instance("1\n" + "0" * 5000 + "1 -" + "0" * 5000 + "2\n")
        assert inst.points == (Point(1, -2),)
        for bad in (
            f"{COORD_LIMIT + 1} 0",
            f"0 -{COORD_LIMIT + 1}",
            "9" * 20 + " 0",
            "1 " + "9" * 5000,  # past int()'s 4300-digit limit
            "-" + "1" * 5000 + " 1",
        ):
            with pytest.raises(CoordinateRangeError) as err:
                parse_instance(f"# two points\n2\n0 0\n{bad}\n")
            assert err.value.line == 4

    def test_roundtrip(self):
        inst = make_instance([(3, -1), (0, 9), (12, 12)])
        assert parse_instance(write_instance(inst)) == inst


class TestMakeInstance:
    def test_numpy_integers_accepted(self):
        inst = make_instance([(np.int64(3), np.int32(-1)), (np.int8(0), 9)])
        assert inst.points == (Point(3, -1), Point(0, 9))
        assert all(type(c) is int for p in inst.points for c in p)

    @pytest.mark.parametrize(
        "coords, shown",
        [
            ([(0.5, 0), (1.7, 0), (2.9, 1.2)], "0.5"),
            ([(0, 0), (1, math.nan)], "nan"),
            ([(0, 0), (2.0, 1)], "2.0"),  # an integral float is not an integer
            ([(np.float64(3), 1)], "3.0"),
            ([("4", 1)], "'4'"),
        ],
    )
    def test_non_integer_coordinate_refused(self, coords, shown):
        with pytest.raises(NonIntegerCoordinateError, match="not an integer") as err:
            make_instance(coords)
        assert shown in str(err.value)


class TestBuildGrid:
    def test_basic(self):
        g = build_grid(make_instance([(0, 0), (2, 1), (1, 3)]))
        assert g.xs == (0, 1, 2) and g.ys == (0, 1, 3)
        assert g.h == 3 and g.v == 3 and not g.transposed

    def test_transposition_normalizes(self):
        g = build_grid(make_instance([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]))
        assert g.transposed and g.h == 2 and g.v == 3

    def test_single_row(self):
        g = build_grid(make_instance([(0, 0), (10, 0)]))
        assert g.h == 1 and g.v == 2

    def test_grid_limit(self):
        # an L of 3163 + 3162 points spans a 3163 x 3163 grid, just past
        # MAX_GRID_VERTICES; it is refused before the grid is laid out
        assert 3162**2 <= MAX_GRID_VERTICES < 3163**2
        pts = [(i, 0) for i in range(3163)] + [(0, j) for j in range(1, 3163)]
        with pytest.raises(GuardExceeded, match="grid would have 10004569 vertices"):
            build_grid(make_instance(pts))

    def test_point_at_inverts_normalization(self):
        rng = random.Random(4)
        for _ in range(25):
            pts = {(rng.randint(-20, 20), rng.randint(-20, 20))
                   for _ in range(rng.randint(1, 12))}
            inst = make_instance(sorted(pts))
            g = build_grid(inst)
            mapped = {
                g.point_at(i + 1, j + 1)
                for i in range(g.h)
                for j in range(g.v)
                if g.terminal[i][j]
            }
            assert mapped == set(inst.points)


class TestEdgeSchedule:
    def test_counts(self):
        g = build_grid(make_instance([(j, i) for i in range(3) for j in range(4)]))
        assert (g.h, g.v) == (3, 4)
        assert len(edge_schedule(g)) == 17

    def test_single_row_is_all_horizontal(self):
        g = build_grid(make_instance([(i * i, 0) for i in range(1, 6)]))
        events = edge_schedule(g)
        assert len(events) == 4
        assert all(e.kind == "H" for e in events)

    def test_two_by_two_order(self):
        g = build_grid(make_instance([(0, 0), (1, 1)]))
        assert list(edge_schedule(g)) == [
            EdgeEvent("V", 1, 1, 1),
            EdgeEvent("H", 1, 1, 1),
            EdgeEvent("H", 2, 1, 1),
            EdgeEvent("V", 1, 2, 1),
        ]
        # each event is made when read, from either end
        events = edge_schedule(g)
        assert events[-1] == events[3] and events[-4] == events[0]
        with pytest.raises(IndexError):
            events[4]

    def test_count_formula(self):
        rng = random.Random(11)
        for _ in range(30):
            h = rng.randint(1, 6)
            v = rng.randint(h, 9)
            pts = [(j * 3, i * 2) for i in range(h) for j in range(v)]
            g = build_grid(make_instance(pts))
            assert len(edge_schedule(g)) == 2 * g.h * g.v - g.h - g.v

    def test_positive_lengths(self):
        g = build_grid(make_instance([(0, 0), (7, 3), (2, 9)]))
        assert all(e.length > 0 for e in edge_schedule(g))


class TestL1:
    def test_examples(self):
        assert l1(Point(0, 0), Point(3, 4)) == 7
        assert l1(Point(5, 5), Point(5, 5)) == 0
        assert l1(Point(-2, 1), Point(1, -3)) == 7

    def test_metric_properties(self):
        rng = random.Random(99)
        for _ in range(200):
            p, q, r = (
                Point(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(3)
            )
            assert l1(p, q) >= 0
            assert l1(p, q) == l1(q, p)
            assert l1(p, r) <= l1(p, q) + l1(q, r)
