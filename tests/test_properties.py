"""Property tests with hypothesis: the two input parsers on arbitrary and
near-miss text, and both solvers on small generated instances."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rectisolve.errors import InputError
from rectisolve.geometry import COORD_LIMIT, l1, make_instance, parse_instance
from rectisolve.oracle import steiner_oracle, tsp_bruteforce
from rectisolve.solution import parse_solution
from rectisolve.steiner import solve_steiner
from rectisolve.tsp import solve_tsp

from reference_oracles import l1_mst

# deterministic runs, and nothing written next to the tests
FUZZ = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# tokens that each parser almost accepts
TOKENS = st.one_of(
    st.integers(-(2**32), 2**32).map(str),
    st.sampled_from([  # past the coordinate limit, or past int()'s 4300 digits
        "2147483649", "-2147483649", "9" * 5000, "0" * 5000 + "1", "-" + "1" * 4301,
    ]),
    st.sampled_from([
        "-0", "+3", "007", "x", "1.5", "1e3", "", "-", "+", "_1", "1_0",
        "\u0661", "length", "V", "H", "#",
    ]),
)
SEPARATORS = st.one_of(st.just(" "), st.sampled_from(["  ", "\t", "", " \r", "\x0c"]))
JUNK = st.text(max_size=8)


def joined(*parts):
    """One line: the parts with a drawn separator between each two."""
    pieces = [parts[0]]
    for part in parts[1:]:
        pieces += [SEPARATORS, part]
    return st.tuples(*pieces).map("".join)


def lines(first, line):
    """A first line, or junk, then up to five lines."""
    body = st.lists(line, max_size=5)
    return st.tuples(st.one_of(first, JUNK), body).map(
        lambda t: "\n".join([t[0], *t[1]])
    )


COUNTS = st.one_of(st.integers(1, 4).map(str), TOKENS)
INSTANCE_TEXT = lines(COUNTS, joined(TOKENS, TOKENS))
KINDS = st.sampled_from(["V", "H", "length", "X"])
SOLUTION_TEXT = lines(
    joined(st.just("length"), TOKENS),
    st.one_of(joined(KINDS, TOKENS), joined(KINDS, TOKENS, TOKENS, TOKENS)),
)


def parses_or_refuses(parse, text):
    """The parser returns, or raises InputError; any other exception fails."""
    try:
        return parse(text)
    except InputError:
        return None


@FUZZ
@given(st.one_of(st.text(), INSTANCE_TEXT))
def test_parse_instance_only_raises_input_error(text):
    inst = parses_or_refuses(parse_instance, text)
    if inst is not None:
        assert inst.points
        assert all(max(abs(x), abs(y)) <= COORD_LIMIT for x, y in inst.points)


@FUZZ
@given(st.one_of(st.text(), SOLUTION_TEXT))
def test_parse_solution_only_raises_input_error(text):
    parsed = parses_or_refuses(parse_solution, text)
    if parsed is not None:
        length, raw = parsed
        assert isinstance(length, int)
        assert all(row[0] in ("V", "H") and len(row) == 4 for row in raw)


@st.composite
def small_instances(draw):
    """Up to 7 points on up to 4 rows: duplicates, collinear points, a
    single row and negative coordinates all occur."""
    ys = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=4, unique=True))
    xs = st.integers(-15, 15)
    points = draw(st.lists(st.tuples(xs, st.sampled_from(ys)), min_size=2, max_size=7))
    return make_instance(points)


OFFSETS = st.integers(-(10**6), 10**6)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(small_instances(), OFFSETS, OFFSETS)
def test_solvers_on_generated_instances(inst, dx, dy):
    solution = solve_tsp(inst)
    tour = solution.length
    tree = solve_steiner(inst).length
    assert tour == tsp_bruteforce(inst)
    assert tree == steiner_oracle(inst)
    assert tree <= tour
    assert tree <= l1_mst(inst)
    walk = solution.tour
    assert walk[0] == walk[-1] and set(inst.points) <= set(walk)
    assert sum(l1(a, b) for a, b in zip(walk, walk[1:])) == tour
    for points in (
        [(-x, y) for x, y in inst.points],  # mirror: the sweep runs the other way
        [(y, x) for x, y in inst.points],  # transpose
        [(x + dx, y + dy) for x, y in inst.points],  # translate
    ):
        moved = make_instance(points)
        assert solve_tsp(moved).length == tour
        assert solve_steiner(moved).length == tree
