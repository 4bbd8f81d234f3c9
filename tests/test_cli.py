import time

import pytest

from rectisolve import geometry, tables
from rectisolve.cli import main
from rectisolve.generate import gen_instance
from rectisolve.geometry import parse_instance, write_instance
from rectisolve.states import count_states

from reference_oracles import tsp_bruteforce


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_instance_file(tmp_path, text, name="inst.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SQUARE = "4\n0 0\n10 0\n0 5\n10 5\n"


def test_solve_tsp(tmp_path, capsys):
    inst = write_instance_file(tmp_path, SQUARE)
    out_file = tmp_path / "sol.txt"
    svg_file = tmp_path / "sol.svg"
    code, out, _ = run(
        capsys, "solve-tsp", "--input", inst,
        "--output", str(out_file), "--svg", str(svg_file),
    )
    assert code == 0
    assert out.splitlines()[0] == "length 30"
    assert "tour" in out
    sol_text = out_file.read_text()
    assert sol_text.startswith("length 30\n")
    assert svg_file.read_text().count("<circle") == 4


def test_solve_tsp_no_trace(tmp_path, capsys):
    inst = write_instance_file(tmp_path, SQUARE)
    code, out, _ = run(capsys, "solve-tsp", "--input", inst, "--no-trace")
    assert code == 0
    assert "length 30" in out
    assert "tour" not in out


def test_solve_steiner(tmp_path, capsys):
    inst = write_instance_file(tmp_path, "2\n0 0\n8 3\n")
    code, out, _ = run(capsys, "solve-steiner", "--input", inst)
    assert code == 0
    assert out.splitlines()[0] == "length 11"


@pytest.mark.parametrize("command", ["solve-tsp", "solve-steiner"])
@pytest.mark.parametrize("flag", ["--output", "--svg"])
def test_no_trace_refuses_solution_files(tmp_path, capsys, command, flag):
    # rolling mode makes no solution, so a file asked for is refused up
    # front rather than silently left unwritten
    inst = write_instance_file(tmp_path, SQUARE)
    target = tmp_path / "out"
    code, out, err = run(
        capsys, command, "--input", inst, "--no-trace", flag, str(target)
    )
    assert code == 2
    assert flag in err and "--no-trace" in err
    assert out == "" and not target.exists()


def test_states_and_count(capsys):
    code, out, _ = run(capsys, "states", "--problem", "tsp", "--h", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 24
    assert "{(E,E,E),(1,2,3)}" in lines
    code, out, _ = run(capsys, "count", "--problem", "tsp", "--h", "8")
    assert code == 0 and out.strip() == "95200"


def test_count_prints_every_digit(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "count", "--problem", "tsp", "--h", "6000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    digits = out.strip()
    assert len(digits) == 5000 and digits.isdigit()
    assert digits[-4:] == f"{count_states(6000, 'tsp') % 10**4:04d}"


def test_gen_deterministic(tmp_path, capsys):
    args = ["gen", "--n", "20", "--h", "4", "--seed", "7"]
    code, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "20"


def test_gen_guard_refuses_at_once(capsys, monkeypatch):
    # 1 000 000 columns over 11 rows: a grid past the 10**7 vertices that
    # every solve refuses, so it is refused before any point is drawn
    t0 = time.perf_counter()
    code, out, err = run(capsys, "gen", "--n", "1000000", "--h", "11", "--seed", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert "guard" in err and "11000000 vertices" in err
    # the limit itself is allowed
    monkeypatch.setattr(geometry, "MAX_GRID_VERTICES", 12)
    assert run(capsys, "gen", "--n", "4", "--h", "3", "--seed", "1")[0] == 0
    assert run(capsys, "gen", "--n", "13", "--h", "1", "--seed", "1")[0] == 3


def test_gen_solve_pipeline(tmp_path, capsys):
    inst_file = tmp_path / "gen.txt"
    code, _, _ = run(
        capsys, "gen", "--n", "10", "--h", "3", "--seed", "3",
        "--output", str(inst_file),
    )
    assert code == 0
    code, out_solve, _ = run(capsys, "solve-tsp", "--input", str(inst_file))
    assert code == 0
    want = tsp_bruteforce(parse_instance(inst_file.read_text()))
    assert out_solve.splitlines()[0] == f"length {want}"


def test_render(tmp_path, capsys):
    inst = write_instance_file(tmp_path, "3\n0 0\n4 0\n2 3\n")
    svg_file = tmp_path / "plain.svg"
    code, _, _ = run(capsys, "render", "--input", inst, "--svg", str(svg_file))
    assert code == 0
    first = svg_file.read_text()
    assert first.count("<circle") == 3
    code, _, _ = run(capsys, "render", "--input", inst, "--svg", str(svg_file))
    assert svg_file.read_text() == first  # byte-identical


def test_render_with_solution(tmp_path, capsys):
    inst = write_instance_file(tmp_path, "2\n0 0\n4 0\n")
    sol = tmp_path / "sol.txt"
    svg_file = tmp_path / "sol.svg"
    run(capsys, "solve-tsp", "--input", inst, "--output", str(sol))
    code, _, _ = run(
        capsys, "render", "--input", inst, "--solution", str(sol),
        "--svg", str(svg_file),
    )
    assert code == 0
    assert svg_file.read_text().count('stroke="#1f77b4"') == 2


def test_exit_code_invalid_input(tmp_path, capsys):
    bad = write_instance_file(tmp_path, "2\n0 0\nx y\n")
    code, _, err = run(capsys, "solve-tsp", "--input", bad)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("length abc\n", 1),
        ("length 30\nV 1 x 1\n", 2),
        ("length 30\nH 1 1 " + "1" * 5000 + "\n", 2),  # past int()'s limit
    ],
    ids=["length", "field", "5000-digits"],
)
def test_render_malformed_solution_exits_2(tmp_path, capsys, text, lineno):
    inst = write_instance_file(tmp_path, SQUARE)
    sol = tmp_path / "sol.txt"
    sol.write_text(text)
    code, _, err = run(
        capsys, "render", "--input", inst, "--solution", str(sol),
        "--svg", str(tmp_path / "sol.svg"),
    )
    assert code == 2
    assert f"solution line {lineno}: cannot parse" in err


@pytest.mark.parametrize(
    "edge, message",
    [
        ("V 0 1 1", "edge V 0 1 is not on the instance grid"),
        ("H 1 -1 1", "edge H 1 -1 is not on the instance grid"),
        ("V 2 1 1", "edge V 2 1 is not on the instance grid"),  # SQUARE has 2 rows
        ("H 1 2 1", "edge H 1 2 is not on the instance grid"),  # and 2 columns
        ("H 1 1 3", "solution line 2: multiplicity 3 not 1 or 2"),
        ("H 1 1 0", "solution line 2: multiplicity 0 not 1 or 2"),
    ],
)
def test_render_refuses_an_edge_off_the_grid_or_of_bad_multiplicity(
    tmp_path, capsys, edge, message
):
    inst = write_instance_file(tmp_path, SQUARE)
    sol = tmp_path / "sol.txt"
    sol.write_text(f"length 10\n{edge}\n")
    code, _, err = run(
        capsys, "render", "--input", inst, "--solution", str(sol),
        "--svg", str(tmp_path / "sol.svg"),
    )
    assert code == 2
    assert message in err


def test_huge_coordinate_exits_2(tmp_path, capsys):
    inst = write_instance_file(tmp_path, "2\n0 0\n" + "7" * 5000 + " 1\n")
    code, _, err = run(capsys, "solve-tsp", "--input", inst)
    assert code == 2
    assert "line 3: coordinate out of range" in err


def test_exit_code_missing_file(capsys):
    code, _, _ = run(capsys, "solve-tsp", "--input", "/nonexistent/file.txt")
    assert code == 2


def diagonal(n):
    """n points with n distinct x and n distinct y, so h = n."""
    return f"{n}\n" + "".join(f"{i} {i}\n" for i in range(n))


def test_exit_code_guard(tmp_path, capsys):
    # 3163 diagonal points span a 3163 x 3163 grid, past the 10**7 limit
    inst = write_instance_file(tmp_path, diagonal(3163))
    for command in ("solve-tsp", "solve-steiner"):
        t0 = time.perf_counter()
        code, _, err = run(capsys, command, "--input", inst)
        assert time.perf_counter() - t0 < 1.0, command
        assert code == 3, command
        assert "grid would have 10004569 vertices" in err, command
    code, _, _ = run(capsys, "states", "--problem", "tsp", "--h", "14")
    assert code == 3


@pytest.mark.parametrize("command", ["states", "count"])
def test_h_below_one_is_invalid_input(capsys, command):
    code, _, err = run(capsys, command, "--problem", "tsp", "--h", "0")
    assert code == 2
    assert "h must be >= 1" in err


@pytest.mark.parametrize(
    "command, points, extra",
    [
        ("solve-tsp", 10, ()),  # tsp h=10: 3 248 704 states
        ("solve-steiner", 12, ()),  # steiner h=12: 4 302 645 states
        ("states", None, ("--problem", "tsp", "--h", "10")),
        ("states", None, ("--problem", "tsp", "--h", "6000")),  # count: 5000 digits
        ("count", None, ("--problem", "tsp", "--h", "1000000000")),
    ],
)
def test_state_space_guard_refuses_at_once(tmp_path, capsys, command, points, extra):
    args = [command, *extra]
    if points is not None:
        args += ["--input", write_instance_file(tmp_path, diagonal(points))]
    t0 = time.perf_counter()
    code, _, err = run(capsys, *args)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert "guard" in err


@pytest.mark.parametrize(
    "command, problem, n, h",
    [("solve-tsp", "tsp", 1200, 9), ("solve-steiner", "steiner", 550, 11)],
)
def test_work_guard_refuses_long_rolling_sweeps_at_once(
    tmp_path, capsys, command, problem, n, h
):
    # tsp: 20 391 events x 551 616 states; steiner: 11 539 x 974 427
    events = 2 * h * n - h - n
    per_event = count_states(h, problem) + tables._EVENT_COST
    assert events * per_event > tables.MAX_STATE_EVENTS
    # the desk-scale edge, steiner n=50 h=11, stays inside the limit
    edge = (2 * 11 * 50 - 61) * (count_states(11, "steiner") + tables._EVENT_COST)
    assert edge <= tables.MAX_STATE_EVENTS
    text = write_instance(gen_instance(n, h, 4 * n, 4 * h, 1))
    inst = write_instance_file(tmp_path, text)
    t0 = time.perf_counter()
    code, _, err = run(capsys, command, "--no-trace", "--input", inst)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert "guard" in err and "state-events" in err


def test_work_guard_counts_each_events_fixed_cost(tmp_path, capsys, monkeypatch):
    # tsp h=2 over 300 columns: 898 events x 6 states are far inside a
    # limit of 10**6 state-events, but each event's fixed cost is not
    text = write_instance(gen_instance(300, 2, 1200, 8, 1))
    inst = write_instance_file(tmp_path, text)
    assert 898 * count_states(2, "tsp") <= 10**6

    def no_space(problem, h):
        raise AssertionError("the state space was enumerated")

    monkeypatch.setattr(tables, "MAX_STATE_EVENTS", 10**6)
    monkeypatch.setattr(tables, "_TABLES", {})  # no cached tables to hide a call
    monkeypatch.setattr(tables, "get_space", no_space)
    t0 = time.perf_counter()
    code, _, err = run(capsys, "solve-tsp", "--no-trace", "--input", inst)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert "guard" in err and "898 events" in err


def test_trace_byte_guard_exits_3(tmp_path, capsys):
    # tsp h=9 over 1000 columns: up to about 4.7 GB of tight bits
    text = write_instance(gen_instance(1000, 9, 4000, 36, 1))
    inst = write_instance_file(tmp_path, text)
    t0 = time.perf_counter()
    code, _, err = run(capsys, "solve-tsp", "--input", inst)
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert "guard" in err and "bytes" in err


def test_trace_byte_guard_refuses_before_enumerating(tmp_path, capsys, monkeypatch):
    # tsp h=9 over 1000 columns: 16 991 events x 551 616 states pass the
    # work guard, and their tight bits may need 275 808 bytes an event
    text = write_instance(gen_instance(1000, 9, 4000, 36, 1))
    inst = write_instance_file(tmp_path, text)

    def no_space(problem, h):
        raise AssertionError("the state space was enumerated")

    monkeypatch.setattr(tables, "_TABLES", {})  # no cached tables to hide a call
    monkeypatch.setattr(tables, "get_space", no_space)
    code, _, err = run(capsys, "solve-tsp", "--input", inst)
    assert code == 3
    assert "guard" in err and "4686253728 bytes" in err
