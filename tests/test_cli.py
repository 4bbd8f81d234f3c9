import time

import pytest

from rectisolve.cli import main
from rectisolve.states import count_states


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


def test_oracles(tmp_path, capsys):
    inst = write_instance_file(tmp_path, SQUARE)
    code, out, _ = run(capsys, "oracle-tsp", "--input", inst)
    assert code == 0 and out.strip() == "30"
    code, out, _ = run(capsys, "oracle-steiner", "--input", inst)
    assert code == 0 and out.strip() == "20"  # 10 + 2*5 for the 10x5 box


def test_oracles_on_one_point(tmp_path, capsys):
    inst = write_instance_file(tmp_path, "1\n3 7\n")
    for command in ("oracle-tsp", "oracle-steiner"):
        code, out, _ = run(capsys, command, "--input", inst)
        assert code == 0 and out.strip() == "0", command


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


def test_gen_solve_pipeline(tmp_path, capsys):
    inst_file = tmp_path / "gen.txt"
    code, _, _ = run(
        capsys, "gen", "--n", "10", "--h", "3", "--seed", "3",
        "--output", str(inst_file),
    )
    assert code == 0
    code, out_solve, _ = run(capsys, "solve-tsp", "--input", str(inst_file))
    code2, out_oracle, _ = run(capsys, "oracle-tsp", "--input", str(inst_file))
    assert code == code2 == 0
    assert out_solve.splitlines()[0] == f"length {out_oracle.strip()}"


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


def test_huge_coordinate_exits_2(tmp_path, capsys):
    inst = write_instance_file(tmp_path, "2\n0 0\n" + "7" * 5000 + " 1\n")
    code, _, err = run(capsys, "solve-tsp", "--input", inst)
    assert code == 2
    assert "line 3: coordinate out of range" in err


def test_exit_code_missing_file(capsys):
    code, _, _ = run(capsys, "solve-tsp", "--input", "/nonexistent/file.txt")
    assert code == 2


def test_exit_code_guard(tmp_path, capsys):
    inst = write_instance_file(
        tmp_path, "12\n" + "".join(f"{i} {i % 3}\n" for i in range(12))
    )
    code, _, err = run(capsys, "oracle-tsp", "--input", inst)
    assert code == 3
    assert "guard" in err
    code, _, _ = run(capsys, "states", "--problem", "tsp", "--h", "14")
    assert code == 3



def diagonal(n):
    """n points with n distinct x and n distinct y, so h = n."""
    return f"{n}\n" + "".join(f"{i} {i}\n" for i in range(n))


@pytest.mark.parametrize(
    "command, points, extra",
    [
        ("solve-tsp", 10, ()),  # tsp h=10: 3 248 704 states
        ("solve-steiner", 12, ()),  # steiner h=12: 4 302 645 states
        ("states", None, ("--problem", "tsp", "--h", "10")),
        ("states", None, ("--problem", "tsp", "--h", "6000")),  # count: 5000 digits
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
