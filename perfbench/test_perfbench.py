"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import dataclasses
import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, instance_text, request_points  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_same_seed_same_instance_text():
    for workload in WORKLOADS.values():
        for child in (None, 0, 2):
            a = instance_text(request_points(workload, 7, child, 3))
            b = instance_text(request_points(workload, 7, child, 3))
            assert a == b
            assert a != instance_text(request_points(workload, 8, child, 3))


def test_instance_shape():
    for workload in WORKLOADS.values():
        points = request_points(workload, 1, 0, 0)
        assert len(points) == workload.n
        assert len({x for x, _ in points}) == workload.n
        rows = Counter(y for _, y in points)
        assert len(rows) == workload.h and min(rows.values()) >= 2


def test_benchmark_json_names_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(i) for i in range(1, 21)]) == (50, 10.0)
    with pytest.raises(run.BenchError):
        run.tail([1.0] * 10)


SQUARE = [(0, 0), (2, 0), (0, 1), (2, 1)]


def test_replay_accepts_valid_and_rejects_corrupted():
    tour = "length 6\nV 1 1 1\nV 1 2 1\nH 1 1 1\nH 2 1 1\n"
    walk = [(0, 0), (2, 0), (2, 1), (0, 1), (0, 0)]
    replay.check("tsp", SQUARE, 6, tour, walk)
    bad = {
        "wrong length line": ("length 7\nV 1 1 1\nV 1 2 1\nH 1 1 1\nH 2 1 1\n", 7),
        "dropped edge": ("length 5\nV 1 1 1\nH 1 1 1\nH 2 1 1\n", 5),
        "odd degree": ("length 7\nV 1 1 2\nV 1 2 1\nH 1 1 1\nH 2 1 1\n", 7),
        "off grid": ("length 6\nV 2 1 1\nV 1 2 1\nH 1 1 1\nH 2 1 1\n", 6),
    }
    for text, optimum in bad.values():
        with pytest.raises(replay.ReplayError):
            replay.check("tsp", SQUARE, optimum, text)
    with pytest.raises(replay.ReplayError):
        replay.check("tsp", SQUARE, 6, tour, walk[:-1])
    with pytest.raises(replay.ReplayError):
        replay.check("tsp", SQUARE, 6, tour, [(0, 0), (2, 1), (0, 1), (0, 0)])

    tree = "length 4\nV 1 1 1\nV 1 2 1\nH 1 1 1\n"
    replay.check("steiner", SQUARE, 4, tree)
    with pytest.raises(replay.ReplayError):  # cycle
        replay.check("steiner", SQUARE, 6, tour)
    with pytest.raises(replay.ReplayError):  # uncovered point
        replay.check("steiner", SQUARE, 3, "length 3\nV 1 1 1\nH 1 1 1\n")
    with pytest.raises(replay.ReplayError):  # below the 2/3 MST bound
        replay.check("steiner", SQUARE, 2, "length 2\n", edges_expected=False)
    replay.check("steiner", SQUARE, 4, "length 4\n", edges_expected=False)


def test_format_edges_round_trip():
    text = "length 6\nV 1 1 1\nV 1 2 1\nH 1 1 1\nH 2 1 1\n"
    length, edges = replay.parse_edges(text, SQUARE)
    assert replay.parse_edges(replay.format_edges(length, edges, SQUARE), SQUARE) == (length, edges)


def test_golden_mismatch_fails_the_request():
    tour = "length 6\nV 1 1 1\nV 1 2 1\nH 1 1 1\nH 2 1 1\n"
    walk = [(0, 0), (2, 0), (2, 1), (0, 1), (0, 0)]
    good = worker.digest(tour, walk, None)
    spec = {"workload": dataclasses.asdict(WORKLOADS["tsp-h7-trace"]), "seed": 1,
            "golden": {"a": [6, good], "b": [6, "0" * 64], "c": [7, good]}}
    runner = worker.Runner(None, spec)
    for key in "abc":
        runner.verify(key, "tsp", SQUARE, (6, tour, walk, None), None, 0.1, False, True)
    assert [r["error"] is None for r in runner.records] == [True, False, False]


def test_compare_verdicts():
    base = {s: 1.0 + 0.01 * s for s in range(10)}
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, "lower", 0.2)[0] == "worse"
    assert compare.verdict(base, {s: v * 0.5 for s, v in base.items()}, "lower", 0.2)[0] == "better"
    assert compare.verdict(base, {s: v * 0.5 for s, v in base.items()}, "higher", 0.2)[0] == "worse"
    assert compare.verdict(base, dict(base), "lower", 0.2)[0] == "same"
    noisy = {s: (1.0 if s % 2 else 2.0) for s in range(10)}
    assert compare.verdict(base, noisy, "lower", 0.2)[0] == "unresolved"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_tiny(name):
    """Each workload at tiny size: no request fails, and the printed
    metrics are exactly those BENCHMARK.json lists, with its units."""
    tiny = dataclasses.replace(WORKLOADS[name], name=f"smoke-{name}", n=12, h=3)
    for trace, listed in ((False, BENCH["end_to_end"]), (True, BENCH["per_layer"])):
        report = run.run_workload(tiny, 5, 0.6, trace, time.perf_counter() + 60)
        assert report["attempted"] > 0 and report["failed"] == 0
        line = run.result_line([report], listed)
        assert line["correct"] and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            e["name"]: e["unit"] for e in listed}
        if not trace:
            assert report["metrics"]["success_ratio"][0] == 1.0
