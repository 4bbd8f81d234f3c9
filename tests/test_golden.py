"""Byte-identical answers: each benchmark workload's warm-up requests and
its first timed request, solved through the benchmark's own request path,
give the optimum and solution digest pinned in perfbench/golden.json."""

import json
import sys
from pathlib import Path

import pytest

import rectisolve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, instance_text, request_key  # noqa: E402
from workloads import request_points  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def requests():
    for workload in WORKLOADS.values():
        streams = [(None, i) for i in range(workload.warmup)] + [(0, 0)]
        for child, index in streams:
            yield pytest.param(workload, child, index, id=request_key(
                workload.name, DEFAULT_SEED, child, index))


@pytest.mark.parametrize("workload, child, index", requests())
def test_answer_matches_golden(workload, child, index):
    key = request_key(workload.name, DEFAULT_SEED, child, index)
    points = request_points(workload, DEFAULT_SEED, child, index)
    problem = workload.problem(index)
    length, solution, walk, picture = worker.solve_request(
        rectisolve, problem, instance_text(points), workload.trace, workload.svg
    )
    walk = [tuple(p) for p in walk] if walk is not None else None
    assert [length, worker.digest(solution, walk, picture)] == GOLDEN[key]
