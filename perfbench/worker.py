"""One workload process: set-up, then a closed loop of timed requests.

Run by run.py, never directly. Argument 1 is a JSON spec; the result is
written as JSON to the spec's ``result`` path. Set-up ends when the warm-up
requests have returned; run.py times set-up from its own spawn call, so
interpreter start, ``import rectisolve``, state enumeration and every table
build the workload needs are inside it.

A request goes from instance text to solution text:
parse_instance -> solve_tsp / solve_steiner -> format_solution (-> render_svg).
One caller sends requests back to back. Instance generation and the replay
check run between timed batches and are excluded from the timed wall time.
"""

import sys
import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import replay  # noqa: E402
import spans  # noqa: E402
from workloads import Workload, instance_text, request_key, request_points  # noqa: E402

MAX_BATCH = 128


def solve_request(rs, problem: str, text: str, trace: bool, svg: bool):
    """The timed unit of work. Looks every entry point up on the package at
    call time, so the tracer's wrappers are seen when installed."""
    instance = rs.parse_instance(text)
    walk = None
    if problem == "tsp":
        sol = rs.solve_tsp(instance, trace=trace)
        edges = list(sol.subgraph.edges) if trace else []
        walk = sol.tour if trace else None
    else:
        sol = rs.solve_steiner(instance, trace=trace)
        edges = list(sol.tree.edges) if trace else []
    solution = rs.format_solution(edges, sol.length)
    picture = rs.render_svg(instance, edges) if svg else None
    return sol.length, solution, walk, picture


def digest(solution: str, walk, picture) -> str:
    h = hashlib.sha256(solution.encode())
    if walk is not None:
        h.update(("tour " + " ".join(f"({x},{y})" for x, y in walk) + "\n").encode())
    if picture is not None:
        h.update(picture.encode())
    return h.hexdigest()


class Runner:
    def __init__(self, rs, spec: dict):
        self.rs = rs
        self.workload = Workload(**{**spec["workload"], "problems": tuple(spec["workload"]["problems"])})
        self.seed = spec["seed"]
        self.golden = spec["golden"]
        self.records: list[dict] = []

    def request(self, child, index: int):
        problem = self.workload.problem(index)
        points = request_points(self.workload, self.seed, child, index)
        key = request_key(self.workload.name, self.seed, child, index)
        return key, problem, points, instance_text(points)

    def send(self, text: str, problem: str):
        t0 = time.perf_counter()
        try:
            out, error = solve_request(self.rs, problem, text, self.workload.trace, self.workload.svg), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        return out, error, time.perf_counter() - t0

    def verify(self, key, problem, points, out, error, latency, traced, timed):
        record = {"key": key, "problem": problem, "latency": latency,
                  "traced": traced, "timed": timed, "optimum": None, "digest": None}
        if error is None:
            length, solution, walk, picture = out
            walk = [tuple(p) for p in walk] if walk is not None else None
            record["optimum"] = length
            record["digest"] = digest(solution, walk, picture)
            try:
                replay.check(problem, points, length, solution, walk, self.workload.trace)
            except replay.ReplayError as exc:
                error = f"replay: {exc}"
            expected = self.golden.get(key)
            if error is None and expected is not None and expected != [length, record["digest"]]:
                error = f"golden mismatch: expected {expected}, got {[length, record['digest']]}"
        record["error"] = error
        self.records.append(record)


def self_test(problem: str, points, out, edges_expected: bool):
    """Feed the replay check a corrupted copy of a real solution; it must
    reject it, or the check would pass anything."""
    length, solution, _, _ = out
    if edges_expected:
        # Drop one edge and restate the length to match, so only the
        # structural checks (cover, connectivity, parity) can catch it.
        _, edges = replay.parse_edges(solution, points)
        dropped = max(edges)
        length -= edges.pop(dropped) * replay.edge_length(dropped)
        bad_text = replay.format_edges(length, edges, points)
    else:
        length *= 2
        bad_text = f"length {length}\n"
    try:
        replay.check(problem, points, length, bad_text, None, edges_expected)
    except replay.ReplayError:
        return
    raise SystemExit("replay check accepted a corrupted solution")


def main():
    spec = json.loads(sys.argv[1])
    trace_run = bool(spec["trace"])
    t_import = time.perf_counter()
    import rectisolve as rs

    t_imported = time.perf_counter()
    src = Path(spec["src"]).resolve()
    if src not in Path(rs.__file__).resolve().parents:
        raise SystemExit(f"imported rectisolve from {rs.__file__}, not from {src}")

    runner = Runner(rs, spec)
    workload = runner.workload
    tracer = spans.Tracer()
    if trace_run:
        tracer.install(rs)

    warm = []
    for index in range(workload.warmup):
        key, problem, points, text = runner.request(None, index)
        warm.append((key, problem, points, *runner.send(text, problem)))
    t_ready = time.perf_counter()
    tracer.restore()

    for key, problem, points, out, error, latency in warm:
        runner.verify(key, problem, points, out, error, latency, trace_run, False)
    _, problem, points, out, error, _ = warm[0]
    if error is None:
        self_test(problem, points, out, workload.trace)

    timed_wall = 0.0
    index = 0
    batch_size = 4
    while timed_wall < spec["seconds"]:
        batch = [runner.request(spec["child"], i) for i in range(index, index + batch_size)]
        results = []
        b0 = time.perf_counter()
        for key, problem, points, text in batch:
            # Alternate whole rounds of the problem mix, so traced and
            # untraced requests solve the same mix.
            traced = trace_run and (index // len(workload.problems)) % 2 == 0
            if traced:
                tracer.request = index
                tracer.install(rs)
            out, error, latency = runner.send(text, problem)
            tracer.restore()
            results.append((key, problem, points, out, error, latency, traced))
            index += 1
            if timed_wall + time.perf_counter() - b0 >= spec["seconds"]:
                break
        timed_wall += time.perf_counter() - b0
        for key, problem, points, out, error, latency, traced in results:
            runner.verify(key, problem, points, out, error, latency, traced, True)
        batch_size = min(MAX_BATCH, 2 * batch_size)

    result = {
        "t_start": T_START,
        "t_ready": t_ready,
        "import_s": t_imported - t_import,
        "timed_wall": timed_wall,
        "records": runner.records,
    }
    if trace_run:
        tracer.dump(spec["spans"])
        result["self_times"] = spans.self_times(tracer.spans)
        result["counts"] = tracer.counts
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
