"""Benchmark of the rectisolve solvers, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; the package is imported from
``src/``. ``--workload all`` runs every workload in turn. Each run starts
fresh single-threaded worker processes, one at a time; each sets up
(import, state enumeration, table builds, warm-up requests). The first
CHILDREN then send timed requests back to back for S/CHILDREN seconds; a
workload with a cheap set-up starts a few more that only set up. Latencies
are pooled over the workers; set-up time and peak RSS are medians.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run, in which every
other timed request runs with timing wrappers installed (see spans.py).
The lines before it print every metric, including per-layer times of
layers that not every workload runs. ``--out FILE`` appends the full
record, with each request's optimum and solution digest, for compare.py.

Every answer passes an independent replay check (replay.py); on the
default seed it must also match golden.json. A request that raises or
fails either check counts as failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import SELF_METRIC  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

CHILDREN = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# Counts taken per traced request, reported as means per request.
PER_REQUEST_COUNTS = {
    "tables.events": "count",
    "tables.rows_gathered": "count",
    "tables.expansions": "count",
    "tables.max_layer_states": "count",
    "tables.hits": "count",
    "tables.builds": "count",
    "tables.trace_bytes": "bytes",
}
# Spans whose set-up totals are reported under the "setup." prefix.
SETUP_SPANS = ("states.enumerate", "tables.space", "tables.build", "tables.sweep")


class BenchError(RuntimeError):
    pass


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"  # runs of one seed then execute identically
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(spec: dict, deadline: float) -> tuple[dict, float, int]:
    """Start one worker, wait for it, and return (result, spawn time, peak
    RSS in KiB from the child's own rusage)."""
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=child_env(), stdout=sys.stderr, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - t_spawn), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker for {spec['workload']} exited with {proc.returncode}")
    result_path = Path(spec["result"])
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result_path.unlink()
    return result, t_spawn, usage.ru_maxrss


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it
    (nearest-rank), and its value."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} timed requests; a tail needs more than {TAIL_BEYOND}")
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, -(-pct * n // 100))
    return pct, sorted(latencies)[rank - 1]


def summarize(trace: bool, children: list) -> tuple[dict, list[str]]:
    """Metrics {name: (value, unit)} and notes for the human-readable lines."""
    records = [r for result, _, _ in children for r in result["records"]]
    timed = [r for r in records if r["timed"]]
    failed = [r for r in records if r["error"] is not None]
    notes = [f"failed {r['key']}: {r['error']}" for r in failed[:5]]
    m: dict = {}
    if not trace:
        latencies = [r["latency"] for r in timed]
        pct, tail_value = tail(latencies)
        correct = sum(1 for r in timed if r["error"] is None)
        m["setup_s"] = (statistics.median(res["t_ready"] - t0 for res, t0, _ in children), "s")
        m["solve_s_p50"] = (statistics.median(latencies), "s")
        m["solve_s_tail"] = (tail_value, "s")
        m["requests_per_s"] = (correct / sum(res["timed_wall"] for res, _, _ in children), "1/s")
        m["peak_rss_mib"] = (statistics.median(rss for _, _, rss in children[:CHILDREN]) / 1024, "MiB")
        m["success_ratio"] = (correct / len(timed), "ratio")
        notes.append(f"{len(timed)} timed requests; solve_s_tail is p{pct}; "
                     f"fail_ratio {1 - correct / len(timed)}")
        return m, notes

    traced = [r for r in timed if r["traced"]]
    plain = [r for r in timed if not r["traced"]]
    results = [result for result, _, _ in children]
    span_totals: dict = {}
    count_totals: dict = {}
    for result in results:
        for field, totals in (("self_times", span_totals), ("counts", count_totals)):
            for request, values in result[field].items():
                if request != "setup":
                    for key, value in values.items():
                        totals[key] = totals.get(key, 0) + value
    for span, secs in span_totals.items():
        m[SELF_METRIC.get(span, span + "_s")] = (secs / len(traced), "s")
    for key, unit in PER_REQUEST_COUNTS.items():
        m[key] = (count_totals.get(key, 0) / len(traced), unit)
    gathered = count_totals["tables.rows_gathered"]
    m["tables.useful_ratio"] = (count_totals["tables.expansions"] / gathered, "ratio")
    notes.append(f"tables.useful_ratio base: {gathered} rows gathered in "
                 f"{len(traced)} traced requests")

    def setup_median(field: str, key: str) -> float:
        return statistics.median(r[field].get("setup", {}).get(key, 0) for r in results)

    m["setup.interpreter_s"] = (statistics.median(r["t_start"] - t0 for r, t0, _ in children), "s")
    m["setup.import_s"] = (statistics.median(r["import_s"] for r in results), "s")
    for span in SETUP_SPANS:
        m[f"setup.{span}_s"] = (setup_median("self_times", span), "s")
    m["setup.tables.builds"] = (setup_median("counts", "tables.builds"), "count")
    m["tables.table_bytes"] = (statistics.median(
        sum(c.get("tables.table_bytes", 0) for c in r["counts"].values()) for r in results),
        "bytes")
    m["bench.trace_overhead"] = (
        statistics.median(r["latency"] for r in traced)
        / statistics.median(r["latency"] for r in plain), "ratio")
    notes.append(f"{len(traced)} traced and {len(plain)} untraced timed requests; "
                 "table bytes computed from array nbytes")
    return m, notes


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, deadline: float):
    golden = json.loads((HERE / "golden.json").read_text()) if seed == DEFAULT_SEED else {}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    children = []
    for child in range(max(CHILDREN, workload.setups)):
        tag = f"{workload.name}-s{seed}-c{child}"
        spec = {
            "workload": dataclasses.asdict(workload), "seed": seed, "child": child,
            "trace": trace, "seconds": seconds / CHILDREN if child < CHILDREN else 0,
            "src": str(ROOT / "src"),
            "golden": {k: v for k, v in golden.items() if k.startswith(f"{workload.name}/")},
            "result": str(out_dir / f"result-{tag}-{os.getpid()}.json"),
            "spans": str(out_dir / f"spans-{tag}.jsonl"),
        }
        children.append(run_child(spec, deadline))
    metrics, notes = summarize(trace, children)
    records = [r for result, _, _ in children for r in result["records"]]
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["error"] is not None),
        "metrics": metrics, "notes": notes,
        "requests": {r["key"]: [r["optimum"], r["digest"]] for r in records},
    }


def result_line(reports: list[dict], listed: list[dict]) -> dict:
    """The last line of stdout: only the metrics BENCHMARK.json lists."""
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}/" if len(reports) > 1 else ""
        for entry in listed:
            value, unit = report["metrics"][entry["name"]]
            metrics[prefix + entry["name"]] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    # On SIGTERM unwind through run_child, which then kills its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record of each workload run (JSON lines)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rectisolve" / "__init__.py").is_file():
        print(f"no rectisolve source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    listed = bench["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + RUN_LIMIT_S * len(names)
    reports = []
    try:
        for name in names:
            reports.append(run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for report in reports:
        print(f"# {report['workload']} seed {report['seed']} trace {report['trace']}: "
              f"{report['attempted']} requests, {report['failed']} failed")
        for note in report["notes"]:
            print(f"#   {note}")
        for key, (value, unit) in sorted(report["metrics"].items()):
            mark = "" if any(e["name"] == key for e in listed) else "  (not in BENCHMARK.json)"
            print(f"{key:32s} {value:>16.6g} {unit}{mark}")
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(report) + "\n")
    try:
        line = result_line(reports, listed)
    except KeyError as exc:
        print(f"metric {exc} was not measured", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
