"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds records appended by ``run.py --out``. Prints, per workload:

* every end-to-end metric of BENCHMARK.json: median and quartiles of each
  side over its untraced runs, the change, and a verdict against the
  metric's bound. "unresolved" means the run-to-run spread (quartile
  distance over median) of either side is wider than the bound and not
  every run of AFTER beats every run of BEFORE. "better" needs the median
  to improve by more than BEFORE's quartile distance and AFTER to win at
  least nine tenths of the runs paired by seed;
* a before/after diff of the medians of every per-layer metric of the
  traced runs;
* every request (same workload, seed, process and index on both sides)
  whose optimum or solution digest differs. Solutions must stay
  byte-identical, so this checks a fresh seed without golden values.

Exits 1 when a metric is worse than its bound or a solution differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def series(records: list[dict], workload: str, trace: int, metric: str) -> dict:
    """{seed: value} of one metric over the runs of one workload."""
    return {r["seed"]: r["metrics"][metric][0] for r in records
            if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]}


def verdict(before: dict, after: dict, better: str, bound: float) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(list(before.values()))
    a1, am, a3 = quartiles(list(after.values()))
    worse = sign * (am - bm) / bm
    spread = max((b3 - b1) / bm, (a3 - a1) / am)
    if better == "lower":
        beats_all = max(after.values()) < min(before.values())
    else:
        beats_all = min(after.values()) > max(before.values())
    paired = [s for s in before if s in after]
    wins = sum(1 for s in paired if sign * (after[s] - before[s]) < 0)
    if spread > bound and not beats_all:
        return "unresolved", worse
    if worse > bound:
        return "worse", worse
    if -worse * bm > b3 - b1 and paired and wins >= 0.9 * len(paired):
        return "better", worse
    return "same", worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    bench = json.loads(BENCHMARK.read_text())
    failing = False
    workloads = [w["name"] for w in bench["workloads"]
                 if any(r["workload"] == w["name"] for r in before)
                 and any(r["workload"] == w["name"] for r in after)]
    for workload in workloads:
        print(f"== {workload}")
        print(f"{'metric':24s} {'before median [q1, q3]':>34s} {'after median [q1, q3]':>34s}"
              f" {'worse by':>8s}  verdict")
        for entry in bench["end_to_end"]:
            b = series(before, workload, 0, entry["name"])
            a = series(after, workload, 0, entry["name"])
            if not b or not a:
                continue
            v, worse = verdict(b, a, entry["better"], entry["bound"])
            failing |= v == "worse"
            cells = []
            for side in (b, a):
                q1, med, q3 = quartiles(list(side.values()))
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(side)}")
            print(f"{entry['name']:24s} {cells[0]:>34s} {cells[1]:>34s} {worse:+8.1%}  "
                  f"{v} (bound {entry['bound']:.1%})")
        names = sorted({m for r in before + after if r["workload"] == workload and r["trace"] == 1
                        for m in r["metrics"]})
        if names:
            print("-- per layer (medians of traced runs)")
        for name in names:
            b = series(before, workload, 1, name)
            a = series(after, workload, 1, name)
            if not b or not a:
                continue
            bm, am = statistics.median(b.values()), statistics.median(a.values())
            change = f"{(am - bm) / bm:+8.1%}" if bm else "       -"
            print(f"{name:32s} {bm:>14.6g} {am:>14.6g} {change}")

    answers = {}
    for r in before:
        answers.update(r["requests"])
    shared = differ = 0
    for r in after:
        for key, answer in r["requests"].items():
            if key in answers:
                shared += 1
                if answers[key] != answer:
                    differ += 1
                    if differ <= 20:
                        print(f"DIFFERS {key}: before {answers[key]}, after {answer}")
    print(f"== solutions: {differ} of {shared} shared requests differ")
    return 1 if failing or differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
