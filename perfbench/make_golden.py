"""Write golden.json from records of ``run.py --out`` at the default seed.

    python3 perfbench/run.py --workload all --seed 1 --out golden-run.jsonl
    python3 perfbench/make_golden.py golden-run.jsonl

Keeps, per workload, the first PER_STREAM warm-up requests and the first
PER_STREAM timed requests of each worker process: enough to pin optima and byte-identical
solutions, however many requests a faster build completes.
"""

import json
import sys
from pathlib import Path

PER_STREAM = 8


def main(path: str):
    golden = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            for key, answer in json.loads(line)["requests"].items():
                if int(key.rsplit("/", 1)[1]) < PER_STREAM:
                    golden[key] = answer
    out = Path(__file__).resolve().parent / "golden.json"
    rows = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items()))
    out.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(golden)} answers to {out}")


if __name__ == "__main__":
    main(*sys.argv[1:])
