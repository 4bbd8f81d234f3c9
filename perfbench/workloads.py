"""Workload definitions and the benchmark's own seeded instance generator.

The generator is deliberately independent of ``rectisolve.generate``: the
program under test only ever sees instance text. Every instance is derived
from a string key (workload, seed, stream, index) hashed with BLAKE2b, so the
same seed gives byte-identical instance text on every platform and Python
version.

Shape of every instance: n points with n distinct x values and h distinct y
values, so the normalized Hanan grid has exactly h rows and v = n columns.
The first 2h points cycle through the rows, so each row holds at least two
points and therefore a terminal outside the last column. One warm-up
instance then reaches every transition-table kind the workload can use, and
no timed request triggers a cold table build.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

COORD_SPAN = 10_000
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple[str, ...]  # request i solves problems[i % len(problems)]
    n: int
    h: int
    trace: bool  # solver trace mode: reconstruct, validate and emit edges
    svg: bool  # each request also renders the solution as SVG
    warmup: int  # warm-up requests, untimed, counted in setup_s
    setups: int = 3  # worker processes that set up; the first three also run timed requests

    def problem(self, index: int) -> str:
        return self.problems[index % len(self.problems)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tsp-h7-trace", ("tsp",), n=200, h=7, trace=True, svg=False, warmup=1),
        Workload("steiner-h9-length", ("steiner",), n=50, h=9, trace=False, svg=False, warmup=1),
        # Two tours per tree: with an exact 1:1 mix the pooled median would
        # fall in the gap between the two latency modes and jump between them.
        # Its set-up takes about 0.15 s, so nine set-ups steady the median.
        Workload("mixed-small-stream", ("tsp", "steiner", "tsp"), n=80, h=5, trace=True, svg=True,
                 warmup=3, setups=9),
    )
}


def _stream(key: str):
    i = 0
    while True:
        digest = hashlib.blake2b(f"{key}/{i}".encode(), digest_size=8).digest()
        yield int.from_bytes(digest, "little")
        i += 1


def _distinct(rng, count: int, upper: int) -> list[int]:
    seen: dict[int, None] = {}
    while len(seen) < count:
        seen.setdefault(next(rng) % upper)
    return list(seen)


def make_points(n: int, h: int, key: str) -> list[tuple[int, int]]:
    if not 1 <= h <= n <= COORD_SPAN:
        raise ValueError(f"need 1 <= h <= n <= {COORD_SPAN}, got h={h} n={n}")
    rng = _stream(key)
    ys = _distinct(rng, h, COORD_SPAN)
    xs = _distinct(rng, n, COORD_SPAN)
    return [
        (xs[k], ys[k % h] if k < 2 * h else ys[next(rng) % h]) for k in range(n)
    ]


def instance_text(points: list[tuple[int, int]]) -> str:
    return f"{len(points)}\n" + "".join(f"{x} {y}\n" for x, y in points)


def request_key(workload: str, seed: int, child: int | None, index: int) -> str:
    """Identity of one request. Warm-up requests (child None) are shared by
    every child process of a run, so each measures the same set-up work."""
    stream = "warm" if child is None else f"c{child}"
    return f"{workload}/s{seed}/{stream}/{index}"


def request_points(workload: Workload, seed: int, child: int | None, index: int):
    return make_points(workload.n, workload.h, request_key(workload.name, seed, child, index))
