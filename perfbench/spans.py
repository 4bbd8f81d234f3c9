"""In-memory spans recorded by timing wrappers around the solvers' call sites.

The wrappers are installed from the benchmark's own files; the package is
not changed. A span is (name, start, end, parent, request): ``parent`` is
the index of the enclosing span, ``request`` the id of the request that
caused it ("setup" during warm-up). Counts measured at a boundary are kept
per request next to the spans. ``restore`` puts every wrapped function back.

A layer's self time is its span's duration minus the time covered by its
direct children. Work the tracer itself does to take counts runs inside a
``bench.counters`` span, so it is not billed to any layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

TABLE_BUILD = "tables.build"
COUNTERS = "bench.counters"

# (module path under the package, attribute, span name)
CALL_SITES = (
    ("", "parse_instance", "geometry.parse"),
    ("", "solve_tsp", "tsp.solve"),
    ("", "solve_steiner", "steiner.solve"),
    ("", "format_solution", "solution.format"),
    ("", "render_svg", "render.svg"),
    ("tsp", "build_grid", "geometry.grid"),
    ("steiner", "build_grid", "geometry.grid"),
    ("tables", "enumerate_states", "states.enumerate"),
    ("tables", "get_space", "tables.space"),
    ("tables", "reconstruct_vector", "tables.reconstruct"),
    ("tsp", "edges_from_moves", "solution.edges"),
    ("steiner", "edges_from_moves", "solution.edges"),
    ("tsp", "validate_tour_subgraph", "tsp.validate"),
    ("tsp", "orient_tour", "tsp.orient"),
    ("steiner", "validate_steiner_tree", "steiner.validate"),
)

# Spans that include their callees; their metric is the solver's own time.
SELF_METRIC = {"tsp.solve": "tsp.solve_self_s", "steiner.solve": "steiner.solve_self_s"}


def _array_bytes(obj) -> int:
    return sum(getattr(v, "nbytes", 0) for v in vars(obj).values())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.request: object = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list):
        record[2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: int):
        self.counts[self.request][name] += value

    def _timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                counters = self._open(COUNTERS)
                try:
                    after(args, result)
                finally:
                    self._close(counters)
            return result

        return wrapper

    # --- installation ---------------------------------------------------

    def _replace(self, owner, attr: str, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the call sites of ``package`` (the imported rectisolve)."""
        if self._saved:
            return
        for module, attr, name in CALL_SITES:
            owner = getattr(package, module) if module else package
            self._replace(owner, attr, self._timed(name, owner.__dict__[attr]))
        tables = package.tables
        self._replace(tables, "run_vector_sweep", self._timed(
            "tables.sweep", tables.run_vector_sweep, self._sweep_counts))
        table_set = tables.TableSet
        get = table_set.__dict__["get"]
        build = self._timed(TABLE_BUILD, get, self._build_counts)

        def traced_get(tableset, kind):
            if kind in tableset.tables:
                self.count("tables.hits", 1)
                return get(tableset, kind)
            return build(tableset, kind)

        self._replace(table_set, "get", traced_get)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _build_counts(self, args, table):
        self.count("tables.builds", 1)
        self.count("tables.table_bytes", _array_bytes(table))

    def _sweep_counts(self, args, result):
        tables = args[1].tables
        self.count("tables.events", len(result.events))
        self.count("tables.rows_gathered", sum(len(tables[k].src) for k in result.kinds))
        self.count("tables.expansions", result.stats.total_expansions)
        self.count("tables.max_layer_states", result.stats.max_layer_states)
        self.count("tables.trace_bytes", sum(a.nbytes for a in result.layers or ()))

    # --- output ---------------------------------------------------------

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
            for request, counts in self.counts.items():
                fh.write(json.dumps({"request": request, "counts": counts}) + "\n")


def self_times(spans: list[list]) -> dict:
    """{request: {span name: summed self time in seconds}}."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(float))
    for k, (name, start, end, _, request) in enumerate(spans):
        out[request][name] += end - start - child_time[k]
    return out
