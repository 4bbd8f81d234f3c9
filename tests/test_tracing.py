"""The benchmark's tracer (perfbench/spans.py) wraps the solvers' call sites
by module attribute; every layer it names must still be reached through
those attributes, or its per-layer metric silently reads nothing."""

import sys
from pathlib import Path

import pytest

import rectisolve
from rectisolve import tables
from rectisolve.geometry import make_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

POINTS = [(0, 0), (3, 0), (1, 2), (4, 2), (2, 5), (5, 5)]


@pytest.mark.parametrize("solver", ["tsp", "steiner"])
def test_tracer_sees_every_layer(monkeypatch, solver):
    # empty caches, so the set-up spans fire whatever ran before
    monkeypatch.setattr(tables, "_TABLES", {})
    tracer = spans.Tracer()
    tracer.install(rectisolve)
    try:
        solve = getattr(rectisolve, f"solve_{solver}")  # the wrapped one
        solve(make_instance(POINTS), trace=True)
    finally:
        tracer.restore()
    want = {
        name
        for module, attr, name in spans.CALL_SITES
        if module in (solver, "tables") or attr == f"solve_{solver}"
    }
    want |= {"tables.sweep", spans.TABLE_BUILD}
    seen = {span[0] for span in tracer.spans}
    assert want <= seen, sorted(want - seen)


def held_bytes(records) -> int:
    """The bytes of every array held by the records in a dict."""
    arrays = [v for record in records.values() for v in vars(record).values()]
    return sum(getattr(v, "nbytes", 0) for v in arrays)


@pytest.mark.parametrize("solver", ["tsp", "steiner"])
def test_tracer_counts_every_table_the_set_holds(monkeypatch, solver):
    # a cold traced solve builds every table it uses through TableSet.get,
    # so the tracer's counts cover the whole set
    monkeypatch.setattr(tables, "_TABLES", {})
    tracer = spans.Tracer()
    tracer.install(rectisolve)
    try:
        getattr(rectisolve, f"solve_{solver}")(make_instance(POINTS), trace=True)
    finally:
        tracer.restore()
    (tableset,) = tables._TABLES.values()
    counts = tracer.counts["setup"]
    assert counts["tables.builds"] == len(tableset.tables)
    held = sum(held_bytes(d) for d in vars(tableset).values() if isinstance(d, dict))
    assert counts["tables.table_bytes"] == held
    # one table per kind: each H table carries its row's open rows
    assert {orient for orient, _ in tableset.tables} == {"V", "H"}
    for (orient, row), table in tableset.tables.items():
        assert (table.opens < len(table.src)) == (orient == "H"), (orient, row)
