"""The traced run: spans nest, self times add up to span times, the
wrappers come off again, and every workload passes its own checks at
tiny sizes with and without tracing.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import math

import pytest

import run
import tracing
import workloads
from dreidel_lab import cli, hitting_bounds, solvers


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_self_times_add_up_to_span_times(tracer, tmp_path):
    with tracer.span("bench.root"):
        hitting_bounds.bound_tables(3)
        cli.main(["exact", "--n", "3", "-o", str(tmp_path / "x.csv")])
    spans = tracer.spans
    roots = [s for s in spans if s["parent"] is None]
    assert math.isclose(sum(tracing.self_times(spans)), sum(s["end"] - s["start"] for s in roots), rel_tol=1e-9)
    assert all(t >= -1e-9 for t in tracing.self_times(spans))
    names = {s["name"] for s in spans}
    assert {"hitting_bounds.bound_tables", "hitting_bounds.stable_quantities", "solvers.hit_solver",
            "kernels.build_mod_chain", "solvers.absorption_stats"} <= names
    by_id = {s["id"]: s for s in spans}
    hit = next(s for s in spans if s["name"] == "solvers.hit_solver")
    assert by_id[hit["parent"]]["name"] == "hitting_bounds.stable_quantities"


def test_layer_metrics_cover_every_per_layer_name(tracer):
    with tracer.span("bench.root"):
        hitting_bounds.bound_tables(3)
    values = tracing.layer_metrics(tracer.spans, 1, 1.0)
    assert set(values) == set(tracing.PER_LAYER)
    assert values["solvers.hit_solvers"] > 0
    assert 0 < values["hitting_bounds.self_s"] < values["hitting_bounds.bound_tables_s"]
    assert values["hitting_bounds.final_cap"] >= 24


def test_uninstall_restores_every_binding():
    before = (hitting_bounds.HitSolver.__init__, hitting_bounds.build_mod_chain, solvers.absorption_stats)
    t = tracing.Tracer()
    t.install()
    assert hitting_bounds.build_mod_chain is not before[1]
    t.uninstall()
    assert (hitting_bounds.HitSolver.__init__, hitting_bounds.build_mod_chain, solvers.absorption_stats) == before


TINY = {
    "EPOCHS": 20_000, "WALD_RECORDS": 2_000, "STOPPING_RECORDS": 2_000,
    "SIMULATE": [(2, 4, 2_000), (3, 4, 100), (4, 3, 100)], "ORACLE_GAMES": 20, "ORACLE_RECORDS": 20,
    "REPORT_NS": "3..4", "FORMAL_NS": (3,), "IDENTITY": [(3, "game"), (3, "formal")], "IDENTITY_QUERIES": 2,
    "SCALING_NS": [4, 6, 8], "SCALING_CHECK_N": 6, "POT_XMAX": 30,
    "HITPROB": [(3, "game"), (3, "game"), (3, "formal")],
    "EXACT_NS": (2, 3), "LOW_EPOCH": [(2, 4)], "LOW_EPOCH_REPLAYED": [(2, 2), (3, 1)],
    "GAMELETS": [(2, 2)], "GAMELETS_REPLAYED": [(3, 1)], "CONSTRUCT": [(2, 7, 60), (3, 13, 100)],
    "RESTORATIVE_STARTS": 50, "CONCAT": [(2, 20)],
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.NAMES)
def test_workload_passes_its_checks_at_tiny_size(monkeypatch, tmp_path, workload, trace):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    t = tracing.Tracer() if trace else None
    if t:
        t.install()
    try:
        res = run.run_workload(workload, seed=3, seconds=0, tracer=t)
    finally:
        if t:
            t.uninstall()
    assert res["failed"] == 0, res["errors"]
    assert res["wrong"] == []
    assert len(res["rounds"]) == 1 and res["attempted"] > 0
    assert len(res["rounds"][0]["ops"]) == res["attempted"], "operation names must be unique"
    if t:
        ops = [s for s in t.spans if s["parent"] is None]
        assert len(ops) == res["attempted"] and all(s["name"].startswith("bench.") for s in ops)
