"""Tests of the benchmark itself: seeded inputs, the reference, the
tracing shims, and small end-to-end runs of every workload."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import conway_genera.cli  # noqa: E402,F401  (imports every module)
from conway_genera import bundled_data, genera, modforms, series  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[dict, dict]:
    """Run bench/run.py; returns its result line and its output record."""
    argv = dict(zip(args[::2], args[1::2]))
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"{argv['--workload']}-seed{argv['--seed']}-trace{argv['--trace']}.json"
    return result, json.loads((BENCH / "out" / name).read_text())


def test_same_seed_same_inputs_and_seeds_differ():
    data = bundled_data()
    for workload in workloads.WORKLOADS:
        assert workloads.draw(workload, data, 7) == workloads.draw(workload, data, 7)
        assert workloads.draw(workload, data, 7) != workloads.draw(workload, data, 8)
    for workload in ("deep", "oracle"):
        drawn = {frozenset(map(tuple, workloads.draw(workload, data, seed)))
                 for seed in range(1, 6)}
        assert len(drawn) > 1
    assert sorted(workloads.draw("sweep", data, 7)) == sorted(workloads.sweep_items(data))


def test_oracle_draw_covers_every_class_and_always_holds_5c():
    data = bundled_data()
    drawn = {rec.co0_name for group in workloads.oracle_strata(data) for rec in group}
    assert drawn | set(workloads.ORACLE_ALWAYS) == set(data.classes)
    assert all(["oracle-phi", "5C", sign, workloads.ORACLE_ORDERS]
               in workloads.draw("oracle", data, seed) for seed in range(1, 6) for sign in (1, -1))


def test_reference_covers_every_drawable_item():
    reference = json.loads((BENCH / "reference.json").read_text())["items"]
    data = bundled_data()
    for workload in workloads.WORKLOADS:
        for item in workloads.universe(workload, data):
            assert workloads.item_key(item) in reference


def test_self_time_and_inclusive_time():
    tracer = tracing.Tracer()
    inner = tracer.span("x.inner", lambda: sum(range(20000)))
    outer = tracer.span("x.outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracer.summarize()
    (_, _, _, start, end), = [s for s in tracer.spans if s[0] == "x.outer"]
    assert summary["x.inner"]["calls"] == 3
    assert summary["x.outer"]["self_s"] == pytest.approx(
        (end - start) - summary["x.inner"]["incl_s"])
    assert {s[2] for s in tracer.spans} == {0}      # one request
    assert summary["x.outer"]["self_s"] + summary["x.inner"]["self_s"] <= end - start


def test_shims_sit_where_callables_are_looked_up_and_are_removed():
    originals = (genera.first_difference, modforms.first_difference,
                 modforms.theta_quotient, series.QSeries.__dict__["__mul__"])
    caches = tracing.find_caches()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert genera.first_difference is modforms.first_difference
        assert genera.first_difference is not originals[0]
        assert modforms.theta_quotient is not originals[2]
        assert series.QSeries.__dict__["__mul__"] is not originals[3]
        series.QSeries.one(24) * series.QSeries.one(24)
        assert tracer.summarize()["series.q_mul"]["calls"] == 1
        assert tracer.counts()["scalars.mul"] == 1
    finally:
        restore()
    assert (genera.first_difference, modforms.first_difference,
            modforms.theta_quotient, series.QSeries.__dict__["__mul__"]) == originals
    accounting = tracing.cache_accounting(caches)
    assert accounting["modforms"]["wrappers"] == 14
    assert sum(a["wrappers"] for a in accounting.values()) == 19


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    result, record = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", "0", "--limit", "1")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["seed"] == 3 and len(record["inputs"]) == 1


def test_repeated_runs_count_each_check_once():
    one, _ = bench("--workload", "sweep", "--seed", "4", "--seconds", "0",
                   "--trace", "0", "--limit", "2")
    many, record = bench("--workload", "sweep", "--seed", "4", "--seconds", "6",
                         "--trace", "0", "--limit", "2")
    assert len(record["runs"]) > 1 and record["mismatched_runs"] == 0
    assert (many["attempted"], many["failed"]) == (one["attempted"], one["failed"])


def test_traced_run_matches_untraced_and_reports_every_layer_metric():
    result, record = bench("--workload", "sweep", "--seed", "5", "--seconds", "0",
                           "--trace", "1", "--limit", "3")
    assert result["correct"] and record["mismatched_runs"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for run in record["traced_runs"]:
        assert run["self_total_s"] <= run["raw_wall_s"]
