"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from perfbench import layers, micro, workloads
from perfbench import run as bench
from perfbench.compare import compare_metric
from perfbench.probes import PhaseClock

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Trace scales small enough for a test, large enough for every layer to run.
TINY = {"stream-overload": 0.02, "dag-burst": 0.05, "sweep-cache": 0.25, "llm-shared": 0.05}
#: A cell that validates but fails in calibration: the pilot trace is empty.
FAILING_CELL = {
    "name": "failing",
    "app": {"name": "tm"},
    "trace": {"name": "poisson", "duration": 0.001},
    "policy": "PARD",
    "utilization": 0.9,
    "workers": 2,
    "seed": 0,
}


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in bench.WORKLOAD_NAMES if w not in bench.UNSTEADY]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert per_layer == bench.PER_LAYER
    assert len(e2e) <= 16 and len(per_layer) <= 128
    names = [w["name"] for w in spec["workloads"]] + list(e2e) + list(per_layer)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in (*e2e.values(), *per_layer.values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_traced_run_repeats_and_matches_untraced(name, tmp_path):
    from repro.simulation.engine import Simulator

    original_run = Simulator.run
    first = workloads.run_once(name, 0, tmp_path, scale=TINY[name], trace=True)
    second = workloads.run_once(name, 0, tmp_path, scale=TINY[name], trace=True)
    untraced = workloads.run_once(name, 0, tmp_path, scale=TINY[name])
    sliced = workloads.run_once(name, 0, tmp_path, scale=TINY[name], sample_host=True)
    assert Simulator.run is original_run  # every probe was removed
    assert first["call_counts"] == second["call_counts"]
    assert bench.run_key(first) == bench.run_key(untraced) == bench.run_key(sliced)
    assert sliced["counters"] == untraced["counters"]
    assert sliced["host_factor"] > 0 and untraced["host_factor"] == 1.0
    emitted = first["layers"]
    assert set(emitted) == {n for n, _ in layers.LAYER_METRICS} - {"tracing.overhead_s"}
    assert emitted["simulation.engine.events"] == untraced["counters"]["events"] > 0
    assert all(math.isfinite(v) and v >= 0 for v in emitted.values())
    assert emitted["experiments.runner.simulate_s"] > 0


def test_each_workload_reaches_its_layers(tmp_path):
    def traced(name):
        return workloads.run_once(name, 0, tmp_path, scale=TINY[name], trace=True)["layers"]

    stream, llm = traced("stream-overload"), traced("llm-shared")
    assert stream["workload.source.arrivals"] > 0
    assert stream["core.depq.len_max"] > 100  # the backlog builds up
    assert stream["simulation.llm.enqueue_calls"] == 0
    assert llm["simulation.llm.enqueue_calls"] > 0
    assert llm["simulation.tenancy.submit_calls"] > 0
    assert llm["simulation.engine.events_by_callback.LLMWorker._finish_step"] > 0


def test_failing_cell_raises_failed_count(tmp_path):
    clean = workloads.run_sweep_cache(0, TINY["sweep-cache"], tmp_path)
    assert clean.failed == 0
    broken = workloads.run_sweep_cache(0, TINY["sweep-cache"], tmp_path,
                                       extra_cells=(FAILING_CELL,))
    # The error cell fails cold, and misses the cache warm.
    assert broken.failed == 2
    assert broken.attempted == clean.attempted + 2


def test_warm_pass_simulates_zero_cells(tmp_path, monkeypatch):
    from repro.experiments import sweep

    clock = PhaseClock().install()
    passes = []
    original = sweep.run_sweep

    def counting(*args, **kwargs):
        runs, events = clock.sim_runs, clock.events
        out = original(*args, **kwargs)
        passes.append((clock.sim_runs - runs, clock.events - events))
        return out

    monkeypatch.setattr(sweep, "run_sweep", counting)
    try:
        outcome = workloads.run_sweep_cache(0, TINY["sweep-cache"], tmp_path)
    finally:
        clock.patches.undo()
    (cold_runs, cold_events), (warm_runs, warm_events) = passes
    assert cold_runs > 0 and cold_events > 0
    assert warm_runs == 0 and warm_events == 0
    assert outcome.info["hit_frac"] == 1.0
    assert not (tmp_path / "sweep-cache").exists()


def test_micro_runs_emit_every_declared_name(tmp_path):
    out = micro.run_micro(0, tmp_path)
    assert list(out) == [name for name, _ in micro.MICRO_METRICS]
    assert all(math.isfinite(v) and v > 0 for v in out.values())


def _fake_run(failed=0, events=100, wall=1.0):
    return {
        "counters": {"events": events, "requests": 10, "completed": 9, "good": 8,
                     "dropped": 2, "goodput": "1.5"},
        "digest": "d", "attempted": 1, "failed": failed,
        "host_factor": 1.0, "warm_host_factor": 1.0,
        **{name: wall for name in bench.END_TO_END},
    }


def test_failures_and_drifting_repeats_reach_the_result(monkeypatch):
    runs = iter([_fake_run(), _fake_run(failed=1), _fake_run(events=101)])

    def fake_child(root, mode, *args):
        if mode == "goldens":
            return {"a": "ok", "b": "mismatch"}
        return next(runs)

    monkeypatch.setattr(bench, "child", fake_child)
    result = bench.measure_e2e(ROOT, "dag-burst", 0, seconds=0)
    # One golden mismatch, one failed cell, one run whose events drifted.
    assert result["failed"] == 3
    assert result["attempted"] == 2 + 3
    assert result["correct"] is False
    assert set(result["metrics"]) == set(bench.END_TO_END)


def test_missing_program_exits_without_a_result(tmp_path, capsys):
    assert bench.main(["--workload", "dag-burst", "--root", str(tmp_path)]) != 0
    assert capsys.readouterr().out == ""


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert compare_metric(parent, faster, "lower", 0.1)["verdict"] == "better"
    assert compare_metric(parent, parent, "lower", 0.1)["verdict"] == "no change"
    slower = [v * 1.3 for v in parent]
    assert compare_metric(parent, slower, "lower", 0.1)["verdict"] == "worse"
    noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
    assert compare_metric(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    row = compare_metric(parent, faster, "lower", 0.1)
    assert row["win_share"] == 1.0 and row["ratio"] == pytest.approx(0.8)
