"""Lean metrics mode: identical summaries, no per-request records."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.runner import run_multi_scenario, run_scenario
from repro.experiments.scenario import MultiScenario, Scenario
from repro.experiments.sweep import SweepCell, cell_fingerprint, execute_cell
from repro.metrics.analysis import merge_collectors, summarize
from repro.metrics.collector import MetricsCollector


def _scenario() -> Scenario:
    return Scenario.from_dict({
        "name": "lean-check",
        "app": {"name": "tm"},
        "trace": {"name": "poisson", "duration": 6, "base_rate": 30},
        "policy": "PARD",
        "workers": 2,
        "seed": 0,
    })


def _multi() -> MultiScenario:
    return MultiScenario.from_dict({
        "name": "lean-multi",
        "tenants": [
            {"scenario": {"name": "a", "app": {"name": "tm"}, "policy": "PARD",
                          "trace": {"name": "poisson", "duration": 5,
                                    "base_rate": 20}}},
            {"scenario": {"name": "b", "app": {"name": "tm"}, "policy": "Naive",
                          "trace": {"name": "poisson", "duration": 5,
                                    "base_rate": 15}}},
        ],
        "seed": 0,
    })


class TestLeanParity:
    def test_scenario_summary_identical_records_absent(self):
        full = run_scenario(_scenario())
        lean = run_scenario(_scenario(), lean=True)
        assert lean.summary == full.summary  # exact, not approx
        assert full.collector.records
        assert lean.collector.records == []
        assert lean.collector.lean
        # The streaming counters still answer len() and summarize().
        assert len(lean.collector) == len(full.collector)
        assert summarize(lean.collector) == summarize(full.collector)

    def test_multi_summaries_identical(self):
        full = run_multi_scenario(_multi())
        lean = run_multi_scenario(_multi(), lean=True)
        assert lean.summaries == full.summaries
        assert lean.aggregate == full.aggregate
        assert all(not c.records for c in lean.collectors.values())

    def test_merge_collectors_handles_lean(self):
        full = run_multi_scenario(_multi())
        lean = run_multi_scenario(_multi(), lean=True)
        merged_full = merge_collectors(full.collectors)
        merged_lean = merge_collectors(lean.collectors)
        assert merged_lean.count == merged_full.count
        s_full = summarize(merged_full, duration=5.0)
        s_lean = summarize(merged_lean, duration=5.0)
        assert s_lean.total == s_full.total
        assert s_lean.good == s_full.good
        assert s_lean.invalid_rate == pytest.approx(s_full.invalid_rate)

    def test_merged_lean_collectors_stay_lean(self):
        a = run_scenario(_scenario(), lean=True).collector
        b = run_scenario(replace(_scenario(), seed=1), lean=True).collector
        merged = merge_collectors([a, b])
        assert merged.lean
        assert merged.records == []
        assert len(merged) == a.count + b.count


class TestLeanCells:
    def test_cell_summary_identical(self):
        full = execute_cell(SweepCell(scenario=_scenario()))
        lean = execute_cell(SweepCell(scenario=_scenario(), lean=True))
        assert lean.ok and full.ok
        assert lean.summary == full.summary

    def test_lean_cells_fingerprint_separately(self):
        cell = SweepCell(scenario=_scenario())
        assert cell_fingerprint(cell) != cell_fingerprint(replace(cell, lean=True))

    def test_lean_sweep_reuses_cached_full_results(self, tmp_path):
        from repro.experiments.sweep import run_sweep

        full = run_sweep([SweepCell(scenario=_scenario())],
                         workers=1, cache_dir=tmp_path)
        assert not full[0].cached
        lean = run_sweep([SweepCell(scenario=_scenario(), lean=True)],
                         workers=1, cache_dir=tmp_path)
        # A full result satisfies a lean request: summary identical,
        # records merely extra — so the cell must not re-simulate.
        assert lean[0].cached
        assert lean[0].summary == full[0].summary

    def test_full_sweep_never_reads_lean_cache(self, tmp_path):
        from repro.experiments.sweep import run_sweep

        lean = run_sweep([SweepCell(scenario=_scenario(), lean=True)],
                         workers=1, cache_dir=tmp_path)
        assert not lean[0].cached
        full = run_sweep([SweepCell(scenario=_scenario())],
                         workers=1, cache_dir=tmp_path)
        assert not full[0].cached  # lean entry has no records to serve
        assert full[0].collector.records

    def test_full_fingerprint_unchanged_by_lean_field(self):
        # Adding the lean field must not invalidate existing full-cell
        # cache entries: the payload only mentions lean when set.
        cell = SweepCell(scenario=_scenario())
        fp = cell_fingerprint(cell)
        assert fp == cell_fingerprint(SweepCell(scenario=_scenario(), lean=False))


class TestCollectorCounters:
    def test_hand_built_records_fall_back_to_scan(self):
        from repro.simulation.request import Request

        direct = MetricsCollector()
        via_api = MetricsCollector()
        for i in range(3):
            r = Request(sent_at=float(i), slo=1.0)
            r.mark_completed(float(i) + 0.5)
            via_api.record_request(r)
            r2 = Request(sent_at=float(i), slo=1.0)
            r2.mark_completed(float(i) + 0.5)
            via_api2 = MetricsCollector()
            via_api2.record_request(r2)
            direct.records.extend(via_api2.records)  # bypasses counters
        assert summarize(direct, duration=3.0) == summarize(via_api, duration=3.0)
