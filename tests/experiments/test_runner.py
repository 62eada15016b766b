"""Tests for the experiment harness."""

from __future__ import annotations

import pytest

from repro.experiments.configs import (
    APPS,
    SYSTEM_FACTORIES,
    TRACES,
    standard_scenario,
)
from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentConfig,
    build_cluster,
    run_multi_scenario,
    run_scenario,
)
from repro.experiments.scenario import MultiScenario, Scenario
from repro.experiments.sweep import sweep_grid


def calibrated(**fields) -> ExperimentConfig:
    """The calibration step of a utilization-calibrated tm run."""
    fields.setdefault("trace", {"name": "wiki", "duration": 10.0})
    return ExperimentConfig(
        Scenario(app={"name": "tm"}, utilization=0.9, **fields)
    )


class TestConfig:
    def test_unknown_app_or_trace_rejected(self):
        with pytest.raises(ValueError):
            standard_scenario("bogus", "tweet")
        with pytest.raises(ValueError):
            standard_scenario("lv", "bogus")

    def test_all_workloads_cross_product(self):
        cells = sweep_grid(APPS, TRACES, ["PARD"], duration=10.0)
        assert len(cells) == len(APPS) * len(TRACES)
        assert "lv-tweet-PARD-s0" in {c.label() for c in cells}

    def test_slo_override_applies(self):
        scenario = standard_scenario("lv", "tweet", slo=0.250, duration=10.0)
        assert ExperimentConfig(scenario).app.slo == pytest.approx(0.250)

    def test_calibrated_rate_scales_with_utilization(self):
        lo = standard_scenario("lv", "tweet", utilization=0.5, duration=10.0)
        hi = standard_scenario("lv", "tweet", utilization=1.0, duration=10.0)
        assert (ExperimentConfig(hi).resolve_base_rate()
                > ExperimentConfig(lo).resolve_base_rate())

    def test_calibrated_workers_cover_every_module(self):
        scenario = standard_scenario("lv", "tweet", duration=10.0)
        cluster, _ = build_cluster(scenario)
        workers = {mid: m.n_workers for mid, m in cluster.modules.items()}
        assert set(workers) == set(scenario.build_application().spec.module_ids)
        assert all(n >= 1 for n in workers.values())

    def test_explicit_workers_respected(self):
        cluster, _ = build_cluster(Scenario(
            app={"name": "tm"}, workers=3,
            trace={"name": "tweet", "base_rate": 20, "duration": 5.0},
        ))
        assert all(m.n_workers == 3 for m in cluster.modules.values())

    def test_supplied_empty_trace_is_kept(self):
        """A declared workload with no arrivals still builds and runs: the
        explicit workers stand, and nothing is regenerated or dropped."""
        scenario = Scenario(
            app={"name": "tm"}, workers=2, policy="Naive",
            trace={"name": "poisson", "base_rate": 1.0, "duration": 0.01},
        )
        cluster, trace = build_cluster(scenario)
        assert trace.count() == 0
        assert all(m.n_workers == 2 for m in cluster.modules.values())
        assert run_scenario(scenario).summary.total == 0

    def test_calibrated_rate_honours_int_workers(self):
        """Regression: the int form of ``workers`` used to be ignored by
        calibration, which silently assumed 2 workers per module."""

        def rate(n: int) -> float:
            return calibrated(workers=n).resolve_base_rate()

        assert rate(4) == pytest.approx(4 * rate(1))
        assert rate(2) == pytest.approx(calibrated().resolve_base_rate())

    def test_list_valued_trace_args_calibrate(self):
        """The natural list form of generator kwargs must survive the
        memoized (hash-keyed) pilot-shape lookup."""
        config = calibrated(trace={
            "name": "step", "duration": 10.0,
            "args": {"rates": [[0.0, 1.0], [5.0, 2.0]]},
        })
        assert config.resolve_base_rate() > 0
        assert run_scenario(config.scenario).summary.total > 0

    def test_pilot_trace_generated_once(self, monkeypatch):
        """Regression: every resolve_* call used to re-simulate the full
        pilot trace; the shape factor is now memoized per
        (trace, duration, seed)."""
        runner._trace_shape_factor.cache_clear()
        pilot_calls = []
        real = runner.TRACES["wiki"]

        def counting(*args, **kwargs):
            if kwargs.get("base_rate") == 50.0:
                pilot_calls.append("pilot")
            return real(*args, **kwargs)

        monkeypatch.setitem(runner.TRACES, "wiki", counting)
        scenario = standard_scenario("tm", "wiki", duration=12.0)
        build_cluster(scenario)
        ExperimentConfig(scenario).resolve_base_rate()
        assert len(pilot_calls) == 1

    def test_reregistered_generator_invalidates_pilot_memo(self, monkeypatch):
        """The memo keys on the generator object, so swapping the
        implementation under the same name recalibrates."""
        from repro.workload.generators import constant_trace

        def slow(base_rate, duration, seed=0, name="wiki"):
            return constant_trace(rate=base_rate, duration=duration,
                                  name=name)

        def fast(base_rate, duration, seed=0, name="wiki"):
            return constant_trace(rate=2 * base_rate, duration=duration,
                                  name=name)

        config = ExperimentConfig(standard_scenario("tm", "wiki", duration=10.0))
        monkeypatch.setitem(runner.TRACES, "wiki", slow)
        slow_rate = config.resolve_base_rate()
        monkeypatch.setitem(runner.TRACES, "wiki", fast)
        fast_rate = config.resolve_base_rate()
        assert fast_rate == pytest.approx(slow_rate / 2, rel=0.05)


class TestRunner:
    def test_run_experiment_accounts_every_arrival(self):
        result = run_scenario(Scenario(
            app={"name": "tm"}, policy="Naive", workers=2,
            trace={"name": "tweet", "base_rate": 30, "duration": 8.0},
        ))
        assert result.summary.total == result.trace.count()
        assert result.collector.submitted == result.trace.count()

    def test_repeat_run_gives_equal_records_rid_for_rid(self):
        """Request ids count per cluster, not per process: the same
        scenario run twice in one process records the same rids."""
        scenario = Scenario(
            app={"name": "tm"}, policy="PARD", workers=2,
            trace={"name": "tweet", "base_rate": 30, "duration": 4.0},
        )
        first = run_scenario(scenario).collector.records
        second = run_scenario(scenario).collector.records
        assert first and first == second
        assert sorted(r.rid for r in first) == list(range(len(first)))

    def test_shared_cluster_tenants_share_one_rid_counter(self):
        multi = MultiScenario.from_dict({"tenants": [
            {"scenario": {
                "name": name, "app": {"name": name}, "policy": "PARD",
                "trace": {"name": "poisson", "base_rate": 20,
                          "duration": 3.0}}}
            for name in ("tm", "lv")
        ], "workers": 2})
        runs = [run_multi_scenario(multi).collectors for _ in range(2)]
        assert runs[0]["tm"].records == runs[1]["tm"].records
        assert runs[0]["lv"].records == runs[1]["lv"].records
        rids = [r.rid for c in runs[0].values() for r in c.records]
        assert sorted(rids) == list(range(len(rids)))

    def test_system_factories_cover_paper_systems(self):
        assert set(SYSTEM_FACTORIES) == {"PARD", "Nexus", "Clipper++", "Naive"}
        for factory in SYSTEM_FACTORIES.values():
            assert factory(0).name


class TestHeadlineReproduction:
    """Scaled-down check of the paper's headline comparison (§5.2)."""

    def test_pard_beats_reactive_baselines_on_lv_tweet(self):
        results = {
            name: run_scenario(
                standard_scenario("lv", "tweet", name, duration=30.0, seed=1)
            )
            for name in SYSTEM_FACTORIES
        }
        pard = results["PARD"].summary
        for other in ("Nexus", "Clipper++", "Naive"):
            s = results[other].summary
            assert pard.goodput >= s.goodput
            assert pard.invalid_rate <= s.invalid_rate + 0.01
        assert pard.drop_rate < results["Naive"].summary.drop_rate
