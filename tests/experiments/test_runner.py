"""Tests for the experiment harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.configs import (
    APPS,
    SYSTEM_FACTORIES,
    TRACES,
    all_workloads,
    standard_config,
)
from repro.experiments import runner
from repro.experiments.runner import (
    ExperimentConfig,
    build_cluster,
    compare_policies,
    run_experiment,
)
from repro.policies.naive import NaivePolicy
from repro.policies.nexus import NexusPolicy
from repro.workload.generators import constant_trace
from repro.workload.trace import Trace


class TestConfig:
    def test_unknown_app_or_trace_rejected(self):
        with pytest.raises(ValueError):
            standard_config("bogus", "tweet")
        with pytest.raises(ValueError):
            standard_config("lv", "bogus")

    def test_all_workloads_cross_product(self):
        wl = all_workloads(duration=10.0)
        assert len(wl) == len(APPS) * len(TRACES)
        assert ("lv", "tweet") in wl

    def test_slo_override_applies(self):
        config = standard_config("lv", "tweet", slo=0.250, duration=10.0)
        assert config.resolve_app().slo == pytest.approx(0.250)

    def test_custom_trace_used_verbatim(self):
        trace = constant_trace(10.0, 5.0)
        config = ExperimentConfig(
            app="tm", trace="tweet", custom_trace=trace, workers=1
        )
        assert config.resolve_trace() is trace

    def test_calibrated_rate_scales_with_utilization(self):
        lo = standard_config("lv", "tweet", utilization=0.5, duration=10.0)
        hi = standard_config("lv", "tweet", utilization=1.0, duration=10.0)
        assert hi.resolve_base_rate() > lo.resolve_base_rate()

    def test_calibrated_workers_cover_every_module(self):
        config = standard_config("lv", "tweet", duration=10.0)
        workers = config.resolve_workers()
        assert set(workers) == set(config.resolve_app().spec.module_ids)
        assert all(n >= 1 for n in workers.values())

    def test_explicit_workers_respected(self):
        config = ExperimentConfig(
            app="tm", trace="tweet", workers=3, base_rate=20, duration=5.0
        )
        cluster = build_cluster(config, NaivePolicy())
        assert all(m.n_workers == 3 for m in cluster.modules.values())

    def test_supplied_empty_trace_is_kept(self, monkeypatch):
        """Regression: a 0-arrival Trace is falsy, and build_cluster used
        to swap it for a freshly generated named trace (and provision
        for that trace's rate when no workers were given)."""

        def regenerate(self):
            raise AssertionError("supplied trace was regenerated")

        monkeypatch.setattr(ExperimentConfig, "resolve_trace", regenerate)
        config = ExperimentConfig(
            app="tm", trace="tweet", duration=30, base_rate=200, workers=2
        )
        empty = Trace("empty", np.empty(0), duration=30.0)
        cluster = build_cluster(config, NaivePolicy(), empty)
        assert all(m.n_workers == 2 for m in cluster.modules.values())

    def test_calibrated_rate_honours_int_workers(self):
        """Regression: the int form of ``workers`` used to be ignored by
        calibration, which silently assumed 2 workers per module."""

        def rate(n: int) -> float:
            return ExperimentConfig(
                app="tm", trace="wiki", utilization=0.9, duration=10.0,
                workers=n,
            ).resolve_base_rate()

        assert rate(4) == pytest.approx(4 * rate(1))
        default = ExperimentConfig(
            app="tm", trace="wiki", utilization=0.9, duration=10.0
        ).resolve_base_rate()
        assert rate(2) == pytest.approx(default)

    def test_list_valued_trace_args_calibrate(self):
        """The natural list form of generator kwargs must survive the
        memoized (hash-keyed) pilot-shape lookup."""
        config = ExperimentConfig(
            app="tm", trace="step", utilization=0.9, duration=10.0,
            trace_args={"rates": [[0.0, 1.0], [5.0, 2.0]]},
        )
        assert config.resolve_base_rate() > 0
        assert len(config.resolve_trace()) > 0

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
        config = standard_config("tm", "wiki", duration=12.0)
        config.resolve_workers()
        config.resolve_base_rate()
        config.resolve_trace()
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

        config = standard_config("tm", "wiki", duration=10.0)
        monkeypatch.setitem(runner.TRACES, "wiki", slow)
        slow_rate = config.resolve_base_rate()
        monkeypatch.setitem(runner.TRACES, "wiki", fast)
        fast_rate = config.resolve_base_rate()
        assert fast_rate == pytest.approx(slow_rate / 2, rel=0.05)


class TestRunner:
    def test_run_experiment_accounts_every_arrival(self):
        config = ExperimentConfig(
            app="tm", trace="tweet", base_rate=30, duration=8.0, workers=2
        )
        result = run_experiment(config, NaivePolicy())
        assert result.summary.total == len(result.trace)
        assert result.collector.submitted == len(result.trace)

    def test_compare_policies_runs_fresh_clusters(self):
        config = ExperimentConfig(
            app="tm", trace="tweet", base_rate=30, duration=6.0, workers=2
        )
        results = compare_policies(
            config,
            {
                "naive": lambda seed: NaivePolicy(),
                "nexus": lambda seed: NexusPolicy(),
            },
        )
        assert set(results) == {"naive", "nexus"}
        assert results["naive"].cluster is not results["nexus"].cluster
        assert results["naive"].summary.total == results["nexus"].summary.total

    def test_system_factories_cover_paper_systems(self):
        assert set(SYSTEM_FACTORIES) == {"PARD", "Nexus", "Clipper++", "Naive"}
        for factory in SYSTEM_FACTORIES.values():
            assert factory(0).name


class TestHeadlineReproduction:
    """Scaled-down check of the paper's headline comparison (§5.2)."""

    def test_pard_beats_reactive_baselines_on_lv_tweet(self):
        config = standard_config("lv", "tweet", duration=30.0, seed=1)
        results = compare_policies(config, dict(SYSTEM_FACTORIES))
        pard = results["PARD"].summary
        for other in ("Nexus", "Clipper++", "Naive"):
            s = results[other].summary
            assert pard.goodput >= s.goodput
            assert pard.invalid_rate <= s.invalid_rate + 0.01
        assert pard.drop_rate < results["Naive"].summary.drop_rate
