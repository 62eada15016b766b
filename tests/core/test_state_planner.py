"""Tests for the State Planner's synchronised estimates."""

from __future__ import annotations

import pytest

from repro.core.state_planner import ModuleState, StatePlanner, WaitMode
from repro.pipeline.applications import Application
from repro.pipeline.spec import chain
from repro.policies.naive import NaivePolicy
from repro.workload.generators import constant_trace
from repro.workload.replay import replay

from ..conftest import make_cluster, tiny_chain_app, tiny_dag_app


def bound_planner(app=None, **kw):
    cluster = make_cluster(NaivePolicy(), app=app or tiny_chain_app(n=3))
    planner = StatePlanner(samples=2000, **kw)
    planner.bind(cluster)
    return planner, cluster


class TestSubEstimate:
    def test_exit_module_has_zero_sub_estimate(self):
        planner, _ = bound_planner()
        assert planner.sub_estimate("m3") == 0.0

    def test_estimates_decrease_along_the_chain(self):
        planner, _ = bound_planner()
        e1 = planner.sub_estimate("m1")
        e2 = planner.sub_estimate("m2")
        assert e1 > e2 > 0.0

    def test_includes_downstream_durations(self):
        planner, cluster = bound_planner(wait_mode=WaitMode.LOWER)
        # With zero queueing observed and w = 0, L_sub is exactly the sum
        # of downstream effective durations.
        d2 = cluster.modules["m2"].effective_duration(0.0)
        d3 = cluster.modules["m3"].effective_duration(0.0)
        assert planner.sub_estimate("m1") == pytest.approx(d2 + d3)

    def test_upper_mode_doubles_duration_term(self):
        lower, _ = bound_planner(wait_mode=WaitMode.LOWER)
        upper, _ = bound_planner(wait_mode=WaitMode.UPPER)
        assert upper.sub_estimate("m1") == pytest.approx(
            2 * lower.sub_estimate("m1")
        )

    def test_quantile_mode_between_bounds(self):
        lower, _ = bound_planner(wait_mode=WaitMode.LOWER)
        upper, _ = bound_planner(wait_mode=WaitMode.UPPER)
        mid, _ = bound_planner(wait_mode=WaitMode.QUANTILE, lam=0.5)
        assert (
            lower.sub_estimate("m1")
            < mid.sub_estimate("m1")
            < upper.sub_estimate("m1")
        )

    def test_unknown_wait_mode_rejected(self):
        with pytest.raises(ValueError):
            StatePlanner(wait_mode="bogus")


class TestDagEstimates:
    def test_dag_takes_max_over_paths(self):
        planner, cluster = bound_planner(
            app=tiny_dag_app(), wait_mode=WaitMode.LOWER
        )
        # Paths from m1: [m2, m4] and [m3, m4]; estimate must be the max.
        d = {mid: cluster.modules[mid].effective_duration(0.0)
             for mid in ("m2", "m3", "m4")}
        expected = max(d["m2"], d["m3"]) + d["m4"]
        assert planner.sub_estimate("m1") == pytest.approx(expected)

    def test_path_components_reported_per_path(self):
        planner, _ = bound_planner(app=tiny_dag_app())
        details = planner.path_components("m1")
        assert len(details) == 2  # two downstream paths
        for parts in details:
            assert set(parts) == {"queue", "exec", "wait"}


    def test_path_sums_add_left_to_right(self, monkeypatch):
        # 0.1 + 0.2 + 0.3 left to right; Python 3.12's compensated sum()
        # would give 0.6.
        app = Application(
            spec=chain("four", ["alpha", "beta", "gamma", "alpha"]), slo=1.0
        )
        planner, _ = bound_planner(app=app, wait_mode=WaitMode.LOWER)
        states = {
            mid: ModuleState(mid, q, 1, q, 0.0, 1.0)
            for mid, q in (("m1", 0.0), ("m2", 0.1), ("m3", 0.2), ("m4", 0.3))
        }
        monkeypatch.setattr(planner, "snapshot", lambda now: states)
        planner.refresh(0.0)
        [parts] = planner.path_components("m1")
        assert parts["queue"] == parts["exec"] == 0.6000000000000001


class TestRuntimeRefresh:
    def test_queueing_delay_feeds_estimates(self):
        app = tiny_chain_app(n=3, slo=0.5)
        cluster = make_cluster(NaivePolicy(), app=app, workers=1,
                               batch_plan={"m1": 4, "m2": 2, "m3": 4})
        planner = StatePlanner(samples=1000)
        planner.bind(cluster)
        idle_estimate = planner.sub_estimate("m1")
        # Saturate module m2 (small batches -> lower capacity).
        replay(constant_trace(140.0, 4.0), cluster)
        planner.refresh(cluster.sim.now)
        assert planner.sub_estimate("m1") > idle_estimate
        assert planner.state("m2").avg_queue_delay >= 0.0

    def test_snapshot_contains_every_module(self):
        planner, cluster = bound_planner()
        snap = planner.snapshot(0.0)
        assert set(snap) == set(cluster.spec.module_ids)
        for state in snap.values():
            assert state.duration > 0
            assert state.batch_size >= 1

    def test_sync_payload_scales_with_modules(self):
        p3, _ = bound_planner(app=tiny_chain_app(n=3))
        p1, _ = bound_planner(app=tiny_chain_app(n=1))
        assert p3.sync_payload_bytes() == 3 * p1.sync_payload_bytes()
