"""Tests for the Nexus windowed-scan variant and graceful draining."""

from __future__ import annotations

from repro.policies.naive import NaivePolicy
from repro.policies.nexus import NexusPolicy
from repro.simulation.request import RequestStatus
from repro.workload.generators import constant_trace, step_trace
from repro.workload.replay import replay

from ..conftest import make_cluster, tiny_chain_app


def run(policy, rate=120.0, duration=8.0, slo=0.2, workers=1):
    app = tiny_chain_app(n=3, slo=slo)
    cluster = make_cluster(policy, app=app, workers=workers,
                           batch_plan={"m1": 4, "m2": 4, "m3": 4})
    replay(constant_trace(rate, duration), cluster)
    return cluster


class TestWindowedNexus:
    def test_windowed_scan_drops_under_overload(self):
        cluster = run(NexusPolicy(windowed=True))
        dropped = [
            r for r in cluster.metrics.records
            if r.status is RequestStatus.DROPPED
        ]
        assert dropped

    def test_all_requests_accounted(self):
        cluster = run(NexusPolicy(windowed=True))
        assert len(cluster.metrics.records) == 120 * 8

    def test_no_drops_when_underloaded(self):
        cluster = run(NexusPolicy(windowed=True), rate=20.0, slo=1.0)
        assert all(r.met_slo for r in cluster.metrics.records)

    def test_windowed_and_per_request_agree_qualitatively(self):
        plain = run(NexusPolicy(windowed=False))
        scan = run(NexusPolicy(windowed=True))
        from repro.metrics import summarize

        s_plain = summarize(plain.metrics, duration=8.0)
        s_scan = summarize(scan.metrics, duration=8.0)
        # Both formulations shed comparable load under the same overload.
        assert abs(s_plain.drop_rate - s_scan.drop_rate) < 0.30
        assert s_scan.goodput > 0

    def test_scan_drops_leave_through_the_worker(self):
        """The scan is a drop decision at t_b, not a queue side effect:
        the worker that drew each victim counts it, and every worker's
        load returns to zero once the run is over."""
        cluster = run(NexusPolicy(windowed=True), rate=240.0, workers=2)
        modules = cluster.modules.values()
        assert sum(m.stats.drops for m in modules) > 0
        for module in modules:
            assert module.stats.drops == sum(
                w.telemetry.dropped_requests for w in module.workers
            )
            assert all(w.load == 0 and w.idle for w in module.workers)

    def test_default_is_per_request(self):
        assert NexusPolicy().windowed is False


class TestGracefulDraining:
    def make(self):
        app = tiny_chain_app(n=1, slo=5.0)
        return make_cluster(NaivePolicy(), app=app, workers=3,
                            batch_plan={"m1": 4})

    def test_drain_prefers_idle_worker(self):
        cluster = self.make()
        module = cluster.modules["m1"]
        assert module.drain_worker()
        assert module.n_workers == 2  # idle worker removed immediately

    def test_busy_worker_drains_after_finishing(self):
        cluster = self.make()
        module = cluster.modules["m1"]
        # Make every worker busy.
        for i in range(6):
            cluster.submit_at(0.0)
        cluster.sim.run(max_events=6)  # deliver the submissions
        busy = [w for w in module.workers if not w.idle]
        assert busy
        n_before = module.n_workers
        assert module.drain_worker()
        draining = [w for w in module.workers if w.draining]
        if draining:  # marked, not yet removed
            assert module.n_workers == n_before
            cluster.sim.run()
            assert module.n_workers == n_before - 1
            assert all(not w.draining for w in module.workers)

    def test_draining_worker_receives_no_new_requests(self):
        cluster = self.make()
        module = cluster.modules["m1"]
        victim = module.workers[0]
        victim.draining = True
        for i in range(9):
            cluster.submit_at(0.001 * i)
        cluster.sim.run()
        assert victim.telemetry.executed_requests == 0

    def test_never_drain_last_active_worker(self):
        cluster = make_cluster(NaivePolicy(), app=tiny_chain_app(n=1, slo=5.0),
                               workers=1, batch_plan={"m1": 4})
        module = cluster.modules["m1"]
        assert not module.drain_worker()
        assert module.n_workers == 1

    def test_scaler_uses_draining_under_load(self):
        from repro.simulation.scaling import ReactiveScaler

        app = tiny_chain_app(n=1, slo=5.0)
        cluster = make_cluster(NaivePolicy(), app=app, workers=4,
                               batch_plan={"m1": 4})
        scaler = ReactiveScaler(cluster, interval=1.0, cold_start=0.5,
                                scale_in_patience=2, graceful_scale_in=True)
        scaler.start()
        # Moderate load that keeps workers busy but needs only one worker.
        replay(step_trace([(0.0, 30.0)], duration=20.0, seed=1), cluster)
        assert cluster.modules["m1"].n_workers < 4


class TestNewMetrics:
    def test_latency_percentiles(self):
        from repro.metrics import latency_percentiles

        cluster = run(NexusPolicy(), rate=20.0, slo=1.0)
        pcts = latency_percentiles(cluster.metrics, qs=(0.5, 0.99))
        assert set(pcts) == {0.5, 0.99}
        assert 0 < pcts[0.5] <= pcts[0.99]

    def test_slo_attainment_monotone(self):
        from repro.metrics import slo_attainment_curve

        cluster = run(NexusPolicy())
        curve = slo_attainment_curve(
            cluster.metrics, slos=(0.05, 0.1, 0.2, 0.5, 2.0)
        )
        values = [curve[s] for s in sorted(curve)]
        assert values == sorted(values)
        assert 0.0 <= values[0] and values[-1] <= 1.0

    def test_empty_collectors(self):
        from repro.metrics import (
            MetricsCollector,
            latency_percentiles,
            slo_attainment_curve,
        )

        assert latency_percentiles(MetricsCollector()) == {}
        assert slo_attainment_curve(MetricsCollector(), (0.1,)) == {0.1: 0.0}
