"""Cross-feature integration tests: the full system running together."""

from __future__ import annotations

from repro.experiments import Scenario, build_cluster, run_scenario
from repro.metrics import summarize
from repro.simulation import (
    FailureEvent,
    FailureInjector,
    ProbabilisticRouter,
    ReactiveScaler,
    RequestStatus,
)
from repro.workload import replay


class TestKitchenSink:
    """PARD + DAG + dynamic routing + scaling + failures + network delay,
    all at once: conservation and sanity invariants must hold."""

    def build(self):
        cluster, trace = build_cluster(Scenario(
            app={"name": "da"},
            trace={"name": "tweet", "base_rate": 70, "duration": 25},
            policy={"name": "PARD", "params": {"samples": 500}},
            workers=2, seed=6,
        ))
        cluster.router = ProbabilisticRouter(seed=6)
        cluster.hop_delay = 0.002
        ReactiveScaler(cluster, cold_start=3.0).start()
        injector = FailureInjector(
            cluster,
            events=[FailureEvent(time=10.0, module_id="m1", workers=1,
                                 downtime=4.0)],
        )
        injector.schedule_all()
        replay(trace, cluster)
        return trace, cluster

    def test_every_request_terminates_exactly_once(self):
        trace, cluster = self.build()
        records = cluster.metrics.records
        assert len(records) == trace.count()
        assert len({r.rid for r in records}) == len(records)
        assert all(
            r.status in (RequestStatus.COMPLETED, RequestStatus.DROPPED)
            for r in records
        )

    def test_gpu_accounting_is_consistent(self):
        _, cluster = self.build()
        records = cluster.metrics.records
        total_gpu = sum(r.gpu_time for r in records)
        wasted = sum(r.wasted_gpu_time for r in records)
        assert 0 <= wasted <= total_gpu
        busy = sum(
            w.telemetry.busy_time
            for m in cluster.modules.values()
            for w in m.workers
        )
        # Worker busy time is at least the per-request attributed shares of
        # surviving workers (failed workers took their ledger with them).
        assert busy > 0

    def test_good_requests_really_met_their_slo(self):
        _, cluster = self.build()
        for r in cluster.metrics.records:
            if r.met_slo:
                assert r.latency <= r.slo + 1e-9
                assert r.status is RequestStatus.COMPLETED

    def test_visits_follow_dag_order(self):
        _, cluster = self.build()
        spec = cluster.spec
        for r in cluster.metrics.records:
            seen = {v.module_id for v in r.visits}
            for v in r.visits:
                for pred in spec.predecessors(v.module_id):
                    # A visited module's predecessors on the taken path
                    # must have finished earlier (joins take the max).
                    if pred in seen:
                        assert (
                            r.visits[[x.module_id for x in r.visits]
                                     .index(pred)].execution >= 0
                        )


class TestRegressionNumbers:
    """Frozen-seed regression: the headline comparison stays stable."""

    def test_lv_tweet_headline(self):
        result = run_scenario(Scenario(
            app={"name": "lv"},
            trace={"name": "poisson", "base_rate": 150, "duration": 10},
            policy={"name": "PARD", "params": {"samples": 500}},
            workers={"m1": 2, "m2": 2, "m3": 1, "m4": 1, "m5": 2},
            seed=3,
        ))
        s = result.summary
        # 150 req/s against a ~154 req/s pool: nearly everything served.
        assert s.total == result.trace.count()
        assert s.drop_rate < 0.25
        assert s.goodput > 100

    def test_summaries_are_deterministic_across_runs(self):
        def once():
            r = run_scenario(Scenario(
                app={"name": "gm"},
                trace={"name": "azure", "base_rate": 40, "duration": 10},
                policy={"name": "PARD", "params": {"samples": 300}},
                workers=2, seed=11,
            ))
            return (r.summary.good, r.summary.dropped, r.summary.invalid_rate)

        assert once() == once()


class TestDrainGuarantee:
    def test_no_in_flight_requests_after_replay(self):
        cluster, trace = build_cluster(Scenario(
            app={"name": "tm"},
            trace={"name": "poisson", "base_rate": 120, "duration": 6},
            policy={"name": "PARD", "params": {"samples": 300}},
            workers=1, seed=4,
        ))
        replay(trace, cluster)
        assert cluster.total_queue_length() == 0
        assert cluster.sim.pending_events == 0
        summary = summarize(cluster.metrics)
        assert summary.total == trace.count()
