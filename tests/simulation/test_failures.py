"""Tests for fault injection: worker kills, degraded workers, link cuts."""

from __future__ import annotations

import pytest

from repro.policies.naive import NaivePolicy
from repro.policies.nexus import NexusPolicy
from repro.simulation.failures import (
    FailureEvent,
    FailureInjector,
    FaultRecord,
)
from repro.simulation.request import RequestStatus
from repro.workload.generators import constant_trace
from repro.workload.replay import replay

from ..conftest import make_cluster, tiny_chain_app, tiny_dag_app


def run_with_failures(policy, events, rate=40.0, duration=10.0, workers=2):
    app = tiny_chain_app(n=2, slo=0.4)
    cluster = make_cluster(policy, app=app, workers=workers,
                           batch_plan={"m1": 4, "m2": 4})
    injector = FailureInjector(cluster, events=events)
    injector.schedule_all()
    replay(constant_trace(rate, duration), cluster)
    return cluster, injector


class TestFailureEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureEvent(time=1.0, module_id="m1", workers=0)
        with pytest.raises(ValueError):
            FailureEvent(time=1.0, module_id="m1", downtime=0.0)

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FailureEvent(time=1.0, module_id="m1", kind="meteor")
        with pytest.raises(ValueError, match="link fault needs a dst"):
            FailureEvent(time=1.0, module_id="m1", kind="link")
        with pytest.raises(ValueError, match="dst only applies"):
            FailureEvent(time=1.0, module_id="m1", dst="m2")
        with pytest.raises(ValueError, match="degrade factor"):
            FailureEvent(time=1.0, module_id="m1", kind="degrade",
                         factor=1.0)

    def test_legacy_kill_serializes_without_new_keys(self):
        """Pre-existing scenarios must keep their serialized form (and
        therefore their cache fingerprints) byte for byte."""
        event = FailureEvent(time=3.0, module_id="m1", workers=1,
                             downtime=2.0)
        assert event.to_dict() == {
            "time": 3.0, "module_id": "m1", "workers": 1, "downtime": 2.0,
        }

    def test_new_kinds_round_trip(self):
        for event in (
            FailureEvent(time=1.0, module_id="m1", kind="link", dst="m2",
                         downtime=0.5),
            FailureEvent(time=1.0, module_id="m1", kind="degrade",
                         factor=3.0, downtime=0.5),
        ):
            assert FailureEvent.from_dict(event.to_dict()) == event

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown failure-event keys"):
            FailureEvent.from_dict({"time": 1.0, "module_id": "m1",
                                    "blast_radius": 3})


class TestFaultRecords:
    def test_kill_records_the_fail_and_the_recovery(self):
        cluster, injector = run_with_failures(
            NaivePolicy(),
            [FailureEvent(time=3.0, module_id="m1", workers=1, downtime=2.0)],
        )
        assert injector.records == [
            FaultRecord(time=3.0, kind="fail", target="m1", count=1),
            FaultRecord(time=5.0, kind="recover", target="m1", count=1),
        ]


class TestInjection:
    def test_capacity_drops_then_recovers(self):
        cluster, injector = run_with_failures(
            NaivePolicy(),
            [FailureEvent(time=3.0, module_id="m1", workers=1, downtime=2.0)],
        )
        assert cluster.modules["m1"].n_workers == 2  # recovered
        assert [r.kind for r in injector.records] == ["fail", "recover"]

    def test_no_requests_lost(self):
        cluster, _ = run_with_failures(
            NaivePolicy(),
            [FailureEvent(time=3.0, module_id="m1", workers=1, downtime=2.0)],
        )
        assert len(cluster.metrics.records) == 400
        assert all(
            r.status in (RequestStatus.COMPLETED, RequestStatus.DROPPED)
            for r in cluster.metrics.records
        )

    def test_total_module_outage_orphans_then_replays(self):
        cluster, injector = run_with_failures(
            NaivePolicy(),
            [FailureEvent(time=3.0, module_id="m2", workers=2, downtime=1.0)],
            rate=20.0,
        )
        assert len(cluster.metrics.records) == 200
        # Requests sent into the outage window still finished eventually.
        in_window = [
            r for r in cluster.metrics.records if 3.0 <= r.sent_at < 4.0
        ]
        assert in_window
        assert all(
            r.status is RequestStatus.COMPLETED for r in in_window
        )

    def test_stranded_requests_redispatched_to_survivor(self):
        """A killed worker's queued/forming/executing requests must move to
        the surviving worker, not vanish."""
        app = tiny_chain_app(n=2, slo=0.4)
        cluster = make_cluster(NaivePolicy(), app=app, workers=2,
                               batch_plan={"m1": 4, "m2": 4})
        injector = FailureInjector(
            cluster,
            events=[FailureEvent(time=3.0, module_id="m1", workers=1,
                                 downtime=2.0)],
        )
        injector.schedule_all()
        probe: dict[str, int] = {}

        def before() -> None:
            m = cluster.modules["m1"]
            # The injector kills via workers.pop() — the last worker.
            probe["doomed_load"] = m.workers[-1].load
            probe["survivor_load"] = m.workers[0].load

        def after() -> None:
            m = cluster.modules["m1"]
            probe["workers_after"] = m.n_workers
            probe["survivor_after"] = m.workers[0].load

        cluster.sim.schedule(2.9995, before)
        cluster.sim.schedule(3.0005, after)
        replay(constant_trace(150.0, 8.0), cluster)
        assert probe["workers_after"] == 1
        assert probe["doomed_load"] > 0
        # The survivor absorbed the stranded work (nothing was lost; at
        # most one already-executing batch could complete in the 1 ms gap).
        assert probe["survivor_after"] >= probe["doomed_load"]
        # ... and every stranded request still finished by the end.
        assert all(
            r.status is RequestStatus.COMPLETED
            for r in cluster.metrics.records
        )

    def test_stranded_requests_skip_a_draining_worker(self):
        """Stranding goes through the module's one dispatch path, so a
        draining survivor — idle, hence least loaded — gets none of the
        killed worker's requests."""
        app = tiny_chain_app(n=1, slo=5.0)
        cluster = make_cluster(NaivePolicy(), app=app, workers=3,
                               batch_plan={"m1": 4})
        m1 = cluster.modules["m1"]
        drainer = m1.workers[0]
        drainer.draining = True
        injector = FailureInjector(
            cluster,
            events=[FailureEvent(time=0.05, module_id="m1", workers=1,
                                 downtime=1.0)],
        )
        injector.schedule_all()
        probe = {}

        def before() -> None:
            # The injector kills via workers.pop() — the last worker.
            probe["doomed_load"] = m1.workers[-1].load

        cluster.sim.schedule(0.0499, before)
        replay(constant_trace(600.0, 0.1), cluster)
        assert probe["doomed_load"] > 0
        assert drainer.telemetry.batches == 0
        records = cluster.metrics.records
        assert records and all(
            r.status is RequestStatus.COMPLETED for r in records
        )

    def test_failure_causes_slo_violations_without_dropping(self):
        cluster, _ = run_with_failures(
            NaivePolicy(),
            [FailureEvent(time=2.0, module_id="m1", workers=1, downtime=4.0)],
            rate=150.0,
        )
        violations = [r for r in cluster.metrics.records if not r.met_slo]
        assert violations  # the outage backlog blows SLOs under Naive

    def test_dropping_policy_limits_failure_damage(self):
        """The paper's §2 motivation: with dropping, the failure backlog is
        shed instead of poisoning every subsequent request."""
        events = [FailureEvent(time=2.0, module_id="m1", workers=1,
                               downtime=4.0)]
        naive, _ = run_with_failures(NaivePolicy(), list(events), rate=150.0)
        nexus, _ = run_with_failures(NexusPolicy(), list(events), rate=150.0)
        good_naive = sum(1 for r in naive.metrics.records
                         if r.met_slo and r.sent_at > 6.0)
        good_nexus = sum(1 for r in nexus.metrics.records
                         if r.met_slo and r.sent_at > 6.0)
        assert good_nexus >= good_naive


class TestLastWorkerKill:
    def test_killing_the_only_worker_parks_then_replays(self):
        """A single-worker module may lose its last machine: arrivals
        park at the module and replay on recovery — nothing is lost."""
        app = tiny_chain_app(n=2, slo=0.4)
        cluster = make_cluster(NaivePolicy(), app=app, workers=1,
                               batch_plan={"m1": 4, "m2": 4})
        injector = FailureInjector(
            cluster,
            events=[FailureEvent(time=1.0, module_id="m1", workers=1,
                                 downtime=1.0)],
        )
        injector.schedule_all()
        probe: dict[str, int] = {}

        def during() -> None:
            m = cluster.modules["m1"]
            probe["workers"] = m.n_workers
            probe["parked"] = len(m._parked)

        cluster.sim.schedule(1.5, during)
        replay(constant_trace(20.0, 3.0), cluster)
        assert probe["workers"] == 0
        assert probe["parked"] > 0  # outage arrivals parked, not dropped
        assert cluster.modules["m1"].n_workers == 1  # recovered
        assert len(cluster.metrics.records) == 60
        assert all(
            r.status is RequestStatus.COMPLETED
            for r in cluster.metrics.records
        )
        assert injector.records == [
            FaultRecord(time=1.0, kind="fail", target="m1", count=1),
            FaultRecord(time=2.0, kind="recover", target="m1", count=1),
        ]


class TestDegrade:
    def run_once(self, events, rate=20.0, duration=5.0):
        app = tiny_chain_app(n=2, slo=0.4)
        cluster = make_cluster(NaivePolicy(), app=app, workers=1,
                               batch_plan={"m1": 4, "m2": 4})
        injector = FailureInjector(cluster, events=events)
        injector.schedule_all()
        replay(constant_trace(rate, duration), cluster)
        return cluster, injector

    def test_degrade_inflates_service_then_restores_exactly(self):
        events = [FailureEvent(time=1.0, module_id="m1", kind="degrade",
                               factor=4.0, downtime=2.0)]
        clean, _ = self.run_once([])
        slow, injector = self.run_once(events)
        lat_clean = {r.sent_at: r.latency for r in clean.metrics.records}
        lat_slow = {r.sent_at: r.latency for r in slow.metrics.records}
        in_window = [t for t in lat_clean if 1.0 <= t < 2.5]
        after = [t for t in lat_clean if t >= 3.5]
        assert in_window and after
        # The straggler window is strictly slower than the clean run ...
        assert all(lat_slow[t] > lat_clean[t] for t in in_window)
        # ... and the restore is exact: late requests match bitwise.
        assert all(lat_slow[t] == lat_clean[t] for t in after)
        worker = slow.modules["m1"].workers[0]
        assert worker.degrade_factor == 1.0
        assert injector.records == [
            FaultRecord(time=1.0, kind="degrade", target="m1", count=1,
                        factor=4.0),
            FaultRecord(time=3.0, kind="restore", target="m1", count=1),
        ]

    def test_no_request_is_lost_to_a_straggler(self):
        cluster, _ = self.run_once(
            [FailureEvent(time=1.0, module_id="m1", kind="degrade",
                          factor=3.0, downtime=2.0)],
        )
        assert len(cluster.metrics.records) == 100
        assert all(
            r.status is RequestStatus.COMPLETED
            for r in cluster.metrics.records
        )


class TestLinkFaults:
    DAG_PLAN = {"m1": 4, "m2": 4, "m3": 4, "m4": 4}

    def dag_cluster(self):
        return make_cluster(NaivePolicy(), app=tiny_dag_app(), workers=1,
                            batch_plan=self.DAG_PLAN)

    def test_cut_chain_edge_parks_handoffs_until_heal(self):
        app = tiny_chain_app(n=2, slo=0.4)
        cluster = make_cluster(NaivePolicy(), app=app, workers=1,
                               batch_plan={"m1": 4, "m2": 4})
        injector = FailureInjector(
            cluster,
            events=[FailureEvent(time=1.0, module_id="m1", kind="link",
                                 dst="m2", downtime=1.0)],
        )
        injector.schedule_all()
        replay(constant_trace(20.0, 3.0), cluster)
        assert len(cluster.metrics.records) == 60
        assert all(
            r.status is RequestStatus.COMPLETED
            for r in cluster.metrics.records
        )
        heal = injector.records[-1]
        assert heal.kind == "heal" and heal.target == "m1->m2"
        assert heal.count > 0  # partition-window handoffs replayed late
        # Requests sent into the partition finish after the heal.
        in_window = [
            r for r in cluster.metrics.records if 1.0 <= r.sent_at < 1.9
        ]
        assert in_window
        assert all(r.finished_at >= 2.0 for r in in_window)
        assert cluster._severed is None  # fast path restored

    def test_partitioned_join_branch_delays_but_never_deadlocks(self):
        cluster = self.dag_cluster()
        injector = FailureInjector(
            cluster,
            events=[FailureEvent(time=1.0, module_id="m1", kind="link",
                                 dst="m2", downtime=1.0)],
        )
        injector.schedule_all()
        replay(constant_trace(20.0, 3.0), cluster)
        assert len(cluster.metrics.records) == 60
        assert all(
            r.status is RequestStatus.COMPLETED
            for r in cluster.metrics.records
        )
        assert not cluster._join_arrived
        assert not cluster._join_expected
        assert injector.records[-1].count > 0

    def test_overlapping_cuts_heal_once_at_the_last(self):
        cluster = self.dag_cluster()
        injector = FailureInjector(
            cluster,
            events=[
                FailureEvent(time=1.0, module_id="m1", kind="link",
                             dst="m2", downtime=2.0),
                FailureEvent(time=1.5, module_id="m1", kind="link",
                             dst="m2", downtime=0.5),
            ],
        )
        injector.schedule_all()
        replay(constant_trace(20.0, 4.0), cluster)
        kinds = [(r.kind, r.count) for r in injector.records]
        assert kinds[:2] == [("cut", 0), ("cut", 0)]
        # The inner heal (t=2.0) releases nothing; the outer one replays.
        assert kinds[2] == ("heal", 0)
        assert kinds[3][0] == "heal" and kinds[3][1] > 0
        assert all(
            r.status is RequestStatus.COMPLETED
            for r in cluster.metrics.records
        )
        assert cluster._severed is None

    def test_parked_token_of_a_terminal_request_evaporates(self):
        """A request dropped while one of its handoffs is parked must not
        be replayed by the heal — its token state is already reclaimed."""
        from repro.simulation.request import DropReason

        cluster = self.dag_cluster()
        injector = FailureInjector(
            cluster,
            events=[FailureEvent(time=0.0, module_id="m1", kind="link",
                                 dst="m2", downtime=1.0)],
        )
        injector.schedule_all()
        cluster.submit_at(0.01)

        def drop_parked() -> None:
            parked = cluster._severed[("m1", "m2")]
            assert parked  # the m1 -> m2 handoff is waiting on the link
            cluster.drop(parked[0], "m2", DropReason.ADMISSION_CONTROL)

        cluster.sim.schedule(0.5, drop_parked)
        cluster.sim.run()
        heal = injector.records[-1]
        assert heal.kind == "heal" and heal.count == 0
        records = cluster.metrics.records
        assert len(records) == 1
        assert records[0].status is RequestStatus.DROPPED
        assert cluster._severed is None
        assert not cluster._join_arrived
        assert not cluster._join_expected
        assert not cluster._exit_expected
