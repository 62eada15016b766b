"""Tests for cluster routing: chains, DAG fork/join, sibling invalidation."""

from __future__ import annotations

import pytest

from repro.interfaces import DropContext, DropPolicy
from repro.policies.naive import NaivePolicy
from repro.simulation.request import DropReason, RequestStatus

from ..conftest import make_cluster, tiny_chain_app, tiny_dag_app


class DropAtModule(DropPolicy):
    """Test policy: drop every request drawn at one specific module."""

    name = "drop-at"

    def __init__(self, module_id: str) -> None:
        super().__init__()
        self.module_id = module_id

    def should_drop(self, ctx: DropContext) -> DropReason | None:
        if ctx.module.spec.id == self.module_id:
            return DropReason.ESTIMATED_VIOLATION
        return None


class TestChainRouting:
    def test_request_visits_every_module_in_order(self):
        cluster = make_cluster(NaivePolicy(), app=tiny_chain_app(n=3, slo=5.0))
        cluster.submit_at(0.0)
        cluster.sim.run()
        rec = cluster.metrics.records[0]
        assert [v.module_id for v in rec.visits] == ["m1", "m2", "m3"]
        starts = [v.queueing_delay for v in rec.visits]
        assert all(s >= 0 for s in starts)

    def test_completion_time_is_last_module_end(self):
        cluster = make_cluster(NaivePolicy(), app=tiny_chain_app(n=2, slo=5.0))
        cluster.submit_at(0.0)
        cluster.sim.run()
        rec = cluster.metrics.records[0]
        assert rec.status is RequestStatus.COMPLETED
        # d_alpha(1) + d_beta(1) = 0.025 + 0.019.
        assert rec.latency == pytest.approx(0.044)

    def test_drop_stops_forwarding(self):
        cluster = make_cluster(
            DropAtModule("m2"), app=tiny_chain_app(n=3, slo=5.0)
        )
        cluster.submit_at(0.0)
        cluster.sim.run()
        rec = cluster.metrics.records[0]
        assert rec.status is RequestStatus.DROPPED
        assert rec.dropped_at_module == "m2"
        # m1 executed, m2/m3 did not.
        executed = {v.module_id for v in rec.visits}
        assert executed == {"m1"}


class TestDagRouting:
    def test_fork_executes_both_branches(self):
        cluster = make_cluster(NaivePolicy(), app=tiny_dag_app(slo=5.0))
        cluster.submit_at(0.0)
        cluster.sim.run()
        rec = cluster.metrics.records[0]
        assert rec.status is RequestStatus.COMPLETED
        assert {v.module_id for v in rec.visits} == {"m1", "m2", "m3", "m4"}

    def test_join_waits_for_slower_branch(self):
        cluster = make_cluster(NaivePolicy(), app=tiny_dag_app(slo=5.0))
        request = cluster.submit_at(0.0)
        cluster.sim.run()
        v2 = request.visit("m2")
        v3 = request.visit("m3")
        v4 = request.visit("m4")
        assert v4.t_received == pytest.approx(
            max(v2.t_exec_end, v3.t_exec_end)
        )

    def test_branch_drop_invalidates_sibling(self):
        """A drop on one branch cancels the request; the sibling branch's
        executed work is attributed (and will count as invalid)."""
        cluster = make_cluster(DropAtModule("m2"), app=tiny_dag_app(slo=5.0))
        cluster.submit_at(0.0)
        cluster.sim.run()
        rec = cluster.metrics.records[0]
        assert rec.status is RequestStatus.DROPPED
        assert rec.dropped_at_module == "m2"
        # The join module never ran.
        assert "m4" not in {v.module_id for v in rec.visits}
        # GPU time includes m1 (and possibly the sibling m3), all wasted.
        assert rec.gpu_time > 0
        assert rec.wasted_gpu_time == rec.gpu_time

    def test_exactly_one_record_per_dag_request(self):
        cluster = make_cluster(DropAtModule("m3"), app=tiny_dag_app(slo=5.0))
        for i in range(20):
            cluster.submit_at(0.001 * i)
        cluster.sim.run()
        assert len(cluster.metrics.records) == 20

    def test_nested_forks_join_waits_for_every_branch(self):
        """Two sequential forks feeding one join: m1 -> {m2, m3}, then
        m2 -> {m4, m5}, with m4, m5 and m3 all merging at m6.  The join
        requirement must accumulate across the forks (3 deliveries), not
        be overwritten by the second fork's count (regression test: the
        join fired after 2 arrivals, before the slowest branch)."""
        from repro.pipeline.applications import Application
        from repro.pipeline.spec import ModuleSpec, PipelineSpec

        spec = PipelineSpec(
            name="nested-forks",
            modules=[
                ModuleSpec("m1", "alpha", subs=("m2", "m3")),
                ModuleSpec("m2", "beta", pres=("m1",), subs=("m4", "m5")),
                ModuleSpec("m3", "gamma", pres=("m1",), subs=("m6",)),
                ModuleSpec("m4", "alpha", pres=("m2",), subs=("m6",)),
                ModuleSpec("m5", "gamma", pres=("m2",), subs=("m6",)),
                ModuleSpec("m6", "beta", pres=("m3", "m4", "m5")),
            ],
        )
        cluster = make_cluster(
            NaivePolicy(), app=Application(spec=spec, slo=5.0)
        )
        request = cluster.submit_at(0.0)
        cluster.sim.run()
        assert request.status is RequestStatus.COMPLETED
        branch_ends = [
            request.visit(mid).t_exec_end for mid in ("m3", "m4", "m5")
        ]
        # The join must not have started before the slowest branch arrived.
        assert request.visit("m6").t_received == pytest.approx(
            max(branch_ends)
        )
        # Exactly one record, and no stray token state left behind.
        assert len(cluster.metrics.records) == 1
        assert not cluster._join_arrived
        assert not cluster._join_expected

    def test_nested_forks_many_requests_all_accounted(self):
        from repro.pipeline.applications import Application
        from repro.pipeline.spec import ModuleSpec, PipelineSpec

        spec = PipelineSpec(
            name="nested-forks",
            modules=[
                ModuleSpec("m1", "alpha", subs=("m2", "m3")),
                ModuleSpec("m2", "beta", pres=("m1",), subs=("m4", "m5")),
                ModuleSpec("m3", "gamma", pres=("m1",), subs=("m6",)),
                ModuleSpec("m4", "alpha", pres=("m2",), subs=("m6",)),
                ModuleSpec("m5", "gamma", pres=("m2",), subs=("m6",)),
                ModuleSpec("m6", "beta", pres=("m3", "m4", "m5")),
            ],
        )
        cluster = make_cluster(
            DropAtModule("m4"), app=Application(spec=spec, slo=5.0)
        )
        for i in range(15):
            cluster.submit_at(0.002 * i)
        cluster.sim.run()
        # Dropping one branch still yields exactly one terminal record per
        # request, and the join never fires early on a partial set.
        assert len(cluster.metrics.records) == 15
        assert all(
            r.status is RequestStatus.DROPPED for r in cluster.metrics.records
        )

    def test_multi_entry_pipeline_rejected(self):
        import pytest as _pytest

        from repro.pipeline.applications import Application
        from repro.pipeline.spec import ModuleSpec, PipelineSpec

        spec = PipelineSpec(
            name="two-entries",
            modules=[
                ModuleSpec("a", "alpha", subs=("c",)),
                ModuleSpec("b", "beta", subs=("c",)),
                ModuleSpec("c", "gamma", pres=("a", "b")),
            ],
        )
        with _pytest.raises(ValueError, match="exactly one entry"):
            make_cluster(NaivePolicy(), app=Application(spec=spec, slo=1.0))


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        from repro.experiments import Scenario, run_scenario

        def run():
            result = run_scenario(Scenario(
                app={"name": "tm"},
                trace={"name": "tweet", "base_rate": 50, "duration": 12},
                policy={"name": "PARD", "params": {"samples": 500}}, seed=9,
            ))
            return (
                result.summary.good,
                result.summary.dropped,
                round(result.summary.invalid_rate, 12),
            )

        assert run() == run()
