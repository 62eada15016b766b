"""Tests for the Request Broker (Equation 3) and the assembled PardPolicy."""

from __future__ import annotations

import pytest

from repro.core.broker import RequestBroker, SubMode
from repro.core.policy import BudgetMode, PardPolicy
from repro.core.priority import PriorityMode
from repro.core.state_planner import StatePlanner, WaitMode
from repro.interfaces import DropContext, FifoQueue
from repro.core.priority import DeadlineDepqQueue
from repro.simulation.request import DropReason, Request, RequestStatus
from repro.workload.generators import constant_trace, step_trace
from repro.workload.replay import replay

from ..conftest import make_cluster, tiny_chain_app, tiny_dag_app


def make_ctx(cluster, module_id="m1", sent_at=0.0, now=0.01,
             expected_start=0.02, slo=0.3):
    module = cluster.modules[module_id]
    request = Request(sent_at=sent_at, slo=slo)
    return DropContext(
        request=request,
        module=module,
        worker=module.workers[0],
        now=now,
        expected_start=expected_start,
        batch_duration=module.effective_duration(now),
        slo=slo,
    )


class TestBrokerEstimate:
    def bound(self, sub_mode=SubMode.FULL, wait_mode=WaitMode.LOWER):
        policy = PardPolicy(sub_mode=sub_mode, wait_mode=wait_mode,
                            samples=1000)
        cluster = make_cluster(policy, app=tiny_chain_app(n=3, slo=0.3))
        return policy, cluster

    def test_backward_component_is_elapsed_to_expected_start(self):
        policy, cluster = self.bound()
        ctx = make_ctx(cluster, sent_at=0.0, expected_start=0.05)
        est = policy.broker.estimate(ctx)
        assert est.backward == pytest.approx(0.05)
        assert est.current_exec == pytest.approx(ctx.batch_duration)

    def test_sub_mode_none_ignores_downstream(self):
        policy, cluster = self.bound(sub_mode=SubMode.NONE)
        est = policy.broker.estimate(make_ctx(cluster))
        assert est.sub == 0.0

    def test_sub_mode_durations_counts_exec_only(self):
        policy, cluster = self.bound(sub_mode=SubMode.DURATIONS)
        est = policy.broker.estimate(make_ctx(cluster))
        d2 = cluster.modules["m2"].effective_duration(0.0)
        d3 = cluster.modules["m3"].effective_duration(0.0)
        assert est.sub == pytest.approx(d2 + d3)

    def test_full_mode_adds_queue_and_wait(self):
        none_p, none_c = self.bound(sub_mode=SubMode.DURATIONS)
        full_p, full_c = self.bound(sub_mode=SubMode.FULL,
                                    wait_mode=WaitMode.QUANTILE)
        sub_durations = none_p.broker.estimate(make_ctx(none_c)).sub
        sub_full = full_p.broker.estimate(make_ctx(full_c)).sub
        assert sub_full >= sub_durations

    def test_total_is_sum_of_parts(self):
        policy, cluster = self.bound()
        est = policy.broker.estimate(make_ctx(cluster))
        assert est.total == pytest.approx(
            est.backward + est.current_exec + est.sub
        )

    def test_invalid_sub_mode_rejected(self):
        with pytest.raises(ValueError):
            RequestBroker(StatePlanner(), sub_mode="nope")

    @pytest.mark.parametrize(
        "sub_mode", [SubMode.FULL, SubMode.NONE, SubMode.DURATIONS]
    )
    def test_drop_test_compares_the_decomposed_estimate(self, sub_mode):
        # The drop path never builds estimate(); this pin keeps its
        # allocation-free expression from diverging from Equation 3's
        # total, at the SLO itself too.
        policy, cluster = self.bound(sub_mode=sub_mode,
                                     wait_mode=WaitMode.QUANTILE)
        ctx = make_ctx(cluster, sent_at=0.0, expected_start=0.07)
        total = policy.broker.estimate(ctx).total
        for slo in (total, total * 0.999, total * 1.001):
            ctx.request.slo = ctx.slo = slo
            late = policy.drop_test(ctx)(ctx.request)
            assert late == (total > slo)
            assert (policy.should_drop(ctx) is not None) == late


class TestPardDropDecision:
    def test_keeps_request_with_ample_budget(self):
        policy = PardPolicy(samples=1000)
        cluster = make_cluster(policy, app=tiny_chain_app(n=3, slo=1.0))
        ctx = make_ctx(cluster, slo=1.0)
        assert policy.should_drop(ctx) is None

    def test_drops_request_with_insufficient_budget(self):
        policy = PardPolicy(samples=1000)
        cluster = make_cluster(policy, app=tiny_chain_app(n=3, slo=0.3))
        # Request already consumed 0.29 of its 0.3 budget.
        ctx = make_ctx(cluster, sent_at=0.0, now=0.29, expected_start=0.29)
        assert policy.should_drop(ctx) is DropReason.ESTIMATED_VIOLATION

    def test_proactive_drop_happens_before_downstream_budget_gone(self):
        """PARD drops at M1 a request that could still finish M1 within
        SLO but not the rest of the pipeline (Nexus would keep it)."""
        policy = PardPolicy(samples=1000, wait_mode=WaitMode.LOWER)
        cluster = make_cluster(policy, app=tiny_chain_app(n=3, slo=0.3))
        d1 = cluster.modules["m1"].effective_duration(0.0)
        sub = policy.planner.sub_estimate("m1")
        # Elapsed such that elapsed + d1 <= SLO (Nexus keeps), but
        # elapsed + d1 + sub > SLO (PARD drops).
        elapsed = 0.3 - d1 - sub / 2
        ctx = make_ctx(cluster, sent_at=0.0, now=elapsed,
                       expected_start=elapsed)
        assert elapsed + d1 < 0.3
        assert policy.should_drop(ctx) is DropReason.ESTIMATED_VIOLATION

    def test_split_budget_mode(self):
        policy = PardPolicy(budget_mode=BudgetMode.SPLIT, samples=1000)
        cluster = make_cluster(policy, app=tiny_chain_app(n=3, slo=0.3))
        # m1's split budget is a fraction of the SLO: an elapsed time of
        # half the SLO at m1 must be over budget even though the full SLO
        # is not exhausted.
        ctx = make_ctx(cluster, sent_at=0.0, now=0.15, expected_start=0.15)
        assert policy.should_drop(ctx) is DropReason.BUDGET_EXCEEDED

    def test_wcl_budgets_refresh_on_tick(self):
        policy = PardPolicy(budget_mode=BudgetMode.WCL, samples=1000)
        cluster = make_cluster(policy, app=tiny_chain_app(n=3, slo=0.3))
        before = dict(policy._budget_shares)
        replay(constant_trace(120.0, 3.0), cluster)
        assert policy._budget_shares  # recomputed
        assert sum(policy._budget_shares.values()) == pytest.approx(1.0)
        assert before.keys() == policy._budget_shares.keys()

    def test_dag_budget_uses_longest_upstream_path(self):
        policy = PardPolicy(budget_mode=BudgetMode.SPLIT, samples=1000)
        cluster = make_cluster(policy, app=tiny_dag_app(slo=0.4))
        b4 = policy._cumulative_budget("m4", 0.4)
        b2 = policy._cumulative_budget("m2", 0.4)
        b3 = policy._cumulative_budget("m3", 0.4)
        assert b4 > max(b2, b3)
        assert b4 < 0.4 + 1e-9

    def test_make_queue_depends_on_priority_mode(self):
        fcfs = PardPolicy(priority_mode=PriorityMode.FCFS, samples=100)
        depq = PardPolicy(priority_mode=PriorityMode.ADAPTIVE, samples=100)
        c1 = make_cluster(fcfs, app=tiny_chain_app())
        c2 = make_cluster(depq, app=tiny_chain_app())
        assert isinstance(c1.modules["m1"].workers[0].queue, FifoQueue)
        assert isinstance(c2.modules["m1"].workers[0].queue, DeadlineDepqQueue)

    def test_invalid_budget_mode_rejected(self):
        with pytest.raises(ValueError):
            PardPolicy(budget_mode="nope")

    def test_describe_mentions_configuration(self):
        policy = PardPolicy(lam=0.2, samples=100)
        desc = policy.describe()
        assert "0.2" in desc and "adaptive" in desc


class TestPardEndToEnd:
    def test_pard_recovers_goodput_after_burst(self):
        results = {}
        for name, policy in (
            ("pard", PardPolicy(samples=1000)),
            ("none", PardPolicy(sub_mode=SubMode.NONE, samples=1000)),
        ):
            app = tiny_chain_app(n=3, slo=0.2)
            cluster = make_cluster(policy, app=app, workers=1,
                                   batch_plan={"m1": 4, "m2": 4, "m3": 4})
            trace = step_trace(
                [(0.0, 60.0), (3.0, 200.0), (6.0, 60.0)],
                duration=14.0, seed=2,
            )
            replay(trace, cluster)
            records = cluster.metrics.records
            results[name] = dict(
                good=sum(1 for r in records if r.met_slo),
                wasted=sum(r.wasted_gpu_time for r in records),
            )
        # Bi-directional estimation wastes less computation than
        # backward-only (the PARD-back ablation).
        assert results["pard"]["wasted"] <= results["none"]["wasted"]

    def test_all_requests_terminate(self):
        policy = PardPolicy(samples=500)
        cluster = make_cluster(policy, app=tiny_chain_app(n=3, slo=0.25))
        replay(constant_trace(130.0, 5.0), cluster)
        assert len(cluster.metrics.records) == 130 * 5
        assert all(
            r.status in (RequestStatus.COMPLETED, RequestStatus.DROPPED)
            for r in cluster.metrics.records
        )
