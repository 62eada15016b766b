"""Tests for the multi-tenant shared cluster (pools, views, isolation)."""

from __future__ import annotations

import pytest

from repro.policies.naive import NaivePolicy
from repro.simulation.engine import Simulator
from repro.simulation.request import DropReason, RequestStatus
from repro.simulation.tenancy import SharedCluster, Tenant, assign_pools

from ..conftest import tiny_chain_app, tiny_dag_app, tiny_registry


def two_tenant_cluster(policy_a=None, policy_b=None, workers=2, **kw):
    """tm-style chain (alpha, beta) + gamma-only chain over shared pools."""
    sim = Simulator()
    a = Tenant(name="a", app=tiny_chain_app(n=2, slo=0.5),
               policy=policy_a or NaivePolicy())
    b = Tenant(name="b", app=tiny_chain_app(n=3, slo=0.4),
               policy=policy_b or NaivePolicy())
    cluster = SharedCluster(sim, [a, b], workers=workers,
                            registry=tiny_registry(), **kw)
    return sim, cluster


class TestPoolAssignment:
    def test_same_model_shares_a_pool(self):
        a = ("a", tiny_chain_app(n=2))  # alpha -> beta
        b = ("b", tiny_chain_app(n=3))  # alpha -> beta -> gamma
        pools, by_member = assign_pools([a, b])
        assert set(pools) == {"alpha", "beta", "gamma"}
        assert pools["alpha"].members == (("a", "m1"), ("b", "m1"))
        assert by_member[("a", "m2")] == by_member[("b", "m2")] == "beta"

    def test_duplicate_model_within_app_gets_own_pool(self):
        # tiny_dag uses beta at both m2 and m4: a request can sit at both
        # hops, so the second hop cannot share the first's pool identity.
        pools, by_member = assign_pools([("a", tiny_dag_app())])
        assert by_member[("a", "m2")] == "beta"
        assert by_member[("a", "m4")] == "beta:m4"
        assert pools["beta:m4"].model == "beta"

    def test_assignment_is_deterministic_first_use_order(self):
        pools, _ = assign_pools(
            [("a", tiny_chain_app(n=3)), ("b", tiny_chain_app(n=2))]
        )
        assert list(pools) == ["alpha", "beta", "gamma"]


class TestSharedServing:
    def test_both_apps_complete_over_shared_pools(self):
        sim, cluster = two_tenant_cluster()
        for i in range(10):
            cluster.submit_at("a", 0.01 * i)
            cluster.submit_at("b", 0.01 * i)
        cluster.start_ticks()
        sim.run(until=5.0)
        cluster.stop_ticks()
        sim.run()
        for name in ("a", "b"):
            records = cluster.views[name].metrics.records
            assert len(records) == 10
            assert all(r.status is RequestStatus.COMPLETED for r in records)

    def test_pool_stats_see_aggregate_load(self):
        sim, cluster = two_tenant_cluster()
        for i in range(10):
            cluster.submit_at("a", 0.01 * i)
            cluster.submit_at("b", 0.01 * i)
        sim.run()
        # Both tenants route their first hop through the one alpha pool:
        # 20 requests executed there in total.
        alpha = cluster.pools["alpha"]
        executed = sum(w.telemetry.executed_requests for w in alpha.workers)
        assert executed == 20

    def test_requests_carry_their_tenants_slo(self):
        sim, cluster = two_tenant_cluster()
        ra = cluster.submit_at("a", 0.0)
        rb = cluster.submit_at("b", 0.0)
        assert ra.slo == pytest.approx(0.5)
        assert rb.slo == pytest.approx(0.4)
        assert (ra.app, rb.app) == ("a", "b")

    def test_cluster_slo_is_tightest_tenant(self):
        _, cluster = two_tenant_cluster()
        assert cluster.slo == pytest.approx(0.4)

    def test_duplicate_tenant_names_rejected(self):
        sim = Simulator()
        tenants = [
            Tenant(name="x", app=tiny_chain_app(n=2), policy=NaivePolicy()),
            Tenant(name="x", app=tiny_chain_app(n=3), policy=NaivePolicy()),
        ]
        with pytest.raises(ValueError, match="duplicate tenant names"):
            SharedCluster(sim, tenants, workers=1, registry=tiny_registry())

    def test_workers_dict_must_cover_every_pool(self):
        sim = Simulator()
        tenants = [
            Tenant(name="a", app=tiny_chain_app(n=2), policy=NaivePolicy()),
        ]
        with pytest.raises(ValueError, match="missing 'beta'"):
            SharedCluster(sim, tenants, workers={"alpha": 1},
                          registry=tiny_registry())

    def test_unknown_app_submission_rejected(self):
        sim, cluster = two_tenant_cluster()
        with pytest.raises(KeyError):
            cluster.submit_at("nosuch", 0.0)


class TestPerTenantPolicies:
    def test_policies_are_demultiplexed_per_request(self):
        from repro.interfaces import DropContext, DropPolicy

        class DropAll(DropPolicy):
            name = "drop-all"

            def should_drop(self, ctx: DropContext):
                return DropReason.ESTIMATED_VIOLATION

        sim, cluster = two_tenant_cluster(policy_a=DropAll())
        for i in range(5):
            cluster.submit_at("a", 0.001 * i)
            cluster.submit_at("b", 0.001 * i)
        sim.run()
        a_recs = cluster.views["a"].metrics.records
        b_recs = cluster.views["b"].metrics.records
        assert all(r.status is RequestStatus.DROPPED for r in a_recs)
        assert all(r.status is RequestStatus.COMPLETED for r in b_recs)

    def test_pard_policy_translates_pool_to_tenant_hop(self):
        """PARD's planner keys state by the tenant's module ids; the drop
        decision at a shared pool must translate back through hop_id."""
        from repro.core.policy import PardPolicy

        sim, cluster = two_tenant_cluster(
            policy_a=PardPolicy(samples=200, seed=0),
            policy_b=PardPolicy(samples=200, seed=1),
        )
        for i in range(30):
            cluster.submit_at("a", 0.005 * i)
            cluster.submit_at("b", 0.005 * i)
        cluster.start_ticks()
        sim.run(until=5.0)
        cluster.stop_ticks()
        sim.run()
        assert len(cluster.views["a"].metrics.records) == 30
        assert len(cluster.views["b"].metrics.records) == 30

    def test_entry_module_check_is_per_tenant(self):
        sim, cluster = two_tenant_cluster()
        view_a = cluster.views["a"]
        assert view_a.is_entry_module(cluster.pools["alpha"])
        assert not view_a.is_entry_module(cluster.pools["beta"])

    def test_hop_id_translates_shared_pool(self):
        sim, cluster = two_tenant_cluster()
        assert cluster.views["a"].hop_id(cluster.pools["beta"]) == "m2"
        assert cluster.views["b"].hop_id(cluster.pools["beta"]) == "m2"
        assert cluster.views["b"].hop_id(cluster.pools["gamma"]) == "m3"


class TestAdmissionSeam:
    def test_cross_app_admission_hook_sees_every_request(self):
        def admit(request, module, now):
            # Cross-app throttling: reject app b at the shared entry pool.
            if request.app == "b" and module.spec.id == "alpha":
                return DropReason.ADMISSION_CONTROL
            return None

        sim, cluster = two_tenant_cluster(admission=admit)
        for i in range(5):
            cluster.submit_at("a", 0.001 * i)
            cluster.submit_at("b", 0.001 * i)
        sim.run()
        a_recs = cluster.views["a"].metrics.records
        b_recs = cluster.views["b"].metrics.records
        assert all(r.status is RequestStatus.COMPLETED for r in a_recs)
        assert all(r.drop_reason is DropReason.ADMISSION_CONTROL
                   for r in b_recs)


class TestDagTenants:
    def test_dag_tenant_joins_on_shared_cluster(self):
        sim = Simulator()
        tenants = [
            Tenant(name="dag", app=tiny_dag_app(slo=5.0), policy=NaivePolicy()),
            Tenant(name="chain", app=tiny_chain_app(n=2, slo=5.0),
                   policy=NaivePolicy()),
        ]
        cluster = SharedCluster(sim, tenants, workers=1,
                                registry=tiny_registry())
        request = cluster.submit_at("dag", 0.0)
        cluster.submit_at("chain", 0.0)
        sim.run()
        assert request.status is RequestStatus.COMPLETED
        # The join pool received the request only after both branches.
        v_join = request.visit("beta:m4")
        assert v_join.t_received == pytest.approx(
            max(request.visit("beta").t_exec_end,
                request.visit("gamma").t_exec_end)
        )
        records = cluster.views["dag"].metrics.records
        assert len(records) == 1


class TestFailuresAndScaling:
    def test_failure_injection_targets_pools(self):
        from repro.simulation.failures import FailureEvent, FailureInjector

        sim, cluster = two_tenant_cluster(workers=2)
        injector = FailureInjector(
            cluster,
            events=[FailureEvent(time=0.05, module_id="alpha", workers=1,
                                 downtime=0.2)],
        )
        injector.schedule_all()
        for i in range(10):
            cluster.submit_at("a", 0.01 * i)
            cluster.submit_at("b", 0.01 * i)
        sim.run()
        assert ("fail", "alpha") in [
            (r.kind, r.target) for r in injector.records
        ]
        assert cluster.pools["alpha"].n_workers == 2  # recovered
        total = (len(cluster.views["a"].metrics.records)
                 + len(cluster.views["b"].metrics.records))
        assert total == 20

    def test_reactive_scaler_operates_on_pools(self):
        from repro.simulation.scaling import ReactiveScaler

        sim, cluster = two_tenant_cluster(workers=1)
        scaler = ReactiveScaler(cluster, interval=0.5, cold_start=0.2,
                                max_workers=4)
        scaler.start()
        for i in range(400):
            cluster.submit_at("a", 0.005 * i)
            cluster.submit_at("b", 0.005 * i)
        cluster.start_ticks()
        sim.run(until=4.0)
        cluster.stop_ticks()
        sim.run()
        assert any(e.kind == "scale_out_done" for e in scaler.events)
        assert {e.module_id for e in scaler.events} <= set(cluster.pools)


class TestWorkerQuotas:
    def test_quota_maps_installed_on_member_pools(self):
        sim = Simulator()
        a = Tenant(name="a", app=tiny_chain_app(n=2, slo=0.5),
                   policy=NaivePolicy(), quota=1)
        b = Tenant(name="b", app=tiny_chain_app(n=3, slo=0.4),
                   policy=NaivePolicy(), quota={"gamma": 2})
        cluster = SharedCluster(sim, [a, b], workers=2,
                                registry=tiny_registry())
        # Tenant a's int quota covers each of its pools; b's dict quota
        # names gamma only, and gamma is b-exclusive.
        assert cluster.pools["alpha"]._quota_of == {"a": 1}
        assert cluster.pools["beta"]._quota_of == {"a": 1}
        assert cluster.pools["gamma"]._quota_of == {"b": 2}

    def test_no_quota_keeps_the_fast_path(self):
        _, cluster = two_tenant_cluster()
        assert all(p._quota_of is None for p in cluster.pools.values())

    def test_quota_confines_dispatch_to_the_worker_prefix(self):
        sim = Simulator()
        a = Tenant(name="a", app=tiny_chain_app(n=2, slo=0.5),
                   policy=NaivePolicy(), quota=1)
        b = Tenant(name="b", app=tiny_chain_app(n=2, slo=0.5),
                   policy=NaivePolicy())
        cluster = SharedCluster(sim, [a, b], workers=3,
                                registry=tiny_registry())
        for i in range(30):
            cluster.submit_at("a", 0.002 * i)
        sim.run()
        alpha = cluster.pools["alpha"]
        # Only tenant a submitted, and its quota is 1: every execution
        # lands on the first worker, the rest of the pool stays idle.
        assert alpha.workers[0].telemetry.executed_requests == 30
        assert all(w.telemetry.executed_requests == 0
                   for w in alpha.workers[1:])

    def test_unquotaed_tenant_still_spreads_over_the_pool(self):
        sim = Simulator()
        a = Tenant(name="a", app=tiny_chain_app(n=2, slo=0.5),
                   policy=NaivePolicy(), quota=1)
        b = Tenant(name="b", app=tiny_chain_app(n=2, slo=0.5),
                   policy=NaivePolicy())
        cluster = SharedCluster(sim, [a, b], workers=2,
                                registry=tiny_registry())
        for i in range(40):
            cluster.submit_at("b", 0.001 * i)
        sim.run()
        alpha = cluster.pools["alpha"]
        assert all(w.telemetry.executed_requests > 0 for w in alpha.workers)

    def test_quota_larger_than_pool_is_a_noop(self):
        sim = Simulator()
        a = Tenant(name="a", app=tiny_chain_app(n=2, slo=0.5),
                   policy=NaivePolicy(), quota=16)
        b = Tenant(name="b", app=tiny_chain_app(n=2, slo=0.5),
                   policy=NaivePolicy())
        cluster = SharedCluster(sim, [a, b], workers=2,
                                registry=tiny_registry())
        for i in range(40):
            cluster.submit_at("a", 0.001 * i)
        sim.run()
        alpha = cluster.pools["alpha"]
        assert all(w.telemetry.executed_requests > 0 for w in alpha.workers)
        records = cluster.views["a"].metrics.records
        assert len(records) == 40
