"""Tests for per-hop resilience: timeout, retry, hedging, fallback.

Every rescue is a duplicate queue entry for the same request; the first
worker to draw one claims the hop and every other entry skips lazily.
The invariant these tests pin: whatever combination of policies fires,
each admitted request still reaches exactly one terminal state and no
module executes twice for one request.
"""

from __future__ import annotations

import pytest

from repro.metrics.collector import MetricsCollector
from repro.policies.naive import NaivePolicy
from repro.simulation.cluster import Cluster
from repro.simulation.engine import Simulator
from repro.simulation.request import DropReason, RequestStatus
from repro.simulation.resilience import (
    HopResilience,
    ResilienceManager,
    descendants,
)
from repro.simulation.rng import RngStreams
from repro.simulation.routing import ProbabilisticRouter
from repro.workload.generators import constant_trace
from repro.workload.replay import replay

from ..conftest import tiny_chain_app, tiny_dag_app, tiny_registry


def resilient_cluster(
    resilience: dict,
    app=None,
    workers: int = 1,
    batch_plan: dict[str, int] | None = None,
    router=None,
    seed: int = 0,
) -> Cluster:
    app = app or tiny_chain_app(n=2, slo=0.4)
    return Cluster(
        sim=Simulator(),
        app=app,
        policy=NaivePolicy(),
        workers=workers,
        registry=tiny_registry(),
        batch_plan=batch_plan or {m: 4 for m in app.spec.module_ids},
        metrics=MetricsCollector(),
        rng=RngStreams(seed=seed),
        router=router,
        resilience=resilience,
    )


def assert_exactly_once(cluster: Cluster) -> None:
    records = cluster.metrics.records
    assert len(records) == cluster.metrics.submitted
    rids = [r.rid for r in records]
    assert len(rids) == len(set(rids))
    for record in records:
        assert record.status in (
            RequestStatus.COMPLETED, RequestStatus.DROPPED,
        )
        visited = [v.module_id for v in record.visits]
        assert len(visited) == len(set(visited))
    assert not cluster._join_arrived
    assert not cluster._join_expected
    assert not cluster._exit_expected


class TestHopResilience:
    def test_needs_timeout_or_hedge(self):
        with pytest.raises(ValueError, match="timeout or a hedge"):
            HopResilience()

    def test_validation(self):
        with pytest.raises(ValueError, match="timeout must be > 0"):
            HopResilience(timeout=0.0)
        with pytest.raises(ValueError, match="on_timeout"):
            HopResilience(timeout=0.1, on_timeout="panic")
        with pytest.raises(ValueError, match="retry.max"):
            HopResilience(timeout=0.1, retry_max=-1)
        with pytest.raises(ValueError, match="retry.base"):
            HopResilience(timeout=0.1, backoff_base=0.0)
        with pytest.raises(ValueError, match="jitter"):
            HopResilience(timeout=0.1, backoff_jitter=-0.5)
        with pytest.raises(ValueError, match="hedge delay"):
            HopResilience(hedge=0.0)
        with pytest.raises(ValueError, match="fallback requires a timeout"):
            HopResilience(hedge=0.1, fallback="m3")

    def test_dict_round_trip(self):
        hop = HopResilience(
            timeout=0.25, on_timeout="retry", retry_max=2,
            backoff_base=0.02, backoff_jitter=0.5, hedge=0.1, fallback="m3",
        )
        assert HopResilience.from_dict(hop.to_dict()) == hop

    def test_hedge_only_dict_omits_timeout_keys(self):
        hop = HopResilience(hedge=0.05)
        assert hop.to_dict() == {"hedge": 0.05}
        assert HopResilience.from_dict({"hedge": 0.05}) == hop

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown resilience keys"):
            HopResilience.from_dict({"timeout": 0.1, "retires": 3})
        with pytest.raises(ValueError, match="unknown retry keys"):
            HopResilience.from_dict({"timeout": 0.1, "retry": {"tries": 3}})


class TestManagerValidation:
    def test_unknown_module_rejected(self):
        cluster = resilient_cluster({})
        with pytest.raises(ValueError, match="unknown module"):
            ResilienceManager(cluster, {"nope": HopResilience(timeout=0.1)})

    def test_fallback_to_self_rejected(self):
        cluster = resilient_cluster({}, app=tiny_dag_app())
        with pytest.raises(ValueError, match="fall back to itself"):
            ResilienceManager(
                cluster,
                {"m2": HopResilience(timeout=0.1, fallback="m2")},
            )

    def test_downstream_fallback_rejected(self):
        # m4 is downstream of m2: the flow would route into it again
        # after the substituted hop completes — a guaranteed double
        # visit, so it is rejected statically.
        cluster = resilient_cluster({}, app=tiny_dag_app())
        with pytest.raises(
            ValueError, match="cannot fall back to its downstream"
        ):
            ResilienceManager(
                cluster,
                {"m2": HopResilience(timeout=0.1, fallback="m4")},
            )

    def test_sibling_fallback_accepted(self):
        cluster = resilient_cluster({}, app=tiny_dag_app())
        ResilienceManager(
            cluster, {"m2": HopResilience(timeout=0.1, fallback="m3")}
        )

    def test_descendants(self):
        spec = tiny_dag_app().spec
        assert descendants(spec, "m1") == {"m2", "m3", "m4"}
        assert descendants(spec, "m2") == {"m4"}
        assert descendants(spec, "m4") == set()


class TestFastPath:
    def test_no_resilience_leaves_hooks_disarmed(self):
        cluster = resilient_cluster({})
        assert cluster.resilience is None
        for module in cluster.modules.values():
            assert module._resilience is None

    def test_resilient_modules_only_arm_their_own_hook(self):
        cluster = resilient_cluster({"m1": {"timeout": 0.1}})
        assert cluster.modules["m1"]._resilience is not None
        assert cluster.modules["m2"]._resilience is None


class TestTimeoutRetry:
    def overloaded(self, resilience, **kwargs):
        cluster = resilient_cluster(resilience, **kwargs)
        replay(constant_trace(250.0, 3.0), cluster)
        return cluster

    def test_retries_fire_under_queueing(self):
        cluster = self.overloaded(
            {"m1": {"timeout": 0.1, "retry": {"max": 2, "base": 0.02}}}
        )
        assert cluster.metrics.res_timeouts > 0
        assert cluster.metrics.res_retries > 0
        assert_exactly_once(cluster)

    def test_exhausted_retries_drop_with_timeout_reason(self):
        cluster = self.overloaded(
            {"m1": {"timeout": 0.1, "retry": {"max": 0, "base": 0.02}}}
        )
        dropped = [
            r for r in cluster.metrics.records
            if r.status is RequestStatus.DROPPED
        ]
        assert dropped
        assert all(r.drop_reason is DropReason.TIMEOUT for r in dropped)
        assert all(r.dropped_at_module == "m1" for r in dropped)
        assert cluster.metrics.res_retries == 0
        assert_exactly_once(cluster)

    def test_on_timeout_drop_never_duplicates(self):
        cluster = self.overloaded(
            {"m1": {"timeout": 0.1, "on_timeout": "drop"}}
        )
        assert cluster.metrics.res_timeouts > 0
        assert cluster.metrics.res_retries == 0
        assert any(
            r.drop_reason is DropReason.TIMEOUT
            for r in cluster.metrics.records
        )
        assert_exactly_once(cluster)

    def test_identical_runs_are_deterministic(self):
        def signature():
            cluster = self.overloaded(
                {"m1": {"timeout": 0.1,
                        "retry": {"max": 2, "base": 0.02, "jitter": 0.5}}}
            )
            # rids are process-global, so compare everything but them.
            return [
                (r.sent_at, r.status, r.finished_at, r.drop_reason)
                for r in cluster.metrics.records
            ]

        assert signature() == signature()

    def test_fault_free_run_keeps_counters_zero(self):
        cluster = resilient_cluster(
            {"m1": {"timeout": 5.0, "retry": {"max": 1, "base": 0.02}}}
        )
        replay(constant_trace(20.0, 2.0), cluster)
        assert cluster.metrics.res_timeouts == 0
        assert cluster.metrics.res_retries == 0
        assert all(
            r.status is RequestStatus.COMPLETED
            for r in cluster.metrics.records
        )


class TestDispatchSkipsDrainingWorkers:
    """Retries and hedges go through the module's one dispatch path, so
    they never land on a draining worker — even an idle, least-loaded
    one."""

    @pytest.mark.parametrize("hop, counter", [
        ({"timeout": 0.1, "retry": {"max": 2, "base": 0.02}}, "res_retries"),
        ({"hedge": 0.05}, "res_hedges"),
    ])
    def test_rescue_avoids_the_drainer(self, hop, counter):
        cluster = resilient_cluster({"m1": hop}, workers=3)
        drainer = cluster.modules["m1"].workers[0]
        drainer.draining = True
        replay(constant_trace(250.0, 2.0), cluster)
        assert getattr(cluster.metrics, counter) > 0
        telemetry = drainer.telemetry
        assert telemetry.batches == 0
        assert telemetry.skipped_cancelled == 0
        assert telemetry.dropped_requests == 0
        assert_exactly_once(cluster)


class TestHedge:
    def test_hedges_fire_and_requests_complete_once(self):
        cluster = resilient_cluster(
            {"m1": {"hedge": 0.05}}, workers=2,
        )
        replay(constant_trace(400.0, 3.0), cluster)
        assert cluster.metrics.res_hedges > 0
        assert_exactly_once(cluster)

    def test_single_worker_module_never_hedges(self):
        cluster = resilient_cluster({"m1": {"hedge": 0.05}}, workers=1)
        replay(constant_trace(400.0, 3.0), cluster)
        assert cluster.metrics.res_hedges == 0
        assert_exactly_once(cluster)

    @pytest.mark.parametrize("limit", ["draining", "quota"])
    def test_one_dispatchable_worker_never_hedges(self, limit):
        """A hedge needs a second worker that dispatch may use: with the
        only other worker draining, or a quota of one, the hedge would
        land on the worker that holds the original, so it is neither sent
        nor counted."""
        cluster = resilient_cluster({"m1": {"hedge": 0.05}}, workers=2)
        m1 = cluster.modules["m1"]
        if limit == "draining":
            m1.workers[1].draining = True
        else:
            # Shared pools install quotas; a dedicated cluster's requests
            # belong to the unnamed app.
            m1._quota_of = {"": 1}
        replay(constant_trace(400.0, 3.0), cluster)
        assert cluster.metrics.res_hedges == 0
        assert m1.workers[1].telemetry.batches == 0
        assert_exactly_once(cluster)


class TestFallback:
    def dag_cluster(self, resilience):
        # Route (almost) everything down the m2 branch; m3 is the
        # router-skipped sibling that serves as the degraded standby.
        return resilient_cluster(
            resilience,
            app=tiny_dag_app(),
            batch_plan={"m1": 8, "m2": 1, "m3": 8, "m4": 8},
            router=ProbabilisticRouter(
                weights={"m2": 1000.0, "m3": 0.001}, seed=0,
            ),
        )

    def test_fallback_executes_on_sibling_branch(self):
        cluster = self.dag_cluster(
            {"m2": {"timeout": 0.08, "retry": {"max": 0, "base": 0.02},
                    "fallback": "m3"}}
        )
        replay(constant_trace(150.0, 3.0), cluster)
        assert cluster.metrics.res_fallbacks > 0
        # The origin hop never executes for a rescued request, so its
        # record shows the sibling in the origin's place; the router all
        # but never picks m3 itself, so m3 visits are the rescues.
        rescued = [
            r for r in cluster.metrics.records
            if r.status is RequestStatus.COMPLETED
            and "m3" in {v.module_id for v in r.visits}
        ]
        assert len(rescued) == cluster.metrics.res_fallbacks
        assert_exactly_once(cluster)

    def test_fallback_state_is_reclaimed(self):
        cluster = self.dag_cluster(
            {"m2": {"timeout": 0.08, "retry": {"max": 0, "base": 0.02},
                    "fallback": "m3"}}
        )
        replay(constant_trace(150.0, 3.0), cluster)
        assert not cluster._fallback_origin
