"""Tests for adaptive priority: DEPQ ordering, load smoothing, transitions."""

from __future__ import annotations

import pytest

from repro.core.priority import (
    AdaptivePriorityController,
    DeadlineDepqQueue,
    LoadSmoother,
    PriorityMode,
)
from repro.policies.naive import NaivePolicy
from repro.simulation.request import Request
from repro.workload.generators import step_trace
from repro.workload.replay import replay

from ..conftest import make_cluster, tiny_chain_app


class TestLoadSmoother:
    def test_smoothed_is_mean_of_recent(self):
        s = LoadSmoother(history=10, smooth=3)
        for r in (10.0, 20.0, 30.0):
            s.record(r)
        assert s.smoothed() == pytest.approx(20.0)

    def test_epsilon_zero_for_constant_rate(self):
        s = LoadSmoother()
        for _ in range(10):
            s.record(50.0)
        assert s.epsilon() == pytest.approx(0.0)

    def test_epsilon_grows_with_variability(self):
        steady = LoadSmoother()
        bursty = LoadSmoother()
        for i in range(10):
            steady.record(50.0 + (i % 2))
            bursty.record(50.0 if i % 2 else 150.0)
        assert bursty.epsilon() > steady.epsilon()

    def test_empty_smoother(self):
        s = LoadSmoother()
        assert s.smoothed() == 0.0
        assert s.epsilon() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadSmoother(history=0)


class TestController:
    def make_module(self, workers=1, batch=4):
        cluster = make_cluster(NaivePolicy(), app=tiny_chain_app(n=1, slo=0.5),
                               workers=workers, batch_plan={"m1": batch})
        return cluster.modules["m1"], cluster

    def test_fixed_modes_never_change(self):
        module, _ = self.make_module()
        for mode in (PriorityMode.HBF, PriorityMode.LBF, PriorityMode.FCFS):
            ctrl = AdaptivePriorityController(mode=mode)
            ctrl.update(module, 1.0)
            assert ctrl.current("m1") == mode
            assert not ctrl.transitions

    def test_default_mode_is_lbf(self):
        ctrl = AdaptivePriorityController()
        assert ctrl.current("anything") == PriorityMode.LBF

    def test_switches_to_hbf_under_overload(self):
        module, cluster = self.make_module()
        ctrl = AdaptivePriorityController(mode=PriorityMode.INSTANT)
        # Saturate: record arrivals far above capacity.
        for i in range(2000):
            module.stats.arrivals.record(i * 0.002)  # 500/s
        cluster.sim.run(until=0.0)
        assert ctrl.update(module, 4.0) == PriorityMode.HBF

    def test_stays_lbf_when_underloaded(self):
        module, _ = self.make_module()
        ctrl = AdaptivePriorityController(mode=PriorityMode.INSTANT)
        for i in range(20):
            module.stats.arrivals.record(i * 0.2)  # 5/s, capacity ~100/s
        assert ctrl.update(module, 4.0) == PriorityMode.LBF

    def test_effective_load_includes_backlog(self):
        module, cluster = self.make_module()
        base = AdaptivePriorityController.effective_load(module, 0.0)
        # Stuff the worker queue without consuming.
        for i in range(100):
            r = Request(sent_at=0.0, slo=0.5)
            r.begin_visit("m1", 0.0)
            module.workers[0].queue.push(r, 0.0)
        loaded = AdaptivePriorityController.effective_load(module, 0.0)
        assert loaded > base

    def test_delayed_transition_holds_in_dead_band(self):
        """Inside [1 - eps, 1 + eps] the previous mode is kept."""
        module, _ = self.make_module()
        ctrl = AdaptivePriorityController(mode=PriorityMode.ADAPTIVE)
        # Prime with variable rates so epsilon > 0.
        smoother = ctrl._smoothers.setdefault("m1", LoadSmoother())
        for r in (40.0, 160.0, 40.0, 160.0, 40.0):
            smoother.record(r)
        eps = smoother.epsilon()
        assert eps > 0
        # Force current mode HBF, then a load factor just under 1.0 should
        # hold HBF rather than flip to LBF.
        ctrl._current["m1"] = PriorityMode.HBF
        # mu inside the dead band: fabricate via small queue + rate ~ cap.
        mu = AdaptivePriorityController.effective_load(module, 0.0)
        assert mu < 1.0  # idle module
        # With eps large enough the band covers mu ~ 1; emulate by direct
        # comparison of the rule:
        if mu > 1.0 - eps:
            assert ctrl.update(module, 1.0) == PriorityMode.HBF


class TestDeadlineDepqQueue:
    def queue(self, mode):
        module, _ = TestController().make_module()
        ctrl = AdaptivePriorityController(mode=mode)
        return DeadlineDepqQueue(module, ctrl)

    def push_three(self, q):
        reqs = [
            Request(sent_at=0.0, slo=0.30),
            Request(sent_at=0.0, slo=0.10),
            Request(sent_at=0.0, slo=0.20),
        ]
        for r in reqs:
            q.push(r, 0.0)
        return reqs

    def test_lbf_pops_tightest_deadline_first(self):
        q = self.queue(PriorityMode.LBF)
        reqs = self.push_three(q)
        assert q.pop(0.0) is reqs[1]  # slo 0.10
        assert q.pop(0.0) is reqs[2]
        assert q.pop(0.0) is reqs[0]
        assert q.pop(0.0) is None

    def test_hbf_pops_loosest_deadline_first(self):
        q = self.queue(PriorityMode.HBF)
        reqs = self.push_three(q)
        assert q.pop(0.0) is reqs[0]  # slo 0.30
        assert q.pop(0.0) is reqs[2]
        assert q.pop(0.0) is reqs[1]

    def test_len_tracks_contents(self):
        q = self.queue(PriorityMode.LBF)
        self.push_three(q)
        assert len(q) == 3
        q.pop(0.0)
        assert len(q) == 2


class TestTransitionsEndToEnd:
    def test_burst_triggers_hbf_then_recovery_to_lbf(self):
        from repro.core.policy import PardPolicy

        policy = PardPolicy(samples=500, priority_mode=PriorityMode.INSTANT)
        app = tiny_chain_app(n=2, slo=0.3)
        cluster = make_cluster(policy, app=app, workers=1,
                               batch_plan={"m1": 4, "m2": 4},
                               sync_interval=0.5)
        trace = step_trace(
            [(0.0, 30.0), (3.0, 250.0), (6.0, 30.0)], duration=12.0, seed=4
        )
        replay(trace, cluster)
        modes = [t.mode for t in policy.priority.transitions
                 if t.module_id == "m1"]
        assert PriorityMode.HBF in modes  # burst detected
        assert modes[-1] == PriorityMode.LBF  # recovered afterwards
