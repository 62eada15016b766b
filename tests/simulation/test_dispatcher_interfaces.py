"""Tests for dispatchers and the queue/policy interfaces."""

from __future__ import annotations

import pytest

from repro.interfaces import FifoQueue
from repro.policies.naive import NaivePolicy
from repro.simulation.dispatcher import LeastLoadedDispatcher
from repro.simulation.request import Request

from ..conftest import make_cluster, tiny_chain_app


class TestFifoQueue:
    def test_fifo_order(self):
        q = FifoQueue()
        reqs = [Request(sent_at=float(i), slo=1.0) for i in range(3)]
        for r in reqs:
            q.push(r, 0.0)
        assert [q.pop(0.0) for _ in range(3)] == reqs

    def test_pop_empty_returns_none(self):
        assert FifoQueue().pop(0.0) is None

    def test_drain(self):
        q = FifoQueue()
        reqs = [Request(sent_at=float(i), slo=1.0) for i in range(5)]
        for r in reqs:
            q.push(r, 0.0)
        assert q.drain(0.0) == reqs
        assert len(q) == 0


class TestDispatchers:
    def workers(self):
        cluster = make_cluster(
            NaivePolicy(), app=tiny_chain_app(n=1, slo=5.0), workers=3
        )
        return cluster.modules["m1"].workers

    def test_least_loaded_prefers_empty_worker(self):
        workers = self.workers()
        # Load worker 0 with queued requests.
        for i in range(3):
            r = Request(sent_at=0.0, slo=5.0)
            workers[0].queue.push(r, 0.0)
        pick = LeastLoadedDispatcher().pick(workers)
        assert pick.worker_id in (1, 2)

    def test_least_loaded_ties_break_by_id(self):
        workers = self.workers()
        assert LeastLoadedDispatcher().pick(workers).worker_id == 0

    def test_empty_worker_list_rejected(self):
        with pytest.raises(ValueError):
            LeastLoadedDispatcher().pick([])


class TestPolicyDefaults:
    def test_default_queue_is_fifo(self):
        cluster = make_cluster(NaivePolicy(), app=tiny_chain_app(n=1))
        assert isinstance(cluster.modules["m1"].workers[0].queue, FifoQueue)

    def test_default_admission_allows_everything(self):
        policy = NaivePolicy()
        cluster = make_cluster(policy, app=tiny_chain_app(n=1))
        request = Request(sent_at=0.0, slo=1.0)
        assert policy.on_admit(request, cluster.modules["m1"], 0.0) is None

    def test_describe_defaults_to_name(self):
        assert NaivePolicy().describe() == "Naive"
