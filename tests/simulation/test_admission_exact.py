"""Byte-exact PARD admission outcomes, pinned by digest.

Each case runs an overloaded ``tm`` scenario with the full collector and
hashes the ``repr`` of every record (visits included, floats by
``repr``, rids rebased to the run's first rid) and of every HBF/LBF
transition the priority controller logged.  Together they fix every
drop decision, queueing delay, batch and mode flip of the admission path
(queue, draw, decide), so a change to how a worker queues and draws its
requests must leave every value below untouched.

Each case also checks that it reached the path it exists for: a backlog
of thousands with ``m1`` flipping to HBF and back, the same overload
on a FIFO queue (arrival order drops stale requests sooner, so it holds
hundreds), and a shared pool where two tenants' SLOs put most pushes
out of deadline order.

Two more cases pin the paths a request queued at its entry module can
take before any worker draws it, each by record digest and processed
events: hedges, timeouts with retry and a worker kill at ``m1`` under
PARD's deep backlog, and PARD-oc rejecting requests at admission.

The last case pins the end of an overloaded trace: once arrivals stop,
each worker's first HBF draw finds even its latest deadline hopeless and
drops every request queued behind it at one instant.  It is pinned by
record digest and processed events, and its lean :class:`Summary` too,
since the lean collector keeps no record to hash.

Every run ends settled (:func:`assert_settled`): its flows hold no
token state, and no request wrote the empty visits dict that requests
share until their first visit.
"""

from __future__ import annotations

import gc
import hashlib
from collections import Counter
from collections.abc import Iterable

import pytest

from repro.core.priority import DeadlineDepqQueue
from repro.experiments.runner import run_multi_scenario, run_scenario
from repro.experiments.scenario import MultiScenario, Scenario
from repro.interfaces import FifoQueue
from repro.metrics.analysis import Summary
from repro.metrics.collector import RequestRecord
from repro.simulation import request as request_module
from repro.simulation.failures import FailureInjector
from repro.simulation.module import Module
from repro.simulation.request import DropReason, RequestStatus


def constant(rate: float, duration: float = 4) -> dict:
    return {"name": "constant", "duration": duration, "base_rate": rate}


#: 2,500 req/s for 4 s on 2 workers: ``m1`` backs up by thousands.
OVERLOAD = {"app": {"name": "tm"}, "policy": "PARD", "workers": 2,
            "trace": constant(2500)}
#: The overload on 3 workers with every ``m1`` rescue armed: a hedge after
#: 50 ms, a 0.4 s timeout with one retry, and one worker killed at 2 s.
ENTRY_RESILIENCE = {
    **OVERLOAD, "workers": 3,
    "resilience": {"m1": {"timeout": 0.4, "on_timeout": "retry",
                          "retry": {"max": 1, "base": 0.05}, "hedge": 0.05}},
    "failures": [{"time": 2.0, "module_id": "m1", "downtime": 0.5}],
}
#: The overload cut to 2 s, so the backlog is still thousands deep when
#: arrivals stop.
MASS_DROP = {**OVERLOAD, "trace": constant(2500, duration=2)}
#: Two tenants on 4 workers per pool, one with ten times the other's SLO.
TWO_SLOS = {"workers": 4, "tenants": [
    {"scenario": {"name": "tight", "app": {"name": "tm"}, "policy": "PARD",
                  "trace": constant(1250)}},
    {"scenario": {"name": "loose", "app": {"name": "tm", "slo": 4.0},
                  "policy": "PARD", "trace": constant(1250)}},
]}


def digest(records: Iterable[RequestRecord]) -> str:
    records = list(records)
    first = min(r.rid for r in records)
    h = hashlib.sha256()
    for r in records:
        h.update(repr(r._replace(rid=r.rid - first)).encode())
    return h.hexdigest()


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def assert_settled(result):
    """Check that ``result``'s run left nothing behind, and return it.

    Every request is terminal once a run drains, so every flow has
    forgotten its token state: join and exit counts, fallback origins and
    severed links.  The empty visits dict that requests share until their
    first visit is still empty, and still untracked by the cyclic GC.
    """
    cluster = result.cluster
    for flow in getattr(cluster, "views", {"": cluster}).values():
        assert not flow._join_arrived
        assert not flow._join_expected
        assert not flow._exit_expected
        assert not flow._fallback_origin  # None or empty
        assert not flow._severed
    shared = request_module._NO_VISITS
    assert shared == {} and not gc.is_tracked(shared)
    return result


@pytest.fixture
def pushes(monkeypatch) -> list[tuple[int, bool]]:
    """(queue length, out of order) for every DEPQ push.

    A push is out of order when its deadline is earlier than that of a
    request pushed to the same queue since the queue was last empty.
    """
    seen: list[tuple[int, bool]] = []
    latest: dict[int, float] = {}  # id(queue) -> latest deadline pushed
    push = DeadlineDepqQueue.push

    def observed(self, request, now) -> None:
        n, key = len(self), id(self)
        seen.append((n, n > 0 and request.deadline < latest[key]))
        latest[key] = max(request.deadline, latest[key]) if n else request.deadline
        push(self, request, now)

    monkeypatch.setattr(DeadlineDepqQueue, "push", observed)
    return seen


@pytest.fixture
def strands(monkeypatch) -> list[tuple[int, int]]:
    """(queued, re-dispatched) for every worker a kill strands."""
    seen: list[tuple[int, int]] = []
    dispatched = [0]
    strand, dispatch = FailureInjector._strand, Module.dispatch

    def counted_dispatch(self, request) -> None:
        dispatched[0] += 1
        dispatch(self, request)

    def observed(self, worker) -> None:
        queued, before = len(worker.queue), dispatched[0]
        strand(self, worker)
        seen.append((queued, dispatched[0] - before))

    monkeypatch.setattr(Module, "dispatch", counted_dispatch)
    monkeypatch.setattr(FailureInjector, "_strand", observed)
    return seen


def _pinned(records, transitions, expected: tuple) -> None:
    n_records, n_visits, records_sha, transitions_sha = expected
    assert (len(records), sum(len(r.visits) for r in records)) == (
        n_records, n_visits)
    assert digest(records) == records_sha
    assert sha(transitions) == transitions_sha


def test_deep_backlog_with_mode_flips_pinned(pushes):
    result = assert_settled(run_scenario(Scenario.from_dict(OVERLOAD)))
    transitions = result.cluster.policy.priority.transitions
    assert [(t.time, t.mode) for t in transitions if t.module_id == "m1"] == [
        (1.0, "hbf"), (9.0, "lbf")]
    assert max(n for n, _ in pushes) > 3000
    _pinned(result.collector.records, transitions, (
        10000, 1912,
        "fa0b4b46cfe917a7e8b61fee78eb331215c6e152938c93362816b09606dd5d57",
        "44ffbc30d9cf7277c5d078b1adc6f8634ca1574576b63a54dff8d8ee69b0be86",
    ))


def test_fifo_backlog_pinned(monkeypatch, pushes):
    lengths: list[int] = []
    push = FifoQueue.push

    def observed(self, request, now) -> None:
        lengths.append(len(self))
        push(self, request, now)

    monkeypatch.setattr(FifoQueue, "push", observed)
    result = assert_settled(run_scenario(
        Scenario.from_dict({**OVERLOAD, "policy": "PARD-FCFS"})))
    assert not pushes and max(lengths) > 250
    _pinned(result.collector.records,
            result.cluster.policy.priority.transitions, (
        10000, 1220,
        "627101086a8c6ebe12671fbccf7903651250a55cc5411d37a3333715bb6ae76e",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ))


def test_two_slo_tenants_out_of_order_pinned(pushes):
    result = assert_settled(
        run_multi_scenario(MultiScenario.from_dict(TWO_SLOS)))
    out_of_order = sum(b for _, b in pushes)
    assert out_of_order > len(pushes) / 3  # 4,758 of 9,972 when pinned
    tenants = result.cluster.tenants
    _pinned(
        [r for c in result.collectors.values() for r in c.records],
        [tenants[name].policy.priority.transitions for name in sorted(tenants)],
        (
            10000, 5292,
            "089857cc6849281c439fb1bb3da6bd45270cfeb43e1137751c3fd1ca234e7f25",
            "d84b58f4c1eb9732767de73dbeab5dfcb0f7dbe8f6d3a32f3770992a08bcd9bf",
        ),
    )


def _run_pinned(result, expected: tuple) -> None:
    records = result.collector.records
    assert (len(records), result.cluster.sim.processed_events) == expected[:2]
    assert digest(records) == expected[2]


def test_entry_resilience_and_kill_pinned(strands):
    result = assert_settled(run_scenario(Scenario.from_dict(ENTRY_RESILIENCE)))
    metrics = result.cluster.metrics
    assert metrics.res_hedges > 1000 and metrics.res_retries > 1000
    # The killed worker's queue held thousands of entry requests, and
    # those no other worker had claimed went back through dispatch.
    [(queued, redispatched)] = strands
    assert queued > 1000 and redispatched > 1000
    _run_pinned(result, (
        10000, 42397,
        "19882ad38cedc6c374169af42eb215a0f69cc5715cfe8b8014ecc4dd6bfb62f6",
    ))


def test_admission_control_drops_pinned():
    result = assert_settled(
        run_scenario(Scenario.from_dict({**OVERLOAD, "policy": "PARD-oc"})))
    rejected = sum(r.drop_reason is DropReason.ADMISSION_CONTROL
                   for r in result.collector.records)
    assert rejected > 1000
    _run_pinned(result, (
        10000, 10163,
        "9617f5bf71f4c99f63553b0ea8ec98f71d1c4ae2959e31805f8ce3f64de0d5a0",
    ))


def test_end_of_trace_mass_drop_pinned():
    spec = Scenario.from_dict(MASS_DROP)
    result = assert_settled(run_scenario(spec))
    drops = Counter(r.finished_at for r in result.collector.records
                    if r.status is RequestStatus.DROPPED)
    assert sum(drops.values()) == 4677
    # One HBF draw empties a worker's queue: 1,326 drops at 2.167 s when
    # pinned.
    [(_, shared)] = drops.most_common(1)
    assert shared >= 1000
    _run_pinned(result, (
        5000, 5299,
        "a53531b4c9e38a0e874884dadb3e45326e61e3190ba352be4ad5cbc1a8d52838",
    ))
    assert assert_settled(run_scenario(spec, lean=True)).summary == Summary(
        total=5000, completed=323, good=266, dropped=4734, drop_rate=0.9468,
        invalid_rate=0.17221562574210342, goodput=133.0,
        mean_goodput_normalized=0.0532,
    )
