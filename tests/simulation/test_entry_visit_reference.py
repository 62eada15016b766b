"""Entry visits open at the draw, checked against visits opened on arrival.

A request reaches its pipeline entry inside its send event, so its t_r
there is its t_s, and :meth:`Module.receive` leaves the entry visit to
the worker that takes the request: the batch worker opens it when it
draws the request and keeps it, the LLM worker when it samples the
request's token lengths.  :func:`receive_on_arrival` is the receive that
opens every visit on arrival instead.  On every generated spec both must
give the same record ``repr`` for every request (rids rebased), process
the same number of events, log the same faults and record the same
statistics-window samples in the same order, and every run must end
settled (:func:`~.test_admission_exact.assert_settled`).

The specs are the ``tm`` and ``lv`` chains and the ``da`` DAG under PARD,
PARD-oc, Naive, Nexus and Clipper++, with resilience on the entry hop and
kill and degrade faults on the entry module drawn from their declared
schemas (:mod:`tests.spec_strategies`).  Fixed examples reach every path
a request queued at its entry can take before a worker draws it: hedges,
timeouts with retry and with drop, a kill that strands the queue, and
PARD-oc's admission drops, an LLM entry whose only worker dies; one
runs two tenants on a shared entry pool, and one ends its trace with
each worker's draw dropping its whole queue.

A tracemalloc guard holds a request queued at the entry to its queue
slot: no visit, and a visits dict the cyclic GC does not track.  Another
holds a new request to its own slots: until its first visit it shares
one empty visits dict with every other such request.  A request PARD
drops at its entry draw ends with no visit at all.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import build_cluster, run_multi_scenario, run_scenario
from repro.experiments.scenario import AppSpec, MultiScenario, Scenario, TraceSpec
from repro.policies.spec import PolicySpec
from repro.simulation.cluster import RequestFlow
from repro.simulation.failures import FailureEvent
from repro.simulation.module import Module
from repro.simulation.request import Request, RequestStatus
from repro.simulation.resilience import HopResilience
from repro.simulation.stats import WindowedSamples

from ..spec_strategies import instances
from .test_admission_exact import MASS_DROP, assert_settled, sha
from .test_llm_exact import digest
from .test_llm_reference import COSTS

_IN_FLIGHT = RequestStatus.IN_FLIGHT

POLICIES = ("PARD", "PARD-oc", "Naive", "Nexus", "Clipper++")


def receive_on_arrival(self: Module, request: Request) -> None:
    """:meth:`Module.receive` opening every visit on arrival, entry too."""
    if request.status is not _IN_FLIGHT:
        return
    now = self.sim.now
    request.begin_visit(self.spec.id, now)
    self.stats.arrivals.record(now)
    if self._admit_hook is not None:
        reason = self._admit_hook(request, self, now)
        if reason is not None:
            self.stats.record_drop()
            self.cluster.drop(request, self.spec.id, reason)
            return
    if self._resilience is not None:
        self.cluster.resilience.arm(request, self)
    self.dispatch(request)


def _watchdog_floor(hop: HopResilience) -> HopResilience:
    """``hop`` with its timeout raised to at least 0.1 s.

    A module with no live worker re-arms each parked request's watchdog
    every ``timeout``, so a tiny timeout over a long outage means
    millions of events (and one below the clock's resolution, forever).
    """
    if hop.timeout is None or hop.timeout >= 0.1:
        return hop
    return replace(hop, timeout=0.1)


@st.composite
def entry_specs(draw) -> Scenario:
    """A short run of a paper app, often overloaded, with entry faults."""
    hop = draw(st.none() | instances(HopResilience).map(_watchdog_floor))
    return Scenario(
        app=AppSpec(name=draw(st.sampled_from(["tm", "lv", "da"]))),
        trace=TraceSpec(
            name=draw(st.sampled_from(["poisson", "constant"])),
            duration=draw(st.sampled_from([1.0, 2.0])),
            base_rate=draw(st.sampled_from([40.0, 300.0, 1200.0])),
        ),
        policy=draw(instances(PolicySpec).filter(lambda p: p.name in POLICIES)),
        workers=draw(st.integers(1, 3)),
        failures=tuple(draw(st.lists(instances(FailureEvent), max_size=2))),
        resilience={} if hop is None else {"m1": hop},
        seed=draw(st.integers(0, 3)),
        drain=2.0,
    )


def outcome(spec: Scenario | MultiScenario) -> tuple:
    """What the two receives must agree on: the record digest, processed
    events and fault log, and every statistics-window sample in record
    order (windows numbered by first sample), which the records alone
    would not show for a request dropped before it executed.  A drawn
    run of drops records its samples in one ``record_many`` call, logged
    here sample by sample."""
    samples: list[tuple[WindowedSamples, float, float]] = []
    record = WindowedSamples.record
    record_many = WindowedSamples.record_many

    def logged(self, t: float, value: float) -> None:
        samples.append((self, t, value))
        record(self, t, value)

    def logged_many(self, t: float, values: list[float]) -> None:
        samples.extend((self, t, value) for value in values)
        record_many(self, t, values)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WindowedSamples, "record", logged)
        mp.setattr(WindowedSamples, "record_many", logged_many)
        if isinstance(spec, MultiScenario):
            result = assert_settled(run_multi_scenario(spec))
            collectors = list(result.collectors.values())
        else:
            result = assert_settled(run_scenario(spec))
            collectors = [result.collector]
    windows: dict[int, int] = {}
    samples_sha = sha([(windows.setdefault(id(w), len(windows)), t, value)
                       for w, t, value in samples])
    return (digest(collectors), result.cluster.sim.processed_events,
            result.fault_records, samples_sha)


def constant(rate: float, duration: float = 2.0) -> dict:
    return {"name": "constant", "duration": duration, "base_rate": rate}


#: PARD's deep entry backlog with every rescue the entry hop can take:
#: hedges, timeouts that retry and then drop, and a kill that strands the
#: queue of one of three workers.
HEDGE_RETRY_KILL = Scenario.from_dict({
    "app": {"name": "tm"}, "policy": "PARD", "workers": 3,
    "trace": constant(2500),
    "resilience": {"m1": {"timeout": 0.3, "on_timeout": "retry",
                          "retry": {"max": 1, "base": 0.05}, "hedge": 0.05}},
    "failures": [{"time": 1.0, "module_id": "m1", "downtime": 0.5}],
})
#: Timeouts that drop queued entry requests on the ``da`` DAG under
#: Naive, whose FIFO queue holds them past the deadline, and a straggler.
TIMEOUT_DROP = Scenario.from_dict({
    "app": {"name": "da"}, "policy": "Naive", "workers": 2,
    "trace": constant(600),
    "resilience": {"m1": {"timeout": 0.2, "on_timeout": "drop"}},
    "failures": [{"time": 0.5, "module_id": "m1", "kind": "degrade",
                  "factor": 3.0, "downtime": 0.5}],
})
#: Every entry worker killed at once: arrivals park until recovery, while
#: hedges and timeouts fire on them.
TOTAL_OUTAGE = Scenario.from_dict({
    "app": {"name": "lv"}, "policy": "Clipper++", "workers": 2,
    "trace": constant(400),
    "resilience": {"m1": {"timeout": 0.1, "retry": {"max": 2, "base": 0.02},
                          "hedge": 0.03}},
    "failures": [{"time": 0.5, "module_id": "m1", "workers": 2,
                  "downtime": 0.4}],
})
#: PARD-oc rejecting requests at admission under overload.
ADMISSION = Scenario.from_dict({
    "app": {"name": "tm"}, "policy": "PARD-oc", "workers": 2,
    "trace": constant(2500),
})
#: An LLM entry whose only worker is killed: arrivals park, and their
#: visits open when the recovered worker samples their lengths.
LLM_OUTAGE = Scenario.from_dict({
    "app": {"chain": ["gen1"], "slo": 2.0, "profiles": [
        {**COSTS, "name": "gen1", "max_batch": 4, "kv_capacity": 600,
         "prompt_dist": {"kind": "uniform", "low": 8, "high": 90},
         "output_dist": {"kind": "uniform", "low": 1, "high": 40}},
    ]},
    "resilience": {"m1": {"timeout": 0.3, "on_timeout": "drop"}},
    "failures": [{"time": 1.0, "module_id": "m1", "downtime": 0.5}],
    "trace": {"name": "poisson", "duration": 3, "base_rate": 30},
    "workers": 1, "policy": "PARD", "drain": 2.0,
})
#: ``tm`` and ``gm`` enter through one shared ``object_detection`` pool,
#: which a kill and a straggler hit while it holds both tenants' backlog.
SHARED_ENTRY = MultiScenario.from_dict({
    "workers": 2,
    "tenants": [
        {"scenario": {"name": "tm", "app": {"name": "tm"}, "policy": "PARD",
                      "trace": constant(900)}},
        {"scenario": {"name": "gm", "app": {"name": "gm"}, "policy": "PARD-oc",
                      "trace": constant(900)}},
    ],
    "failures": [
        {"time": 0.8, "module_id": "object_detection", "downtime": 0.4},
        {"time": 0.3, "module_id": "object_detection", "kind": "degrade",
         "factor": 2.0, "downtime": 1.0},
    ],
    "drain": 2.0,
})


@pytest.fixture(scope="module")
def reference():
    """Run a spec with every visit opened on arrival."""
    def run(spec):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Module, "receive", receive_on_arrival)
            return outcome(spec)
    return run


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=entry_specs())
@example(spec=HEDGE_RETRY_KILL)
@example(spec=TIMEOUT_DROP)
@example(spec=TOTAL_OUTAGE)
@example(spec=ADMISSION)
@example(spec=LLM_OUTAGE)
@example(spec=SHARED_ENTRY)
@example(spec=Scenario.from_dict(MASS_DROP))
def test_draw_time_entry_visits_match_arrival_visits(reference, spec):
    assert outcome(spec) == reference(spec)


def test_queued_entry_requests_hold_no_visit():
    """A request queued at a busy entry costs its queue slot and nothing
    more: no visit, an empty visits dict the GC does not track, and at
    most 64 B of new allocations per arrival (a visit, with the dict
    that holds it, is ~300 B)."""
    cluster, _ = build_cluster(Scenario.from_dict({
        "app": {"name": "tm"}, "policy": "PARD", "workers": 1,
        "trace": constant(100),
    }))
    entry = cluster.modules["m1"]
    now = cluster.sim.now
    # Start a batch and fill the forming one, so every later arrival only
    # queues; then grow the columns past their first reallocations.
    for _ in range(2 * entry.target_batch + 200):
        entry.receive(Request(sent_at=now, slo=cluster.slo))
    requests = [Request(sent_at=now, slo=cluster.slo) for _ in range(20_000)]
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for request in requests:
            entry.receive(request)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    worker = entry.workers[0]
    assert len(worker.queue) >= len(requests)
    assert all(r.visits == {} and not gc.is_tracked(r.visits) for r in requests)
    assert grown <= 64 * len(requests), grown / len(requests)


def test_new_requests_own_no_visits_dict():
    """A request that has not visited a module yet costs its own slots and
    rid, ~164 B with its list slot: it shares one empty visits dict with
    every other such request, where a dict of its own would add 64 B."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        requests = [Request(sent_at=0.0, slo=1.0) for _ in range(20_000)]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert grown <= 200 * len(requests), grown / len(requests)


def test_entry_drops_open_no_visit(monkeypatch):
    """PARD decides an entry request when a worker draws it, and a request
    it drops there never opens a visit.  A request dropped downstream
    keeps the visit it opened on arrival, stamped with its draw.  Every
    drop, alone or in a drawn run, goes through ``RequestFlow.drop_run``
    (``drop`` is its one-request case), so the spy sits there."""
    dropped: list[tuple[Request, str]] = []
    drop_run = RequestFlow.drop_run

    def observed(self, requests, module_id, reason) -> None:
        dropped.extend((request, module_id) for request in requests)
        drop_run(self, requests, module_id, reason)

    monkeypatch.setattr(RequestFlow, "drop_run", observed)
    result = run_scenario(Scenario.from_dict(MASS_DROP))
    entry = [r for r, mid in dropped if mid == "m1"]
    downstream = [(r, mid) for r, mid in dropped if mid != "m1"]
    assert len(entry) > 1000 and downstream
    assert all(r.visits == {} for r in entry)
    assert all(r.visits[mid].t_batched is not None for r, mid in downstream)
    assert_settled(result)
