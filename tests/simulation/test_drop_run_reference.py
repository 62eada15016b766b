"""Drawn runs of drops, checked against deciding one request at a time.

When PARD drops a request at its draw, the worker asks the policy for a
drop test and pops the run of queued requests behind it that the test
drops, in one pass (:meth:`Worker._draw`).  :class:`PerRequestWorker`
keeps the draw as it was before: every request is popped, decided by
``should_drop`` and dropped on its own.  On every generated spec both
must give the same record ``repr`` for every request (rids rebased),
the same lean :class:`Summary`, the same processed events and fault
log, the same statistics-window samples in the same order, and the same
per-worker telemetry and per-module drop counts; every run must end
settled (:func:`~.test_admission_exact.assert_settled`).  Only the draw
is the old one: the reference's drops still pass through the flow and
the collector as runs of one (``RequestFlow.drop`` calls ``drop_run``,
which calls ``MetricsCollector.record_drops``), so this compares runs of
many with runs of one.  ``tests/metrics/test_collector_columns.py``
holds ``record_drops`` to counters, columns and summaries kept one
request at a time.

The specs are the ``tm`` and ``lv`` chains and the ``da`` DAG under every
PARD variant whose draw takes runs (HBF, LBF, adaptive and instant
priority, FCFS, the split and WCL budgets, and the back and sf
estimates), with overload-then-stop constant and Poisson traces,
optional bursts, kill and degrade faults, and sometimes a resilience hop
on the entry, where the draw must keep deciding one request at a time.
Fixed examples reach the paths a run can take: the end-of-trace mass
drop, an LBF head run longer than the queue's compaction threshold,
``da`` runs that stop at a request a sibling branch already dropped (in
the deadline queue and the FIFO queue),
downstream runs whose requests carry upstream GPU time (whose totals
differ if added in another order), two tenants on shared pools, and
PARD's deep backlog with every entry rescue armed.

Two more guards: the draw that drops a worker's whole queue at the end
of ``MASS_DROP`` asks ``should_drop`` once for that run, and for every
budget mode the drop test agrees with ``should_drop`` and with the
decomposed estimate, ties included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.policy import BudgetMode, PardPolicy
from repro.core.priority import DeadlineDepqQueue, PriorityMode
from repro.experiments.runner import run_multi_scenario, run_scenario
from repro.experiments.scenario import (
    AppSpec,
    BurstSpec,
    MultiScenario,
    Scenario,
    TraceSpec,
)
from repro.interfaces import DropContext, FifoQueue
from repro.metrics.collector import MetricsCollector
from repro.policies.spec import PolicySpec
from repro.simulation import module as module_mod
from repro.simulation.failures import FailureEvent
from repro.simulation.request import Request, RequestStatus
from repro.simulation.resilience import HopResilience
from repro.simulation.stats import WindowedSamples
from repro.simulation.worker import Worker

from ..conftest import make_cluster, tiny_chain_app
from ..spec_strategies import instances
from .test_admission_exact import ENTRY_RESILIENCE, MASS_DROP, assert_settled, sha
from .test_entry_visit_reference import _watchdog_floor
from .test_llm_exact import digest

_IN_FLIGHT = RequestStatus.IN_FLIGHT

#: The PARD variants whose draw takes drop runs.
POLICIES = ("PARD", "PARD-HBF", "PARD-LBF", "PARD-instant", "PARD-split",
            "PARD-WCL", "PARD-back", "PARD-sf", "PARD-FCFS")


class PerRequestWorker(Worker):
    """The batch worker deciding and dropping one request at a time."""

    __slots__ = ()

    def _draw(self, first: Request | None = None) -> None:
        """The draw before drop runs, verbatim."""
        now = self.sim.now
        module = self.module
        target = module.target_batch
        # Hot loop: every request drawn toward a batch passes through here
        # once, so the per-iteration lookups are bound outside the loop.
        queue_pop = self.queue.pop
        forming = self.forming
        should_drop = module.policy.should_drop
        stats = module.stats
        record_queue_delay = stats.queue_delays.record
        record_batch_wait = stats.batch_waits.record
        module_id = module.spec.id
        ctx = self._ctx
        ctx.now = now
        # Resilient hops dispatch duplicate entries (retries/hedges); the
        # first worker to draw one claims the hop via t_batched and every
        # other copy is a tombstone to skip.  An entry request has no
        # visit until a worker draws it, so a missing visit is unclaimed.
        resilient = module._resilience is not None
        while len(forming) < target:
            if first is not None:
                request, first = first, None
            else:
                request = queue_pop(now)
                if request is None:
                    break
            if request.status is not _IN_FLIGHT:
                # A sibling DAG branch already dropped this request; skip it
                # without spending GPU time (its earlier work is already
                # accounted as invalid).
                self.load -= 1
                self.telemetry.skipped_cancelled += 1
                continue
            visit = request.visits.get(module_id)
            if resilient and visit is not None and visit.t_batched is not None:
                # A duplicate dispatch lost the race: another worker (or a
                # fallback) already claimed this hop.
                self.load -= 1
                self.telemetry.skipped_cancelled += 1
                continue
            executing = self.executing
            t_e = executing.end if executing is not None else now
            ctx.request = request
            ctx.expected_start = t_e
            ctx.batch_duration = module.effective_duration(now)
            # The request's own objective, not the cluster's: in a shared
            # (multi-tenant) cluster requests from different apps carry
            # different SLOs through the same pool.
            ctx.slo = request.slo
            reason = should_drop(ctx)
            if visit is None and reason is None:  # a kept entry request
                visit = request.begin_visit(module_id, request.sent_at)
            if visit is None:  # an entry request dropped here: t_r = t_s
                record_queue_delay(now, now - request.sent_at)
            else:
                visit.t_batched = now
                visit.worker_id = self.worker_id
                record_queue_delay(now, now - visit.t_received)
            if reason is not None:
                self.load -= 1
                self.telemetry.dropped_requests += 1
                stats.record_drop()
                module.cluster.drop(request, module_id, reason)
                continue
            record_batch_wait(now, t_e - now if t_e > now else 0.0)
            forming.append(request)
        if self.executing is None and forming:
            self._start_batch()


def outcome(spec: Scenario | MultiScenario) -> tuple:
    """What both draws must agree on: the record digest and the lean
    summaries, processed events and the fault log, every statistics-window
    sample in record order (windows numbered by first sample; a drawn run
    records its samples in one ``record_many`` call, logged here sample by
    sample), and each worker's telemetry and each module's drop count."""
    samples: list[tuple[WindowedSamples, float, float]] = []
    record = WindowedSamples.record
    record_many = WindowedSamples.record_many

    def logged(self, t: float, value: float) -> None:
        samples.append((self, t, value))
        record(self, t, value)

    def logged_many(self, t: float, values: list[float]) -> None:
        samples.extend((self, t, value) for value in values)
        record_many(self, t, values)

    multi = isinstance(spec, MultiScenario)
    run = run_multi_scenario if multi else run_scenario
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(WindowedSamples, "record", logged)
        mp.setattr(WindowedSamples, "record_many", logged_many)
        result = assert_settled(run(spec))
    lean = assert_settled(run(spec, lean=True))
    if multi:
        collectors = list(result.collectors.values())
        summaries = (lean.summaries, lean.aggregate)
    else:
        collectors = [result.collector]
        summaries = lean.summary
    windows: dict[int, int] = {}
    samples_sha = sha([(windows.setdefault(id(w), len(windows)), t, value)
                       for w, t, value in samples])
    modules = result.cluster.modules
    telemetry = [(mid, w.worker_id, astuple(w.telemetry))
                 for mid, module in modules.items() for w in module.workers]
    drops = {mid: module.stats.drops for mid, module in modules.items()}
    return (digest(collectors), summaries, result.cluster.sim.processed_events,
            result.fault_records, samples_sha, telemetry, drops)


@pytest.fixture(scope="module")
def reference():
    """Run a spec with every batch worker deciding one request at a time."""
    def run(spec):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module_mod, "Worker", PerRequestWorker)
            return outcome(spec)
    return run


@st.composite
def run_specs(draw) -> Scenario:
    """An overloaded run of a paper app that stops while queues are deep."""
    hop = draw(st.none() | st.none() | instances(HopResilience).map(_watchdog_floor))
    fault_modules = st.sampled_from(["m1", "m2", "m3"])
    failures = [
        FailureEvent.from_dict({**f.to_dict(), "module_id": draw(fault_modules)})
        for f in draw(st.lists(instances(FailureEvent), max_size=2))
    ]
    bursts = draw(st.lists(st.builds(
        BurstSpec, start=st.floats(0.0, 0.5),
        length=st.sampled_from([0.2, 0.5]), factor=st.sampled_from([1.5, 3.0]),
    ), max_size=1))
    return Scenario(
        app=AppSpec(name=draw(st.sampled_from(["tm", "lv", "da"]))),
        trace=TraceSpec(
            name=draw(st.sampled_from(["constant", "poisson"])),
            duration=draw(st.sampled_from([1.0, 2.0])),
            base_rate=draw(st.sampled_from([300.0, 1200.0, 2500.0])),
            bursts=tuple(bursts),
        ),
        policy=draw(instances(PolicySpec).filter(lambda p: p.name in POLICIES)),
        workers=draw(st.integers(1, 3)),
        failures=tuple(failures),
        resilience={} if hop is None else {"m1": hop},
        seed=draw(st.integers(0, 3)),
        drain=2.0,
    )


def constant(rate: float, duration: float = 2.0) -> dict:
    return {"name": "constant", "duration": duration, "base_rate": rate}


def degrade(module_id: str, time: float, factor: float, downtime: float) -> dict:
    return {"time": time, "module_id": module_id, "kind": "degrade",
            "factor": factor, "downtime": downtime, "workers": 2}


#: Low budget first under overload: the head holds the expired requests,
#: and runs of them are longer than the queue's 64-entry compaction rule.
LBF_HEAD = Scenario.from_dict({
    "app": {"name": "tm"}, "policy": "PARD-LBF", "workers": 2,
    "trace": constant(2500),
})
def sibling_stop(policy: str, rate: float) -> Scenario:
    """Both ``da`` branches slowed: a run at one branch ends at a request
    the other branch already dropped."""
    return Scenario.from_dict({
        "app": {"name": "da"}, "policy": policy, "workers": 2,
        "trace": {"name": "poisson", "duration": 2, "base_rate": rate},
        "failures": [degrade("m2", 0.2, 5.0, 1.5), degrade("m3", 0.3, 3.0, 1.0)],
    })


#: The deadline queue's tail under HBF and the FIFO queue's head.
SIBLING_STOP = sibling_stop("PARD-HBF", 300)
SIBLING_STOP_FIFO = sibling_stop("PARD-FCFS", 600)
#: A slowed last hop: runs at ``m3`` drop requests that carry the GPU
#: time of two upstream batches, and their totals depend on the order
#: they are added in.
DOWNSTREAM_GPU = Scenario.from_dict({
    "app": {"name": "tm"}, "policy": "PARD", "workers": 2,
    "trace": constant(800),
    "failures": [degrade("m3", 0.2, 5.0, 1.5)],
})
#: ``tm`` and ``lv`` share the face-recognition pool, which a straggler
#: slows: a shared pool decides one request at a time.
SHARED_POOL = MultiScenario.from_dict({
    "workers": 2,
    "tenants": [
        {"scenario": {"name": "tm", "app": {"name": "tm"}, "policy": "PARD",
                      "trace": constant(900, duration=1.5)}},
        {"scenario": {"name": "lv", "app": {"name": "lv"},
                      "policy": "PARD-LBF",
                      "trace": constant(600, duration=1.5)}},
    ],
    "failures": [degrade("face_recognition", 0.3, 3.0, 0.8)],
    "drain": 2.0,
})
#: PARD's deep entry backlog with hedges, retrying timeouts and a kill:
#: a resilient entry decides one request at a time.
RESILIENT_ENTRY = Scenario.from_dict({
    **ENTRY_RESILIENCE, "trace": constant(2500),
    "failures": [{"time": 1.0, "module_id": "m1", "downtime": 0.5}],
})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=run_specs())
@example(spec=Scenario.from_dict(MASS_DROP))
@example(spec=LBF_HEAD)
@example(spec=SIBLING_STOP)
@example(spec=SIBLING_STOP_FIFO)
@example(spec=DOWNSTREAM_GPU)
@example(spec=SHARED_POOL)
@example(spec=RESILIENT_ENTRY)
def test_drop_runs_match_per_request_drops(reference, spec):
    assert outcome(spec) == reference(spec)


@pytest.fixture
def runs(monkeypatch) -> list[tuple[str | None, str, int, bool]]:
    """(module, mode, length, ended at a request not in flight) for every
    run a queue popped; a FIFO queue knows no module and reads ``fcfs``."""
    seen = []
    pop_run = DeadlineDepqQueue.pop_run
    fifo_pop_run = FifoQueue.pop_run

    def stopped(after: Request | None) -> bool:
        return after is not None and after.status is not _IN_FLIGHT

    def observed(self, now, drops):
        mode = self._controller.current(self._module_id)
        out = pop_run(self, now, drops)
        after = None
        if len(self):
            after = self._run[-1 if mode == PriorityMode.HBF else self._head]
        seen.append((self._module_id, mode, len(out), stopped(after)))
        return out

    def observed_fifo(self, now, drops):
        out = fifo_pop_run(self, now, drops)
        seen.append((None, "fcfs", len(out),
                     stopped(self._dq[0] if self._dq else None)))
        return out

    monkeypatch.setattr(DeadlineDepqQueue, "pop_run", observed)
    monkeypatch.setattr(FifoQueue, "pop_run", observed_fifo)
    return seen


def test_lbf_head_runs_pass_the_compaction_threshold(runs):
    run_scenario(LBF_HEAD, lean=True)
    assert any(mode == "lbf" and n > DeadlineDepqQueue._COMPACT
               for _, mode, n, _ in runs)


@pytest.mark.parametrize("spec", [SIBLING_STOP, SIBLING_STOP_FIFO],
                         ids=["depq-hbf", "fifo"])
def test_da_runs_stop_at_requests_a_sibling_dropped(runs, spec):
    """Only the branches after ``da``'s fork hold requests a sibling can
    drop, so every such stop is at ``m2`` or ``m3``."""
    run_scenario(spec, lean=True)
    assert any(stopped for *_, stopped in runs)
    assert all(mid != "m1" for mid, *_, stopped in runs if stopped)


def test_downstream_run_totals_depend_on_their_order(monkeypatch):
    """Added in reverse, some run's GPU totals at ``m3`` come out other
    than added in run order."""
    reordered = []
    record_drops = MetricsCollector.record_drops

    def observed(self, requests) -> None:
        gpu = [r.gpu_time for r in requests]
        for start in (self.gpu_time_total, self.wasted_gpu_total):
            forward = backward = start
            for g in gpu:
                forward += g
            for g in reversed(gpu):
                backward += g
            reordered.append((requests[0].dropped_at_module, forward != backward))
        record_drops(self, requests)

    monkeypatch.setattr(MetricsCollector, "record_drops", observed)
    run_scenario(DOWNSTREAM_GPU, lean=True)
    assert ("m3", True) in reordered


def test_shared_pools_and_resilient_entries_take_no_runs(runs):
    """A shared pool's policy offers no drop test, and a resilient entry
    asks for none, so neither pops a run; both still drop."""
    shared = run_multi_scenario(SHARED_POOL, lean=True)
    assert shared.aggregate.dropped > 0
    resilient = run_scenario(RESILIENT_ENTRY, lean=True)
    assert resilient.cluster.modules["m1"].stats.drops > 1000
    assert {mid for mid, *_ in runs} <= {"m2", "m3"}


def test_mass_drop_asks_should_drop_once_per_run(monkeypatch):
    """The draw that drops a worker's whole queue at the end of the trace
    (1,326 requests at 2.167 s when pinned) asks ``should_drop`` once."""
    calls: Counter = Counter()
    should_drop = PardPolicy.should_drop

    def counted(self, ctx):
        reason = should_drop(self, ctx)
        calls[ctx.now, ctx.module.spec.id, ctx.worker.worker_id] += 1
        return reason

    monkeypatch.setattr(PardPolicy, "should_drop", counted)
    result = run_scenario(Scenario.from_dict(MASS_DROP))
    drops = Counter((r.finished_at, r.dropped_at_module)
                    for r in result.collector.records
                    if r.status is RequestStatus.DROPPED)
    [((t, mid), n)] = drops.most_common(1)
    assert n >= 1000
    asked = {key: k for key, k in calls.items() if key[:2] == (t, mid)}
    assert asked and sum(asked.values()) == len(asked)


#: Inputs of an exact drop decision: multiples of 1/1024 s, so every sum
#: and product below is exact and ties are exact too.
TIMES = st.integers(0, 4096).map(lambda k: k / 1024)


@st.composite
def draws(draw) -> tuple:
    """(t_e, d_k, L_sub, share, [(t_s, slo), ...]) for one draw; about a
    third of the requests sit exactly on the SLO or the budget."""
    t_e = draw(TIMES) + 4.0
    d = draw(TIMES)
    sub = draw(TIMES)
    share = draw(st.sampled_from([1.0, 0.5, 0.25, 0.125]))
    requests = []
    for _ in range(draw(st.integers(1, 8))):
        sent_at = draw(TIMES)
        tie = draw(st.sampled_from(["e2e", "budget", None]))
        if tie == "e2e":
            slo = t_e - sent_at + d + sub
        elif tie == "budget":
            slo = (t_e - sent_at + d) / share
        else:
            slo = draw(TIMES) + 0.25
        requests.append((sent_at, slo))
    return t_e, d, sub, share, requests


@pytest.fixture(scope="module")
def bound_policies() -> dict[str, PardPolicy]:
    """One PARD policy per budget mode, bound to a three-module chain."""
    out = {}
    for mode in BudgetMode.ALL:
        policy = PardPolicy(budget_mode=mode, samples=100)
        make_cluster(policy, app=tiny_chain_app(n=3, slo=1.0))
        out[mode] = policy
    return out


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(BudgetMode.ALL), inputs=draws())
def test_drop_test_agrees_with_should_drop(bound_policies, mode, inputs):
    """For every budget mode the test a draw gets from one request gives,
    for every other request of the draw, ``should_drop``'s verdict and
    the decomposed one: ``estimate(ctx).total > slo``, or elapsed plus
    d_k above the cumulative budget; a tie keeps the request."""
    t_e, d, sub, share, requests = inputs
    policy = bound_policies[mode]
    cluster = policy.cluster
    module = cluster.modules["m2"]
    policy.broker._sub[module] = sub
    policy._cum_shares["m2"] = share

    def ctx_for(request: Request) -> DropContext:
        return DropContext(request=request, module=module,
                           worker=module.workers[0], now=t_e,
                           expected_start=t_e, batch_duration=d,
                           slo=request.slo)

    drawn = [Request(sent_at=s, slo=slo) for s, slo in requests]
    drops = policy.drop_test(ctx_for(drawn[0]))
    for request in drawn:
        ctx = ctx_for(request)
        if mode == BudgetMode.E2E:
            late = policy.broker.estimate(ctx).total > request.slo
        else:
            late = (ctx.elapsed + ctx.batch_duration
                    > policy._cumulative_budget("m2", request.slo))
        assert drops(request) == late
        assert (policy.should_drop(ctx) is not None) == late
