"""Worker: one GPU serving one module's model with dynamic batching.

The batching mechanics follow Figure 3b of the paper: a worker collects the
next batch *while* the previous batch executes (never letting the GPU idle),
so a request drawn into the forming batch at ``t_b`` waits ``W = t_e - t_b``
until the expected start ``t_e`` (= the end of the executing batch).  The
drop decision for each request is made exactly once, at ``t_b``, via the
bound policy — at that moment all bi-directional runtime information is
available (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..simulation.request import Request, RequestStatus
from ..interfaces import DropContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .module import Module

_IN_FLIGHT = RequestStatus.IN_FLIGHT  # bound once (see .request)


@dataclass(slots=True)
class Batch:
    """A batch executing on the GPU."""

    requests: list[Request]
    start: float
    end: float
    aborted: bool = False  # set when the worker dies mid-execution

    @property
    def size(self) -> int:
        return len(self.requests)


@dataclass(slots=True)
class WorkerTelemetry:
    """Counters exposed for tests and overhead analysis."""

    batches: int = 0
    executed_requests: int = 0
    dropped_requests: int = 0
    skipped_cancelled: int = 0
    busy_time: float = 0.0


class Worker:
    """One GPU container executing batches for a single module."""

    __slots__ = (
        "module", "worker_id", "sim", "queue", "forming", "executing",
        "load", "_draining", "telemetry", "_ctx", "degrade_factor",
    )

    def __init__(self, module: "Module", worker_id: int) -> None:
        self.module = module
        self.worker_id = worker_id
        self.sim = module.sim
        self.queue = module.policy.make_queue(module)
        self.forming: list[Request] = []
        self.executing: Batch | None = None
        # Outstanding requests (queued + forming + executing), counted
        # where a request enters or leaves the worker so least-loaded
        # dispatch reads a plain int.  Moves between the queue, forming
        # and executing leave it unchanged.
        self.load = 0
        self._draining = False
        # Straggler injection (FailureEvent kind="degrade"): batches run
        # this many times slower while the fault is active.  1.0 — the
        # permanent value on healthy clusters — is branch-free cheap.
        self.degrade_factor = 1.0
        self.telemetry = WorkerTelemetry()
        # Reusable drop context: rewritten per drawn request in _draw so
        # the hot loop does not allocate one per decision (policies read
        # it synchronously; see the DropContext docstring).
        self._ctx = DropContext(
            request=None,  # type: ignore[arg-type] - set before every use
            module=module,
            worker=self,
            now=0.0,
            expected_start=0.0,
            batch_duration=0.0,
            slo=0.0,
        )

    @property
    def draining(self) -> bool:
        return self._draining

    @draining.setter
    def draining(self, value: bool) -> None:
        # Route through the module's draining flag so its dispatch fast
        # path (no candidate filtering while nothing drains) stays valid
        # no matter who marks the worker.
        self._draining = value
        if value:
            self.module._maybe_draining = True

    # -- introspection ------------------------------------------------------

    @property
    def idle(self) -> bool:
        """Nothing queued, forming or executing (running, on LLM workers)."""
        return self.load == 0

    @property
    def expected_start(self) -> float:
        """t_e: when the batch currently being formed will start executing."""
        return self.executing.end if self.executing else self.sim.now

    # -- request flow -------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        """Accept a dispatched request and advance batching.

        Same outcome as pushing the request and drawing, minus the queue
        traffic that cannot change it:

        * the forming batch has room and the queue is empty: the request
          is decided on the spot (its t_b is now), since a push would
          only pop it straight back;
        * a batch is executing and the forming batch is full: the request
          is only queued, since nothing can be drawn before that batch
          ends;
        * otherwise it is queued and the worker draws.
        """
        self.load += 1
        full = len(self.forming) >= self.module.target_batch
        if not full and not self.queue:
            self._draw(request)
            return
        self.queue.push(request, self.sim.now)
        if not full or self.executing is None:
            self._draw()

    def _draw(self, first: Request | None = None) -> None:
        """Pull requests from the queue into the forming batch.

        Each drawn request gets its drop decision here (t_b), with the
        expected batch start t_e known.  Respects the module's target batch
        size as the forming capacity.  ``first``, when given, is a request
        that never entered the queue (see :meth:`enqueue`); it is decided
        before anything is popped.

        An entry request has no visit yet, and its t_r is its t_s: the draw
        opens its visit only if the policy keeps it, and a drop records the
        queueing delay from t_s without one.  A visit already open is
        stamped with t_b and the worker either way.
        """
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

    def _start_batch(self) -> None:
        """Begin executing the forming batch on the GPU."""
        now = self.sim.now
        requests = self.forming
        self.forming = []
        size = len(requests)
        duration = self.module.profile.duration(size)
        if self.degrade_factor != 1.0:
            duration *= self.degrade_factor  # straggler fault active
        share = duration / size
        module_id = self.module.spec.id
        end = now + duration
        for r in requests:
            v = r.visits[module_id]
            v.t_exec_start = now
            v.t_exec_end = end
            v.batch_size = size
            v.gpu_time = share
        batch = Batch(requests=requests, start=now, end=end)
        self.executing = batch
        self.telemetry.batches += 1
        self.telemetry.executed_requests += size
        self.telemetry.busy_time += duration
        self.module.stats.record_batch(now, size)
        self.sim.schedule(batch.end, self._finish_batch, batch)
        # Immediately begin forming the next batch (Figure 3b: collection
        # starts right after the previous batch begins execution).  With
        # nothing queued a draw would only pop None.
        if self.queue:
            self._draw()

    def _finish_batch(self, batch: Batch) -> None:
        """Batch execution completed: forward requests, start next batch."""
        if batch.aborted:
            return  # the worker died mid-execution (failure injection)
        self.executing = None
        self.load -= len(batch.requests)
        for request in batch.requests:
            self.module.cluster.on_module_done(request, self.module)
        if self.forming:
            self._start_batch()
        elif self.queue:
            self._draw()
        if self.draining and self.idle:
            self.module.reap(self)
