"""LLMWorker: iteration-level continuous batching with a KV-cache budget.

Where the base :class:`~repro.simulation.worker.Worker` executes fixed
batches back-to-back, an LLM engine interleaves *iterations*: each engine
step first admits queued requests into the running batch, then executes
either one prefill iteration (over the newly admitted requests' prompt
tokens, emitting each one's first output token) or one decode iteration
(appending one token to every running request), and retires requests
whose sampled output length is exhausted.  Iteration durations come from
the module's :class:`~repro.pipeline.llm_profiles.LLMProfile`.

The KV cache is a schedulable resource.  Every admitted request holds a
token reservation against the profile's per-worker ``kv_capacity``:

* **block mode** (default): ``prompt + output`` tokens are reserved at
  admission, and admission simply blocks while the cache is full — the
  policy layer sees memory pressure as queueing delay, nothing else.
* **preempt mode** (``profile.preempt=True``): only ``prompt +
  generated`` tokens are reserved, the reservation grows one token per
  decode, and when the cache fills the most recently admitted request is
  preempted back to the head of the admission buffer (keeping its
  generated-token count; its KV is conceptually swapped out).

Contract compatibility: the worker keeps the base class's ``queue`` /
``forming`` / ``executing`` surface, so dispatchers, draining, scaling
and :class:`~repro.simulation.failures.FailureInjector` stranding work
unchanged.  Its counted ``load`` covers queued, forming and running
sequences: +1 at enqueue, -1 for each skip, drop, purge or retirement,
and no change for admission or preemption.  ``forming`` holds requests
popped from the queue but blocked on cache space (plus preempted
requests awaiting resume); ``executing`` is a
:class:`~repro.simulation.worker.Batch` spanning the current iteration
whose ``requests`` list every running sequence, so a worker failure
strands *all* of them (their per-worker KV state dies with the
worker, and generation restarts from scratch on re-dispatch — the sampled
token lengths on the visit are sticky, so the replay is deterministic).

The iteration loop: ``_step`` purges dropped sequences, admits, and
starts one prefill or decode iteration; its ``_finish_step`` event emits
the tokens, retires exhausted sequences and calls ``_step`` again.  Most
decode iterations change nothing, so ``_finish_step`` starts the next
decode iteration itself, on the same :class:`~repro.simulation.worker
.Batch`, when all four of these hold:

* no sequence retired, so no ``on_module_done`` ran and nothing
  re-entered the worker;
* every sequence of the batch is still in flight, so ``_purge`` would do
  nothing and the batch is still the running set;
* ``_admit`` would admit nothing: the counted ``load`` equals the running
  count (the queue and ``forming`` are empty), or the running set is at
  the module's target batch;
* block mode, since preempt mode grows every reservation per decode.

The continuation is inline and makes two calls: it records the batch
size and schedules the next ``_finish_step``.  It reuses the undegraded
decode duration ``_step`` computed when it started the decode batch
(the running set cannot change while that batch executes) and reads
the worker's degrade factor afresh each time, as ``_step`` does (a
straggler fault can begin or end between two iterations), so records,
window samples and event order are those of going through ``_step``
every time.

Token accounting.  A prefill emits each sequence's first token on the
spot.  A decode iteration touches no sequence: it appends its GPU share,
``(end - start) / producers``, to the worker's share log (an
``array('d')``), remembers its end time, and compares the log's length
with the *horizon*: a lower bound on the tokens any running sequence
still owes, recomputed by each settle and lowered when a prefill or a
resumed preemption adds a sequence.  Between settles a running
sequence's GPU time, ``tokens_out`` and ``last_token_at`` lack the
logged iterations, and ``_generated`` holds its *settled* count.  A
settle folds the log into every running in-flight sequence (every one
produced in each logged iteration: the running set only changes through
``_step``, and a drop settles first), then empties the log and
recomputes the horizon.  Settles run

* when the log reaches the horizon; sequences then retire in batch order;
* at the top of ``_step``, before the running set can change;
* in ``FailureInjector._strand``, before a killed worker's sequences are
  re-dispatched;
* in ``RequestFlow.drop``, before a request this worker decodes is marked
  dropped (``before_drop``).  The drop also makes the end of the
  iteration then executing count its producers, as every prefill does;
  a decode iteration without a drop skips that scan.  A drop is the only
  way a decoding sequence leaves flight: a request cannot complete while
  one of its hops still decodes it.

The fold is exact.  Each sequence's GPU time takes the logged shares one
by one in log order (``reduce(add, ...)``), the same IEEE additions in
the same order as adding each share at its iteration's end.  Token
counts grow by the log's length.  ``last_token_at`` takes the later of
its value and the latest logged end, because two LLM branches of one
DAG can stream the same request and settle in either order.
"""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from operator import add
from typing import TYPE_CHECKING

from ..pipeline.llm_profiles import LLMProfile
from .request import DropReason, Request, RequestStatus
from .worker import Batch, Worker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .module import Module

# Bound once (see .request).
_IN_FLIGHT = RequestStatus.IN_FLIGHT
_ADMISSION_CONTROL = DropReason.ADMISSION_CONTROL
_UNBOUNDED = sys.maxsize  # the horizon with no sequence running


class LLMWorker(Worker):
    """One GPU running continuous batching for a token-level module."""

    __slots__ = (
        "kv_used", "_running", "_reserved", "_generated", "_need_prefill",
        "_token_rng", "_decode_duration", "_shares", "_last_end", "_horizon",
        "_dropped",
    )

    def __init__(self, module: "Module", worker_id: int) -> None:
        if not isinstance(module.profile, LLMProfile):
            raise TypeError(
                f"module {module.spec.id!r}: LLMWorker needs an LLMProfile, "
                f"got {type(module.profile).__name__}"
            )
        super().__init__(module, worker_id)
        self.kv_used = 0
        self._running: list[Request] = []  # admitted, KV-resident sequences
        self._reserved: dict[int, int] = {}  # rid -> reserved cache tokens
        self._generated: dict[int, int] = {}  # rid -> settled output tokens
        self._need_prefill: list[Request] = []  # admitted but not yet prefilled
        # Undegraded duration of the executing decode batch (set by _step).
        self._decode_duration = 0.0
        # The share log: each decode iteration since the last settle, as
        # its per-sequence GPU share, plus the end of the latest one.  The
        # horizon is a lower bound on the tokens any running sequence
        # still owes, counted from the last settle.
        self._shares = array("d")
        self._last_end = 0.0
        self._horizon = _UNBOUNDED
        # A decoded sequence may have been dropped since the last _purge.
        self._dropped = False
        # The module's named token-length stream, shared by its workers.
        self._token_rng = module.cluster.rng.stream(f"llm:{module.spec.id}")

    # -- request flow -------------------------------------------------------

    def _sample_tokens(self, request: Request) -> None:
        """Sample prompt/output lengths once per request per module.

        Drawn from the cluster's named RNG stream in dispatch order, so
        lengths are deterministic for a given scenario seed and sticky
        across failure re-dispatch (0 is the not-sampled sentinel; draws
        are clamped >= 1).  An entry request's visit opens here, with
        t_r = t_s (see :meth:`Module.receive`).
        """
        module = self.module
        visit = request.visits.get(module.spec.id)
        if visit is None:
            visit = request.begin_visit(module.spec.id, request.sent_at)
        elif visit.prompt_tokens:
            return
        profile = module.profile
        rng = self._token_rng
        visit.prompt_tokens = profile.prompt_dist.sample(rng)
        visit.output_tokens = profile.output_dist.sample(rng)

    def enqueue(self, request: Request) -> None:
        """Accept a dispatched request and advance the engine if idle."""
        self._sample_tokens(request)
        self.load += 1
        self.queue.push(request, self.sim.now)
        if self.executing is None:
            self._step()

    def _release(self, rid: int) -> None:
        self.kv_used -= self._reserved.pop(rid, 0)

    def before_drop(self, request: Request) -> None:
        """Settle before ``request`` is marked dropped, if this worker has
        decoded tokens for it (its flow calls this on every LLM worker)."""
        if request.rid in self._generated:
            self.settle()
            self._dropped = True  # the iteration's end counts its producers

    def _purge(self) -> None:
        """Evict sequences a sibling branch already dropped (free their KV)."""
        self._dropped = False
        running = self._running
        for r in running:
            if r.status is not _IN_FLIGHT:
                break
        else:
            return
        keep = []
        for r in running:
            if r.status is _IN_FLIGHT:
                keep.append(r)
            else:
                self.load -= 1
                self.telemetry.skipped_cancelled += 1
                self._release(r.rid)
                self._generated.pop(r.rid, None)
        self._running = keep
        self._need_prefill = [
            r for r in self._need_prefill if r.status is _IN_FLIGHT
        ]

    def _admit(self, now: float) -> None:
        """Move queued requests into the running batch.

        Each *fresh* request gets its once-only drop decision here (t_b);
        resumed preemptions were decided at first admission.  Admission
        stops at the module's target batch (max concurrent sequences) or
        when the next request's KV reservation does not fit — blocked
        requests wait in ``forming`` in FIFO order so memory pressure
        surfaces as queueing delay, never reordering.
        """
        module = self.module
        profile = module.profile
        target = module.target_batch
        running = self._running
        capacity = profile.kv_capacity
        block = not profile.preempt
        module_id = module.spec.id
        stats = module.stats
        ctx = self._ctx
        ctx.now = now
        forming = self.forming
        resilient = module._resilience is not None
        while len(running) < target:
            if forming:
                request = forming[0]
                from_forming = True
            else:
                from_forming = False
                request = self.queue.pop(now)
                if request is None:
                    break
            if request.status is not _IN_FLIGHT:
                if from_forming:
                    forming.pop(0)
                self.load -= 1
                self.telemetry.skipped_cancelled += 1
                continue
            self._sample_tokens(request)  # parked arrivals skip enqueue()
            visit = request.visits[module_id]
            worst = visit.prompt_tokens + visit.output_tokens
            generated = self._generated.get(request.rid)
            if resilient and generated is None and visit.t_batched is not None:
                # A duplicate dispatch (retry/hedge) lost the race: this
                # hop was already claimed at another worker.  Preempted
                # resumes are exempt — they carry per-worker generated
                # state, which duplicates never have.
                if from_forming:
                    forming.pop(0)
                self.load -= 1
                self.telemetry.skipped_cancelled += 1
                continue
            if worst > capacity:
                # Could never fit even on an empty cache: reject outright
                # rather than wedging the worker behind it forever.
                if from_forming:
                    forming.pop(0)
                visit.t_batched = now
                visit.worker_id = self.worker_id
                stats.queue_delays.record(now, now - visit.t_received)
                self.load -= 1
                self.telemetry.dropped_requests += 1
                stats.record_drop()
                module.cluster.drop(request, module_id, _ADMISSION_CONTROL)
                continue
            # Fresh sequences in preempt mode reserve prompt + the first
            # token prefill will emit; block mode reserves the worst case.
            need = worst if block else visit.prompt_tokens + (generated or 1)
            if self.kv_used + need > capacity:
                if not from_forming:
                    forming.append(request)
                break
            if from_forming:
                forming.pop(0)
            if generated is None:
                ctx.request = request
                ctx.expected_start = now
                ctx.batch_duration = profile.request_estimate(
                    visit.prompt_tokens, visit.output_tokens, len(running) + 1
                )
                ctx.slo = request.slo
                visit.t_batched = now
                visit.worker_id = self.worker_id
                stats.queue_delays.record(now, now - visit.t_received)
                reason = module.policy.should_drop(ctx)
                if reason is not None:
                    self.load -= 1
                    self.telemetry.dropped_requests += 1
                    stats.record_drop()
                    module.cluster.drop(request, module_id, reason)
                    continue
                stats.batch_waits.record(now, 0.0)
                self._need_prefill.append(request)
            elif visit.output_tokens - generated < self._horizon:
                # A resumed preemption decodes without a prefill.
                self._horizon = visit.output_tokens - generated
            self.kv_used += need
            self._reserved[request.rid] = need
            running.append(request)

    def _grow_reservations(self) -> None:
        """Preempt mode: reserve one more token per sequence before a
        decode iteration, preempting the most recently admitted sequences
        while the cache cannot hold the growth (at least one sequence
        always keeps making progress)."""
        running = self._running
        capacity = self.module.profile.kv_capacity
        while len(running) > 1 and self.kv_used + len(running) > capacity:
            victim = running.pop()
            self._release(victim.rid)
            self.forming.insert(0, victim)
        for r in running:
            self._reserved[r.rid] += 1
        self.kv_used += len(running)

    def settle(self, exhausted: list[Request] | None = None) -> None:
        """Fold the share log into every running in-flight sequence.

        Each sequence's GPU time takes the logged shares in log order, and
        its settled and streamed token counts grow by the log's length
        (see the module docstring).  Empties the log and recomputes the
        horizon.  Sequences now at their last token go to ``exhausted``
        in batch order; only a settle at the horizon finds any.
        """
        shares = self._shares
        n = len(shares)
        if not n:
            return
        log = shares.tolist()  # boxed once, not once per sequence
        module_id = self.module.spec.id
        generated_by = self._generated
        last = self._last_end
        horizon = _UNBOUNDED
        for request in self._running:
            if request.status is not _IN_FLIGHT:
                continue
            visit = request.visits[module_id]
            visit.gpu_time = reduce(add, log, visit.gpu_time)
            rid = request.rid
            generated = generated_by[rid] + n
            generated_by[rid] = generated
            request.tokens_out += n
            if request.last_token_at < last:
                request.last_token_at = last
            left = visit.output_tokens - generated
            if left <= 0:
                exhausted.append(request)
            elif left < horizon:
                horizon = left
        del shares[:]
        self._horizon = horizon

    def _step(self) -> None:
        """Run one continuous-batching engine iteration."""
        if self.executing is not None:
            return
        self.settle()
        now = self.sim.now
        self._purge()
        running = self._running
        if self.load != len(running):  # else queue and forming are empty
            self._admit(now)
        if not running:
            if self.draining and self.idle:
                self.module.reap(self)
            return
        module = self.module
        profile = module.profile
        if self._need_prefill:
            prefill_seqs = self._need_prefill
            self._need_prefill = []
            module_id = module.spec.id
            total_prompt = sum(
                r.visits[module_id].prompt_tokens for r in prefill_seqs
            )
            duration = profile.prefill_duration(total_prompt)
        else:
            prefill_seqs = None
            if profile.preempt:
                self._grow_reservations()
            duration = profile.decode_duration(len(running))
            self._decode_duration = duration
        if self.degrade_factor != 1.0:
            duration *= self.degrade_factor  # straggler fault active
        end = now + duration
        batch = Batch(list(running), now, end)
        self.executing = batch
        telemetry = self.telemetry
        telemetry.batches += 1
        telemetry.busy_time += duration
        module.stats.record_batch(now, len(running))
        self.sim.schedule(end, self._finish_step, batch, prefill_seqs)

    def _finish_step(
        self, batch: Batch, prefill_seqs: list[Request] | None
    ) -> None:
        """One iteration finished: emit tokens, retire exhausted sequences."""
        if batch.aborted:
            return  # the worker died mid-iteration (failure injection)
        now = self.sim.now
        module = self.module
        source = prefill_seqs if prefill_seqs is not None else batch.requests
        producers = source
        if prefill_seqs is not None or self._dropped:
            for r in source:
                if r.status is not _IN_FLIGHT:
                    producers = [r for r in source if r.status is _IN_FLIGHT]
                    break
        retired: list[Request] = []
        if producers and prefill_seqs is None:
            # A decode iteration only logs its share: no sequence owes
            # fewer tokens than the horizon, so none retires before.
            shares = self._shares
            shares.append((batch.end - batch.start) / len(producers))
            self._last_end = now
            if len(shares) >= self._horizon:
                self.settle(retired)
        elif producers:
            # A prefill emits its sequences' first tokens on the spot; the
            # share log only ever holds decode iterations.
            module_id = module.spec.id
            start, size = batch.start, batch.size
            share = (batch.end - start) / len(producers)
            generated_by = self._generated
            horizon = self._horizon
            for request in producers:
                visit = request.visits[module_id]
                if visit.t_exec_start is None:
                    visit.t_exec_start = start
                    visit.batch_size = size
                if request.first_token_at is None:
                    request.first_token_at = now
                visit.gpu_time += share
                rid = request.rid
                generated = generated_by.get(rid, 0) + 1
                generated_by[rid] = generated
                request.last_token_at = now
                request.tokens_out += 1
                left = visit.output_tokens - generated
                if left <= 0:
                    retired.append(request)
                elif left < horizon:
                    horizon = left
            self._horizon = horizon
        for request in retired:
            # Last token: free the KV reservation and retire.
            request.visits[module.spec.id].t_exec_end = now
            rid = request.rid
            self._release(rid)
            del self._generated[rid]
            self._running.remove(request)
            self.load -= 1
            self.telemetry.executed_requests += 1
        if prefill_seqs is None and not retired and producers is source:
            # A quiet decode iteration (see the module docstring): continue
            # in place when _step would only start the same decode again.
            n = len(self._running)
            if not module.profile.preempt and (
                self.load == n or n >= module.target_batch
            ):
                duration = self._decode_duration
                if self.degrade_factor != 1.0:
                    duration *= self.degrade_factor  # straggler fault active
                batch.start = now
                batch.end = end = now + duration
                telemetry = self.telemetry
                telemetry.batches += 1
                telemetry.busy_time += duration
                stats = module.stats
                stats.batch_sizes.record(now, float(n))
                stats.executed += n
                self.sim.schedule(end, self._finish_step, batch, None)
                return
        # Forward retirees only after all engine bookkeeping is settled:
        # on_module_done can synchronously re-enter this worker (a shared
        # pool serving consecutive pipeline modules dispatches right back),
        # which must observe a consistent running set.  The iteration stays
        # marked as executing until here so a re-entrant enqueue defers to
        # the _step below instead of starting a conflicting one.
        self.executing = None
        on_module_done = module.cluster.on_module_done
        for request in retired:
            on_module_done(request, module)
        self._step()
