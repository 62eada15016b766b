"""Module: one pipeline stage — a controller plus a pool of workers.

Each module serves a specific DNN model with the assigned computation
resources (paper footnote 1).  The controller side (dispatching, runtime
statistics, load factor) lives here; the data-plane batching lives in
:mod:`repro.simulation.worker`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..interfaces import DropPolicy
from ..pipeline.llm_profiles import LLMProfile
from ..pipeline.profiles import ModelProfile
from ..pipeline.spec import ModuleSpec
from .dispatcher import LeastLoadedDispatcher
from .llm import LLMWorker
from .request import Request, RequestStatus
from .stats import ModuleStats
from .worker import Worker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cluster import Cluster


class Module:
    """One stage of the inference pipeline."""

    def __init__(
        self,
        cluster: "Cluster",
        spec: ModuleSpec,
        profile: ModelProfile,
        target_batch: int,
        n_workers: int,
        stats_window: float = 5.0,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"module {spec.id!r} needs at least one worker")
        if target_batch < 1:
            raise ValueError(f"module {spec.id!r}: target batch must be >= 1")
        self.cluster = cluster
        self.sim = cluster.sim
        self.spec = spec
        self.profile = profile
        self.target_batch = min(target_batch, profile.max_batch)
        self.dispatcher = LeastLoadedDispatcher()
        self.stats = ModuleStats(window=stats_window)
        self._next_worker_id = 0
        self._effective_cache: tuple[float, int, float] = (-1.0, 0, 0.0)
        self._parked: list[Request] = []  # arrivals during a total outage
        # False only when no worker can be draining, letting receive()
        # skip the per-request candidate scan (the common case: draining
        # only ever starts in drain_worker).  Recomputed lazily once a
        # drain has been requested.
        self._maybe_draining = False
        # Per-app worker quota (app name -> max dispatchable workers).
        # Installed by SharedCluster on shared pools whose tenants declare
        # quotas; None (the default everywhere else) keeps receive() on
        # its quota-free path.
        self._quota_of: dict[str, int] | None = None
        # Per-hop resilience config (HopResilience), installed by the
        # cluster when the scenario declares one for this module; None —
        # the default — keeps receive() and the worker draw loop on their
        # resilience-free fast paths.
        self._resilience = None
        # Admission hook, resolved once: most policies inherit the base
        # no-op on_admit, in which case receive() skips the call outright.
        policy = cluster.policy
        self._admit_hook = (
            policy.on_admit
            if type(policy).on_admit is not DropPolicy.on_admit
            else None
        )
        self.workers: list[Worker] = []
        for _ in range(n_workers):
            self._add_worker()

    @property
    def policy(self):
        return self.cluster.policy

    # -- capacity -----------------------------------------------------------

    def _add_worker(self) -> Worker:
        # The single worker-factory seam: token-level profiles get the
        # continuous-batching engine, everything else the batch worker.
        cls = LLMWorker if isinstance(self.profile, LLMProfile) else Worker
        worker = cls(self, self._next_worker_id)
        self._next_worker_id += 1
        self.workers.append(worker)
        return worker

    def add_worker(self) -> Worker:
        """Scale out by one worker (used by the scaling engine).

        Requests parked during a total outage are re-dispatched as soon as
        capacity returns.
        """
        worker = self._add_worker()
        if self._parked:
            parked, self._parked = self._parked, []
            for request in parked:
                if request.status is RequestStatus.IN_FLIGHT:
                    self.dispatcher.pick(self.workers).enqueue(request)
        return worker

    def park(self, request: Request) -> None:
        """Hold a request while the module has no live workers."""
        self._parked.append(request)

    def remove_worker(self) -> bool:
        """Scale in by removing one *idle* worker; False if none is idle.

        Never removes the last worker.
        """
        if len(self.workers) <= 1:
            return False
        for i, w in enumerate(self.workers):
            if w.idle and not w.draining:
                del self.workers[i]
                return True
        return False

    def drain_worker(self) -> bool:
        """Gracefully retire one worker: stop dispatching new requests to
        it and remove it once its queue and GPU are empty.

        Prefers an idle worker (removed immediately); else marks the
        least-loaded non-draining worker.  Never drains the last active
        worker.  Returns False when nothing could be drained.
        """
        if self.remove_worker():
            return True
        active = [w for w in self.workers if not w.draining]
        if len(active) <= 1:
            return False
        victim = min(active, key=lambda w: (w.load, w.worker_id))
        victim.draining = True  # the setter flags self._maybe_draining
        return True

    def reap(self, worker: Worker) -> None:
        """Remove a drained worker once it has gone idle."""
        if worker in self.workers and worker.draining and worker.idle:
            self.workers.remove(worker)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def planned_duration(self) -> float:
        """d_k: profiled execution duration at the planned batch size."""
        return self.profile.duration(self.target_batch)

    def effective_batch(self, now: float) -> int:
        """Recently observed average batch size (falls back to the target).

        This is the "current batch size" the paper's State Planner
        synchronises: under light load actual batches run smaller than the
        planned maximum, and estimating d_k at the planned size would
        overstate both the current and downstream execution durations.
        Cached for 0.5 s — the paper refreshes it on sync ticks.  The
        profiled duration at that size is cached alongside it (it is a
        pure function of the batch size, and the pair is consulted once
        per drawn request).
        """
        cached_at, cached, _ = self._effective_cache
        if now - cached_at < 0.5 and cached > 0:
            return cached
        avg = self.stats.avg_batch_size(now, default=float(self.target_batch))
        value = max(1, min(self.target_batch, round(avg)))
        self._effective_cache = (now, value, self.profile.duration(value))
        return value

    def effective_duration(self, now: float) -> float:
        """d_k at the recently observed batch size."""
        cached_at, cached, duration = self._effective_cache
        if now - cached_at < 0.5 and cached > 0:
            return duration
        self.effective_batch(now)
        return self._effective_cache[2]

    def throughput(self) -> float:
        """T_m: module throughput at the planned batch size (req/s)."""
        return self.n_workers * self.profile.throughput(self.target_batch)

    def load_factor(self, now: float) -> float:
        """mu = T_in / T_m: >1 means the module is under-provisioned."""
        t_m = self.throughput()
        if t_m <= 0:
            return float("inf")
        return self.stats.input_rate(now) / t_m

    def queue_length(self) -> int:
        """Total queued (not yet batched) requests across workers."""
        return sum(len(w.queue) for w in self.workers)

    # -- request flow -------------------------------------------------------

    def receive(self, request: Request) -> None:
        """Accept a request arriving at this module (step 4 in Figure 4)."""
        if request.status is not RequestStatus.IN_FLIGHT:
            return  # dropped in transit (DAG sibling with network delay)
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
            # Arm the hop's watchdog/hedge timers before dispatch; they
            # fire as plain heap events and no-op lazily if stale.
            self.cluster.resilience.arm(request, self)
        workers = self.workers
        if self._quota_of is not None:
            # A quota confines the app to a prefix of the pool: its
            # requests only ever dispatch to (and queue at) the first q
            # workers, so a noisy tenant cannot occupy the whole pool.
            q = self._quota_of.get(request.app)
            if q is not None and q < len(workers):
                workers = workers[:q]
        if not self._maybe_draining:
            # Fast path: no drain has been requested, every worker is a
            # candidate — skip the per-request filtering allocation.
            if not workers:
                self.park(request)  # total outage: wait for recovery
                return
            self.dispatcher.pick(workers).enqueue(request)
            return
        candidates = [w for w in workers if not w.draining]
        if len(candidates) == len(workers) and workers is self.workers:
            # Only a full-pool scan may clear the flag: a quota slice
            # proves nothing about the workers it cut off.
            self._maybe_draining = False  # every drainer has been reaped
        if not candidates:
            if not workers:
                self.park(request)  # total outage: wait for recovery
                return
            candidates = workers  # everything draining: least harm
        worker = self.dispatcher.pick(candidates)
        worker.enqueue(request)
