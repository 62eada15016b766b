"""Fault injection: worker kills, degraded workers, link partitions.

The paper motivates dropping with "unpredictable events such as workload
bursts or machine failure" (§1, §2).  The injector applies a schedule of
typed :class:`FailureEvent`\\ s to a cluster:

* ``kind="kill"`` (the legacy shape): a module instantly loses
  ``workers`` machines for ``downtime``; requests stranded in a dead
  worker's queue/batch are re-dispatched (or parked during a total
  outage and replayed on recovery).
* ``kind="degrade"``: ``workers`` machines of a module run with their
  service time inflated by ``factor`` for ``downtime`` — stragglers,
  not outages.
* ``kind="link"``: the edge ``module_id -> dst`` stops carrying token
  handoffs for ``downtime``.  Handoffs initiated while the link is down
  are parked and replayed on heal, so join accounting sees the token
  late rather than never — a partitioned branch delays its join, it
  does not deadlock it.

Every action is recorded as a :class:`FaultRecord`; reports show them
as the ``faults`` table (:func:`repro.metrics.export.fault_table`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..schema import Int, Num, Opt, Spec, Str, field
from .cluster import Cluster
from .llm import LLMWorker
from .request import RequestStatus

FAULT_KINDS = ("kill", "degrade", "link")


@dataclass(frozen=True)
class FailureEvent(Spec):
    """One injected fault (see the module docstring for the kinds).

    Serialization is kind-aware: a legacy worker kill emits exactly the
    historical ``{time, module_id, workers, downtime}`` dict, so every
    pre-existing scenario keeps its serialized form — and therefore its
    cache fingerprint.  New kinds add ``kind`` (plus ``dst``/``factor``)
    on top.
    """

    _section, _prefix = "failure-event", "failure "

    time: float = field(Num(">= 0"))
    module_id: str = field(Str())
    workers: int = field(Int(">= 1"), 1)
    downtime: float = field(Num("> 0"), 10.0)
    kind: str = field(Str(), "kill", omit_default=True)
    # link faults: the edge module_id -> dst
    dst: str | None = field(Opt(Str()), None, omit_default=True)
    # degrade faults: service-time multiplier
    factor: float = field(Num(), 2.0)

    def _check(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.kind == "link":
            if self.dst is None:
                raise ValueError("a link fault needs a dst module")
        elif self.dst is not None:
            raise ValueError(f"dst only applies to link faults, not {self.kind!r}")
        if self.kind == "degrade" and self.factor <= 1.0:
            raise ValueError(
                f"failure degrade factor must be > 1.0, got {self.factor!r}"
            )

    def _write(self, out: dict) -> dict:
        # The factor belongs to degrade faults only.
        if self.kind != "degrade":
            del out["factor"]
        return out


@dataclass(frozen=True)
class FaultRecord:
    """One structured entry of the injector's fault timeline."""

    time: float
    kind: str  # "fail" | "recover" | "degrade" | "restore" | "cut" | "heal"
    target: str  # module id, or "src->dst" for link faults
    count: int  # workers affected / handoffs replayed
    factor: float | None = None  # degrade only


@dataclass
class FailureInjector:
    """Applies a schedule of :class:`FailureEvent` to a cluster."""

    cluster: Cluster
    events: list[FailureEvent] = dataclasses.field(default_factory=list)
    records: list[FaultRecord] = dataclasses.field(default_factory=list)

    def schedule_all(self) -> None:
        """Arm every fault event on the cluster's simulator."""
        for event in self.events:
            self.cluster.sim.schedule(event.time, self._fire, event)

    def _fire(self, event: FailureEvent) -> None:
        if event.kind == "kill":
            self._fail(event)
        elif event.kind == "degrade":
            self._degrade(event)
        else:
            self._cut(event)

    def _record(
        self, kind: str, target: str, count: int, factor: float | None = None
    ) -> None:
        self.records.append(
            FaultRecord(
                time=self.cluster.sim.now, kind=kind, target=target,
                count=count, factor=factor,
            )
        )

    # -- worker kills --------------------------------------------------------

    def _fail(self, event: FailureEvent) -> None:
        module = self.cluster.modules[event.module_id]
        killed = 0
        for _ in range(event.workers):
            if module.n_workers == 0:
                break
            # Taking the last worker down is allowed: the module is dead
            # until recovery, which is exactly what a machine failure
            # does.  Requests arriving meanwhile park at the module.
            worker = module.workers.pop()
            killed += 1
            self._strand(worker)
        self._record("fail", event.module_id, killed)
        self.cluster.sim.schedule_after(
            event.downtime, self._recover, event.module_id, killed
        )

    def _strand(self, worker) -> None:
        """Re-dispatch a failed worker's queued and forming requests."""
        if isinstance(worker, LLMWorker):
            worker.settle()  # tokens decoded before the kill stay counted
        module = worker.module
        stranded = worker.queue.drain(self.cluster.sim.now)
        if module._resilience is not None:
            # Resilient hops dispatch duplicates (retries/hedges) whose
            # losers linger in queues already claimed elsewhere
            # (t_batched set).  Re-dispatching one would re-execute a hop
            # that already completed, so only unclaimed entries strand.
            mid = module.spec.id
            stranded = [
                r for r in stranded
                if (v := r.visits.get(mid)) is None or v.t_batched is None
            ]
        stranded.extend(worker.forming)
        worker.forming = []
        # In-flight batch work is lost with the machine; those requests
        # are re-dispatched too (their GPU time so far still counts).
        if worker.executing is not None:
            worker.executing.aborted = True  # its completion event is void
            stranded.extend(worker.executing.requests)
            worker.executing = None
        for request in stranded:
            if request.status is not RequestStatus.IN_FLIGHT:
                continue
            visit = request.visits.get(module.spec.id)
            if visit is not None:
                # Reset execution bookkeeping for the retry.
                visit.t_batched = None
                visit.t_exec_start = None
                visit.t_exec_end = None
            module.dispatch(request)  # parks on a total outage

    def _recover(self, module_id: str, workers: int) -> None:
        module = self.cluster.modules[module_id]
        for _ in range(workers):
            module.add_worker()
        self._record("recover", module_id, workers)

    # -- degraded workers (stragglers) ---------------------------------------

    def _degrade(self, event: FailureEvent) -> None:
        module = self.cluster.modules[event.module_id]
        victims = module.workers[: event.workers]
        for worker in victims:
            worker.degrade_factor = event.factor
        self._record(
            "degrade", event.module_id, len(victims), factor=event.factor
        )
        self.cluster.sim.schedule_after(
            event.downtime, self._restore, event.module_id, victims,
            event.factor,
        )

    def _restore(self, module_id: str, victims: list, factor: float) -> None:
        restored = 0
        for worker in victims:
            # A victim may have been killed meanwhile, or re-degraded by
            # an overlapping event (then the later restore owns it).
            if worker.degrade_factor == factor:
                worker.degrade_factor = 1.0
                restored += 1
        self._record("restore", module_id, restored)

    # -- link partitions -----------------------------------------------------

    def _cut(self, event: FailureEvent) -> None:
        flow = self.cluster
        key = (event.module_id, event.dst)
        if flow._severed is None:
            flow._severed = {}
        flow._severed.setdefault(key, [])
        self._cut_depth[key] = self._cut_depth.get(key, 0) + 1
        self._record("cut", f"{event.module_id}->{event.dst}", 0)
        self.cluster.sim.schedule_after(event.downtime, self._heal, key)

    def _heal(self, key: tuple[str, str]) -> None:
        flow = self.cluster
        depth = self._cut_depth.get(key, 0) - 1
        if depth > 0:
            # An overlapping cut of the same edge is still active; the
            # last heal replays everything.
            self._cut_depth[key] = depth
            self._record("heal", f"{key[0]}->{key[1]}", 0)
            return
        self._cut_depth.pop(key, None)
        parked = flow._severed.pop(key, []) if flow._severed else []
        if not flow._severed:
            flow._severed = None  # restore the zero-overhead fast path
        replayed = 0
        for request in parked:
            if request.status is not RequestStatus.IN_FLIGHT:
                # The request terminated while partitioned (e.g. a
                # sibling branch dropped it); its token state is already
                # reclaimed, so the parked token simply evaporates.
                continue
            replayed += 1
            flow._deliver(request, key[1])
        self._record("heal", f"{key[0]}->{key[1]}", replayed)

    def __post_init__(self) -> None:
        # Nesting depth per severed edge, for overlapping link faults.
        self._cut_depth: dict[tuple[str, str], int] = {}
