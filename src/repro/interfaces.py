"""Drop-policy and queue-discipline interfaces.

Every serving system reproduced here (PARD, Nexus, Clipper++, the naive
baseline and all Table-1 ablations) plugs into the same three seams of the
simulator:

* :meth:`DropPolicy.make_queue` — the per-worker queue discipline (FIFO for
  reactive systems; for PARD a deadline-keyed DEPQ, one run sorted by
  deadline, held as a deadline column beside a request list, whose ends
  the module's priority mode pops);
* :meth:`DropPolicy.should_drop` — consulted by a worker at time ``t_b``,
  right before a request joins a forming batch (Figure 5 of the paper);
* :meth:`DropPolicy.on_admit` — consulted when a request enters a module
  (used by overload-control style policies such as PARD-oc).

A queue only stores requests: ``pop`` hands back every request it was
given and never drops one itself, since drop decisions belong to
``should_drop``.  The owning worker counts its outstanding load where a
request enters or leaves it, so requests must reach a worker's queue
through ``Worker.enqueue``, never by pushing into the queue directly.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulation.cluster import Cluster
    from .simulation.module import Module
    from .simulation.request import DropReason, Request
    from .simulation.worker import Worker


@dataclass(slots=True)
class DropContext:
    """Everything a policy may inspect when deciding to drop at ``t_b``.

    Slotted and *reused*: each worker keeps one instance and rewrites its
    fields per drawn request (the batching hot path).  Policies must read
    it synchronously inside ``should_drop`` — never retain the object.
    """

    request: Request
    module: "Module"
    worker: "Worker"
    now: float  # t_b: the moment the request is drawn from the queue
    expected_start: float  # t_e: expected start of the batch being formed
    batch_duration: float  # d_k: profiled duration at the planned batch size
    slo: float

    @property
    def elapsed(self) -> float:
        """L_pre + Q_k + W_k so far: time since the client sent the request,
        measured at the expected batch start."""
        return self.expected_start - self.request.sent_at


class RequestQueue(abc.ABC):
    """Queue discipline for a worker's pending requests."""

    @abc.abstractmethod
    def push(self, request: Request, now: float) -> None:
        """Add a request to the queue."""

    @abc.abstractmethod
    def pop(self, now: float) -> Request | None:
        """Remove and return the next request to decide on, or None."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of queued requests."""

    def drain(self, now: float) -> list[Request]:
        """Remove and return all queued requests (used when draining workers)."""
        out = []
        while True:
            r = self.pop(now)
            if r is None:
                return out
            out.append(r)


class FifoQueue(RequestQueue):
    """Arrival-order queue used by all reactive baselines."""

    def __init__(self) -> None:
        self._dq: deque[Request] = deque()

    def push(self, request: Request, now: float) -> None:
        self._dq.append(request)

    def pop(self, now: float) -> Request | None:
        return self._dq.popleft() if self._dq else None

    def __len__(self) -> int:
        return len(self._dq)


class DropPolicy(abc.ABC):
    """Base class of all serving policies."""

    #: Human-readable policy name (used in metrics tables).
    name: str = "base"

    def __init__(self) -> None:
        self.cluster: "Cluster | None" = None

    def bind(self, cluster: "Cluster") -> None:
        """Attach to a cluster; called once before the simulation starts."""
        self.cluster = cluster

    def make_queue(self, module: "Module") -> RequestQueue:
        """Queue discipline for workers of ``module`` (default: FIFO)."""
        return FifoQueue()

    def on_admit(self, request: Request, module: "Module", now: float) -> DropReason | None:
        """Admission-control hook when a request enters a module.

        Return a :class:`DropReason` to reject the request, else None.
        """
        return None

    @abc.abstractmethod
    def should_drop(self, ctx: DropContext) -> DropReason | None:
        """Decide at ``t_b`` whether ``ctx.request`` should be dropped."""

    def on_tick(self, now: float) -> None:
        """Periodic state-synchronisation hook (default: nothing)."""

    def describe(self) -> str:
        """One-line description for experiment reports."""
        return self.name
