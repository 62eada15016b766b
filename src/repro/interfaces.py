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

A drop decided at ``t_b`` often has a hopeless run behind it: once a
backlog's next request is past saving, so is every request the queue
would hand out after it.  So once ``should_drop`` drops a request, the
worker asks :meth:`DropPolicy.drop_test` for a test valid for the rest of
that draw, and :meth:`RequestQueue.pop_run` pops the run of queued
requests the test drops, in one pass.  A policy whose verdict reads
anything a drop changes returns no test, and its worker keeps deciding
one request at a time.

A queue only stores requests: ``pop`` hands back every request it was
given and never drops one itself, since drop decisions belong to the
policy; ``pop_run`` pops the run the policy's test accepts and decides
nothing either.  The owning worker counts its outstanding load where a
request enters or leaves it, so requests must reach a worker's queue
through ``Worker.enqueue``, never by pushing into the queue directly.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulation.cluster import Cluster
    from .simulation.module import Module
    from .simulation.request import DropReason, Request
    from .simulation.worker import Worker

#: A drop test: True for a request the current draw would drop.
DropTest = Callable[["Request"], bool]


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

    def pop_run(self, now: float, drops: DropTest) -> list[Request]:
        """Remove and return the run of requests ``drops`` accepts.

        The run is the longest one of in-flight requests, in pop order,
        that starts with the request the next :meth:`pop` would return and
        that ``drops`` accepts; a request that is not in flight ends it.
        The default pops nothing.
        """
        return []

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

    def pop_run(self, now: float, drops: DropTest) -> list[Request]:
        dq = self._dq
        n = 0
        for request in dq:
            if request.status is not _IN_FLIGHT or not drops(request):
                break
            n += 1
        popleft = dq.popleft
        return [popleft() for _ in range(n)]

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

    def drop_test(self, ctx: DropContext) -> DropTest | None:
        """A test that gives ``should_drop``'s verdict for the rest of a draw.

        Asked right after ``should_drop`` dropped ``ctx.request``.  The
        test takes another request the same worker would draw at the same
        ``t_b`` and returns True exactly when ``should_drop`` would drop it
        for the same reason, after every drop before it.  The default
        offers none, so each request is decided on its own.
        """
        return None

    def on_tick(self, now: float) -> None:
        """Periodic state-synchronisation hook (default: nothing)."""

    def describe(self) -> str:
        """One-line description for experiment reports."""
        return self.name


# Imported last: the simulation package imports this module's classes.
from .simulation.request import RequestStatus  # noqa: E402

_IN_FLIGHT = RequestStatus.IN_FLIGHT  # bound once (see .simulation.request)
