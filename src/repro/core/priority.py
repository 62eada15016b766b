"""Adaptive request priority (§4.3).

Requests in each worker's DEPQ are keyed by their remaining latency budget
(equivalently, absolute deadline).  Depending on the module load factor
``mu = T_in / T_m`` the broker pops from one end or the other:

* ``mu > 1 + eps`` — High Budget First (HBF): the module is
  under-provisioned; serving large-budget requests first keeps queueing
  from eating everyone's budget.
* ``mu < 1 - eps`` — Low Budget First (LBF): steady workload; serving
  tight-budget requests first (earliest-deadline-first) avoids drops
  caused by batch-wait uncertainty.
* in between — keep the previous mode (delayed transition), with
  ``eps = sum |T_in - T_s| / sum T_in`` computed from the smoothed
  workload, so bursty traces get a wider hysteresis band.

A module's mode changes only when :meth:`AdaptivePriorityController.update`
runs at a sync tick.  The queue keeps its requests in one run sorted by
deadline (a column of deadlines beside a list of requests), so either end
is a constant-time pop and a mode flip moves no entry: the next pop simply
reads the other end.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..interfaces import DropTest, RequestQueue
from ..simulation.request import Request, RequestStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulation.module import Module

_IN_FLIGHT = RequestStatus.IN_FLIGHT  # bound once (see repro.simulation.request)


class PriorityMode:
    """Queue-ordering strategies (fixed modes double as ablations)."""

    ADAPTIVE = "adaptive"  # PARD: HBF/LBF with delayed transition
    INSTANT = "instant"  # PARD-instant: HBF/LBF, no hysteresis
    HBF = "hbf"  # PARD-HBF: always High Budget First
    LBF = "lbf"  # PARD-LBF: always Low Budget First (SHEPHERD-like)
    FCFS = "fcfs"  # PARD-FCFS: arrival order (Nexus/Clipper++-like)

    ALL = (ADAPTIVE, INSTANT, HBF, LBF, FCFS)


@dataclass
class TransitionEvent:
    """Recorded HBF/LBF switch (drives Figure 13)."""

    time: float
    module_id: str
    mode: str
    load_factor: float
    epsilon: float


class LoadSmoother:
    """Tracks T_in samples and the smoothed workload T_s for epsilon.

    ``eps = sum |T_in - T_s| / sum T_in`` over the retained sample window —
    small for stable traces, large for bursty ones, which widens the
    hysteresis band exactly when workload fluctuations would otherwise
    cause priority flapping.
    """

    def __init__(self, history: int = 10, smooth: int = 5) -> None:
        if history < 1 or smooth < 1:
            raise ValueError("history and smooth must be >= 1")
        self._rates: deque[float] = deque(maxlen=history)
        self._smooth_n = smooth

    def record(self, rate: float) -> None:
        self._rates.append(rate)

    def smoothed(self) -> float:
        """T_s: sliding-window average of recent input rates."""
        if not self._rates:
            return 0.0
        recent = list(self._rates)[-self._smooth_n :]
        return sum(recent) / len(recent)

    def epsilon(self) -> float:
        """Hysteresis half-width from workload variability."""
        if not self._rates:
            return 0.0
        rates = list(self._rates)
        total = sum(rates)
        if total <= 0:
            return 0.0
        # |T_in - T_s| accumulated against the running smoothed rate.
        dev = 0.0
        window: deque[float] = deque(maxlen=self._smooth_n)
        for r in rates:
            window.append(r)
            t_s = sum(window) / len(window)
            dev += abs(r - t_s)
        return dev / total


class AdaptivePriorityController:
    """Per-module HBF/LBF mode selection with delayed transition."""

    def __init__(self, mode: str = PriorityMode.ADAPTIVE) -> None:
        if mode not in PriorityMode.ALL:
            raise ValueError(f"unknown priority mode {mode!r}")
        self.mode = mode
        self._current: dict[str, str] = {}
        self._smoothers: dict[str, LoadSmoother] = {}
        self.transitions: list[TransitionEvent] = []
        self.load_history: list[tuple[float, str, float]] = []

    def current(self, module_id: str) -> str:
        """Active ordering for ``module_id``: 'hbf', 'lbf' or 'fcfs'."""
        if self.mode == PriorityMode.FCFS:
            return PriorityMode.FCFS
        if self.mode in (PriorityMode.HBF, PriorityMode.LBF):
            return self.mode
        return self._current.get(module_id, PriorityMode.LBF)

    @staticmethod
    def effective_load(module: "Module", now: float) -> float:
        """Workload intensity mu, including backlog pressure.

        ``T_in / T_m`` alone goes quiet the moment a burst ends even though
        the accumulated queue still exceeds what the module can drain within
        an SLO; the backlog term keeps HBF active until the queue is
        serviceable again (the paper's "workload intensity" is measured the
        same way on the worker side).
        """
        t_m = module.throughput()
        if t_m <= 0:
            return float("inf")
        backlog = module.queue_length() / (t_m * module.cluster.slo)
        return module.stats.input_rate(now) / t_m + backlog

    def update(self, module: "Module", now: float) -> str:
        """Re-evaluate the mode for one module at a sync tick."""
        if self.mode in (PriorityMode.FCFS, PriorityMode.HBF, PriorityMode.LBF):
            return self.current(module.spec.id)
        mid = module.spec.id
        smoother = self._smoothers.setdefault(mid, LoadSmoother())
        rate = module.stats.input_rate(now)
        smoother.record(rate)
        mu = self.effective_load(module, now)
        eps = 0.0 if self.mode == PriorityMode.INSTANT else smoother.epsilon()
        self.load_history.append((now, mid, mu))
        prev = self._current.get(mid, PriorityMode.LBF)
        if mu > 1.0 + eps:
            new = PriorityMode.HBF
        elif mu < 1.0 - eps:
            new = PriorityMode.LBF
        else:
            new = prev  # delayed transition: hold inside the dead band
        if new != prev or mid not in self._current:
            self._current[mid] = new
            self.transitions.append(
                TransitionEvent(now, mid, new, mu, eps)
            )
        return new


class DeadlineDepqQueue(RequestQueue):
    """Worker queue: double-ended priority queue keyed by absolute deadline.

    Remaining budget at a common 'now' orders identically to the absolute
    deadline ``t_s + SLO``, so the key never needs re-weighting as time
    passes.  LBF pops the earliest deadline, FIFO among ties, and HBF the
    latest, LIFO among ties.

    The run is two parallel columns in (deadline, push order) order:
    ``_keys``, an ``array('d')`` of deadlines, and ``_run``, the requests.
    The live entries are ``[head:]`` of both.  Requests mostly arrive in
    deadline order (``t_s`` grows and most pipelines share one SLO), so a
    push usually appends to both; one that arrives out of order is
    inserted into both after every equal deadline (``bisect_right`` from
    the head), an O(log n) search plus a move of the entries behind it.
    That is the slot a push-order tie-break gives, so no sequence number
    is stored: a queued entry costs one slot in each column.  LBF pops
    the head by advancing ``head`` and HBF pops both tails, both O(1),
    and a mode flip changes nothing stored.  The popped prefix is cut off
    both columns once it is longer than ``_COMPACT`` entries and longer
    than the live run, so it costs O(1) amortized per pop, and a pop that
    finds the queue empty clears both.  The FCFS ablation uses a plain
    FIFO queue instead (the policy's ``make_queue`` handles that), so
    modes never mix here.

    :meth:`pop_run` reads the mode once and scans from the end ``pop``
    would read: from the tail under HBF, from the head under LBF.  It
    stops at the first request that is not in flight or that the drop
    test keeps, and cuts the run off both columns in one slice; under LBF
    that advances ``head``, and the ``_COMPACT`` rule applies as after a
    pop.
    """

    __slots__ = ("_module_id", "_controller", "_keys", "_run", "_head")

    #: Popped-prefix length below which LBF pops never compact the run.
    _COMPACT = 64

    def __init__(self, module: "Module", controller: AdaptivePriorityController) -> None:
        self._module_id = module.spec.id
        self._controller = controller
        self._keys = array("d")  # deadlines, parallel to _run
        self._run: list[Request] = []
        self._head = 0  # [:head] of both columns is the popped prefix

    def push(self, request: Request, now: float) -> None:
        deadline = request.sent_at + request.slo
        keys = self._keys
        if keys and deadline < keys[-1]:
            i = bisect_right(keys, deadline, self._head)
            keys.insert(i, deadline)
            self._run.insert(i, request)
        else:
            keys.append(deadline)
            self._run.append(request)

    def pop(self, now: float) -> Request | None:
        run = self._run
        head = self._head
        if head == len(run):
            if head:  # drained: drop the popped prefix with it
                del self._keys[:]
                run.clear()
                self._head = 0
            return None
        if self._controller.current(self._module_id) == PriorityMode.HBF:
            del self._keys[-1]
            return run.pop()
        request = run[head]
        head += 1
        if head > self._COMPACT and 2 * head > len(run):
            del self._keys[:head]
            del run[:head]
            head = 0
        self._head = head
        return request

    def pop_run(self, now: float, drops: DropTest) -> list[Request]:
        run = self._run
        head = self._head
        if self._controller.current(self._module_id) == PriorityMode.HBF:
            i = len(run)
            while i > head:
                request = run[i - 1]
                if request.status is not _IN_FLIGHT or not drops(request):
                    break
                i -= 1
            out = run[i:]
            out.reverse()  # pop order: latest deadline first
            del self._keys[i:]
            del run[i:]
            return out
        i, n = head, len(run)
        while i < n:
            request = run[i]
            if request.status is not _IN_FLIGHT or not drops(request):
                break
            i += 1
        out = run[head:i]
        if i > self._COMPACT and 2 * i > n:
            del self._keys[:i]
            del run[:i]
            i = 0
        self._head = i
        return out

    def __len__(self) -> int:
        return len(self._run) - self._head
