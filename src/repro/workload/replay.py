"""Replay a workload — eager trace or streaming source — into a cluster.

The pre-PR-8 replay materialized every arrival into the event heap before
the simulation started: O(n) heap memory and O(n log n) setup before the
first event fired.  :class:`ArrivalPump` replaces that with *one* pending
heap event per workload: when it fires, the request is submitted and the
next arrival is pulled from the iterator.  The pump schedules through an
engine arrival lane (:meth:`~repro.simulation.engine.Simulator.open_lane`),
whose reserved sequence-number block reproduces the eager tie-breaking
exactly — so lazy replay is byte-identical to the old materialized replay
on every committed golden.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ..simulation.cluster import Cluster
from ..simulation.engine import ArrivalLane
from .trace import Trace

if TYPE_CHECKING:
    from ..simulation.tenancy import SharedCluster


class ArrivalPump:
    """Drives one sorted arrival stream into a cluster, one event at a time.

    ``arrivals`` is anything iterable over ascending times (a
    :class:`Trace`, an :class:`~repro.workload.source.ArrivalSource`, a
    plain list); ``submit`` is called with the arrival time when its
    event fires.  The lane enforces monotonicity, so an unsorted stream
    fails loudly instead of silently reordering.
    """

    __slots__ = ("_it", "_submit", "_lane", "submitted")

    def __init__(
        self,
        arrivals: Iterable[float],
        submit: Callable[[float], object],
        lane: ArrivalLane,
    ) -> None:
        self._it = iter(arrivals)
        self._submit = submit
        self._lane = lane
        self.submitted = 0

    def prime(self) -> "ArrivalPump":
        """Schedule the first arrival (no-op on an empty stream)."""
        self._advance()
        return self

    def _advance(self) -> None:
        t = next(self._it, None)
        if t is not None:
            t = float(t)
            self._lane.schedule(t, self._fire, t)

    def _fire(self, t: float) -> None:
        self._submit(t)
        self.submitted += 1
        self._advance()


def drive(
    cluster: "Cluster | SharedCluster",
    feeds: Iterable[tuple[Iterable[float], Callable[[float], object]]],
    until: float,
) -> None:
    """Pump every ``(arrivals, submit)`` feed into a cluster and run it dry.

    One arrival lane per feed, opened in feed order.  The simulation runs
    with control-plane ticks until ``until``; the ticks are then cancelled
    and the event queue drained so every in-flight request reaches a
    terminal state and is accounted in the metrics (backlogged queues
    under the Naive policy can far outlive the trace).
    """
    sim = cluster.sim
    for arrivals, submit in feeds:
        ArrivalPump(arrivals, submit, sim.open_lane()).prime()
    cluster.start_ticks()
    sim.run(until=until)
    cluster.stop_ticks()
    sim.run()


def replay(trace: "Trace | Iterable[float]", cluster: Cluster,
           drain: float = 5.0) -> None:
    """Stream every arrival into the cluster and run to completion.

    Works identically for an eager :class:`Trace` and a lazy
    :class:`~repro.workload.source.ArrivalSource` — both iterate sorted
    times and carry a ``duration``.  Runs until ``duration + drain``,
    then drains (see :func:`drive`).
    """
    if drain < 0:
        raise ValueError("drain must be >= 0")
    drive(cluster, [(trace, cluster.submit_now)], trace.duration + drain)
