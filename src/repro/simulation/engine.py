"""Deterministic discrete-event simulation engine.

The engine is the substrate that replaces the paper's 64-GPU testbed: every
component (workers, controllers, the scaling engine, state synchronisation)
runs as callbacks scheduled on a single simulated clock.  Events with equal
timestamps fire in scheduling order, which makes every run reproducible for
a given seed and configuration.

An event is one mutable heap entry, the list ``[time, seq, callback,
args]``, and that list is also what :meth:`Simulator.schedule` returns.
``seq`` is unique, so comparing two entries never reaches the callback
and ordering costs two native comparisons.  Firing an event clears its
``callback`` slot, and :meth:`Simulator.cancel` clears it too, so the slot
reads ``None`` once an event can no longer fire: a cancel after the event
fired (or a second cancel) is a no-op.  Cancellation is lazy (the entry
stays in the heap and is skipped at pop time), but the heap compacts
itself whenever tombstones outnumber live events, so a workload that
schedules and cancels heavily (timeout guards, rescheduled ticks) cannot
grow the heap — or the ``run(until=...)`` head-walk — without bound.
The clock, ``now``, is a plain attribute that only the engine writes.

Arrival *lanes* (:meth:`Simulator.open_lane`) carry streamed request
arrivals: a lane reserves a contiguous block of sequence numbers when it
is opened, so events scheduled on it later — one pending arrival at a
time — occupy exactly the tie-breaking position that eagerly
pre-scheduling the whole trace at open time would have given them: after
everything scheduled before the lane opened, before everything scheduled
after, lanes in opening order, and within a lane in scheduling order.
That makes lazy streaming byte-identical to the old eager replay.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: Compaction floor: below this heap size the tombstone scan is too cheap
#: to be worth rebuilding over.
_COMPACT_MIN = 64

#: A scheduled event, ``[time, seq, callback, args]``; ``callback`` is
#: ``None`` once the event fired or was cancelled.
Event = list


class ArrivalLane:
    """Streaming lane returned by :meth:`Simulator.open_lane`.

    The lane reserves ``_SPAN`` sequence numbers up front, so an event
    scheduled on it *later* still sorts exactly where eager
    pre-scheduling at open time would have placed it relative to every
    other event — that equivalence is what keeps lazy arrival streaming
    byte-identical to materialized replay.  Lane times must be
    nondecreasing (the lane streams a sorted arrival source), which also
    means the one-pending-event discipline never rewinds the clock.
    """

    __slots__ = ("_sim", "_base", "_k", "_last")

    #: Sequence numbers reserved per lane; bounds arrivals per lane.
    _SPAN = 2**44

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._base = sim._seq
        sim._seq = self._base + self._SPAN
        self._k = 0
        self._last = -float("inf")

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at ``time`` in this lane's slot."""
        sim = self._sim
        if not time >= sim.now:  # also refuses NaN
            raise ValueError(
                f"cannot schedule event at {time:.6f}s before "
                f"now={sim.now:.6f}s"
            )
        if time < self._last:
            raise ValueError(
                f"lane times must be nondecreasing: {time!r} after "
                f"{self._last!r} (is the arrival source sorted?)"
            )
        self._last = time
        k = self._k
        if k >= self._SPAN:  # pragma: no cover - 2**44 arrivals
            raise OverflowError("arrival lane exhausted")
        self._k = k + 1
        entry = [time, self._base + k, callback, args]
        heapq.heappush(sim._heap, entry)
        return entry


class Simulator:
    """A minimal, deterministic event loop.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        #: Current simulation time in seconds (written by the engine only).
        self.now = 0.0
        self._processed = 0
        self._cancelled = 0  # tombstones still sitting in the heap

    def open_lane(self) -> ArrivalLane:
        """Open a streaming arrival lane (see :class:`ArrivalLane`)."""
        return ArrivalLane(self)

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (cancelled ones excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued (cancelled ones excluded)."""
        return len(self._heap) - self._cancelled

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        Returns the event's heap entry, which :meth:`cancel` takes.
        Scheduling in the past, or at NaN, raises ``ValueError`` — the
        engine never rewinds the clock.
        """
        if not time >= self.now:  # also refuses NaN
            raise ValueError(
                f"cannot schedule event at {time:.6f}s before now={self.now:.6f}s"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self.schedule(self.now + delay, callback, *args)

    def cancel(self, entry: Event) -> None:
        """Prevent a scheduled event from firing (no-op once it fired or
        was cancelled)."""
        if entry[2] is None:
            return
        entry[2] = None  # a tombstone: skipped when it reaches the top
        entry[3] = ()  # release the arguments early
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (O(live); heap order kept
        by the (time, seq) keys, so firing order is unchanged)."""
        live = [entry for entry in self._heap if entry[2] is not None]
        heapq.heapify(live)
        self._heap = live
        self._cancelled = 0

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when drained."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue
            entry[2] = None  # fired: a later cancel() is a no-op
            self.now = entry[0]
            self._processed += 1
            callback(*entry[3])
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` is passed, or
        ``max_events`` have been executed in this call.

        The dispatch is inlined rather than delegating to :meth:`step` —
        one Python frame per event is measurable at millions of events.
        """
        executed = 0
        heappop = heapq.heappop
        heap = self._heap
        while heap:
            entry = heap[0]
            callback = entry[2]
            if callback is None:
                heappop(heap)
                self._cancelled -= 1
                continue
            # After the tombstone skip, so the clock a capped run leaves
            # does not depend on cancelled events behind the last one fired.
            if max_events is not None and executed >= max_events:
                return
            if until is not None and entry[0] > until:
                self.now = until
                return
            heappop(heap)
            entry[2] = None  # fired: a later cancel() is a no-op
            self.now = entry[0]
            self._processed += 1
            callback(*entry[3])
            executed += 1
            heap = self._heap  # a compaction may have swapped the list
        if until is not None and until > self.now:
            self.now = until
