"""Deterministic discrete-event simulation engine.

The engine is the substrate that replaces the paper's 64-GPU testbed: every
component (workers, controllers, the scaling engine, state synchronisation)
runs as callbacks scheduled on a single simulated clock.  Events with equal
timestamps fire in scheduling order, which makes every run reproducible for
a given seed and configuration.

The heap holds plain ``(time, seq, handle)`` tuples: ``seq`` is unique, so
tuple comparison never reaches the handle and ordering costs two native
comparisons instead of a generated dataclass ``__lt__`` — the single
hottest comparison site in the simulator.  Cancellation is lazy (the handle
is flagged and skipped at pop time), but the heap compacts itself whenever
tombstones outnumber live events, so a workload that schedules and cancels
heavily (timeout guards, rescheduled ticks) cannot grow the heap — or the
``run(until=...)`` head-walk — without bound.

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


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`, usable to cancel."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        sim: "Simulator",
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        self._sim = sim
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.callback is not None:
            # Still queued: count the tombstone and let the simulator
            # decide whether the heap is worth compacting.
            self._sim._note_cancelled()


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
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at ``time`` in this lane's slot."""
        if not time >= self._sim._now:  # also refuses NaN
            raise ValueError(
                f"cannot schedule event at {time:.6f}s before "
                f"now={self._sim._now:.6f}s"
            )
        if time < self._last:
            raise ValueError(
                f"lane times must be nondecreasing: {time!r} after "
                f"{self._last!r} (is the arrival source sorted?)"
            )
        self._last = time
        if self._k >= self._SPAN:  # pragma: no cover - 2**44 arrivals
            raise OverflowError("arrival lane exhausted")
        seq = self._base + self._k
        self._k += 1
        handle = EventHandle(self._sim, time, seq, callback, args)
        heapq.heappush(self._sim._heap, (time, seq, handle))
        return handle


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
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        self._cancelled = 0  # tombstones still sitting in the heap

    def open_lane(self) -> ArrivalLane:
        """Open a streaming arrival lane (see :class:`ArrivalLane`)."""
        return ArrivalLane(self)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

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
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        Scheduling in the past, or at NaN, raises ``ValueError`` — the
        engine never rewinds the clock.
        """
        if not time >= self._now:  # also refuses NaN
            raise ValueError(
                f"cannot schedule event at {time:.6f}s before now={self._now:.6f}s"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(self, time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def schedule_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self.schedule(self._now + delay, callback, *args)

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (O(live); heap order kept
        by the (time, seq) keys, so firing order is unchanged)."""
        live = []
        for entry in self._heap:
            handle = entry[2]
            if handle.cancelled:
                handle.callback = None  # release the closure early
                handle.args = ()
            else:
                live.append(entry)
        heapq.heapify(live)
        self._heap = live
        self._cancelled = 0

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when drained."""
        heap = self._heap
        while heap:
            _, _, handle = heapq.heappop(heap)
            if handle.cancelled:
                self._cancelled -= 1
                handle.callback = None
                handle.args = ()
                continue
            callback, args = handle.callback, handle.args
            handle.callback = None  # fired: a later cancel() is a no-op
            handle.args = ()
            self._now = handle.time
            self._processed += 1
            callback(*args)
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
            if max_events is not None and executed >= max_events:
                return
            nxt = heap[0]
            handle = nxt[2]
            if handle.cancelled:
                heappop(heap)
                self._cancelled -= 1
                handle.callback = None
                handle.args = ()
                continue
            if until is not None and nxt[0] > until:
                self._now = until
                return
            heappop(heap)
            callback, args = handle.callback, handle.args
            handle.callback = None  # fired: a later cancel() is a no-op
            handle.args = ()
            self._now = nxt[0]
            self._processed += 1
            callback(*args)
            executed += 1
            heap = self._heap  # a compaction may have swapped the list
        if until is not None and until > self._now:
            self._now = until
