"""Sliding-window runtime statistics.

Each module's controller monitors queueing delay, arrival rate and batch
sizes over a sliding window (the paper's default: a 5-second linearly
weighted window) and exposes them to the State Planner and to the adaptive
priority mechanism.

Aggregates are O(1) amortized: :class:`WindowedSamples` keeps running
sums (value, timestamp and timestamp*value) of the retained samples, so
the linear-decay weighted average is evaluated algebraically —

    weight(t) = 1 - (now - t) / w = (1 - now / w) + t / w

    sum weight_i * v_i = (1 - now / w) * sum(v) + sum(t * v) / w
    sum weight_i       = (1 - now / w) * n      + sum(t)     / w

— instead of re-looping over every sample on each ``effective_batch`` or
policy query, which made decision cost grow linearly with the arrival
rate.  Running float sums drift as samples are added and subtracted, so
the sums are rebuilt exactly from the retained samples every O(len)
mutations (amortized O(1)).

A window stores its samples as two ``array('d')`` columns, times and
values, whose live part starts at a head index: 16 bytes a sample and no
object for the cyclic garbage collector to track.  The simulator records
on every draw and every batch but reads a window only on sync ticks and
cache refreshes, dozens of records apart, so ``record`` only appends to
both columns.  A read that evicts or needs the sums first folds the
samples recorded since the last fold into them, in record order, and
only then subtracts the expired ones.  Only reads evict, so every sum
goes through the same float additions and subtractions, in the same
order, as sums updated on every record would; the rebuild count and
point, and the reset to zero when a window empties, are the same too, so
every average is bit-identical to that eager scheme's.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque

import numpy as np

_NAN = float("nan")  # never equal to a query time: an empty rate cache


class WindowedSamples:
    """Timestamped samples with linear-decay weighted averaging.

    A sample of age ``a`` within window ``w`` gets weight ``1 - a / w``;
    samples older than the window are evicted.  Times passed to
    :meth:`record` never decrease (every caller passes the simulator's
    clock), so the expired samples are a prefix of the time column and
    eviction bisects it.

    ``[head:]`` of both columns is the window and ``[:folded]`` is in the
    running sums.  ``_mutations`` counts each sample once when it is
    folded in and once when it is evicted, as if every record and every
    eviction had updated the sums itself.  The evicted prefix is cut off
    both columns once it is longer than ``_COMPACT`` samples and longer
    than the live part, and an eviction that empties the window clears
    both.
    """

    __slots__ = (
        "window", "_inv_window", "_t", "_v", "_head", "_folded",
        "_sum_v", "_sum_t", "_sum_tv", "_mutations",
    )

    #: Evicted-prefix length below which eviction never compacts.
    _COMPACT = 64

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be > 0")
        self.window = window
        self._inv_window = 1.0 / window
        self._t = array("d")  # sample times, nondecreasing
        self._v = array("d")  # sample values, parallel to _t
        self._head = 0  # [:head] of both columns is the evicted prefix
        self._folded = 0  # [:folded] is in the running sums
        self._sum_v = 0.0  # sum of values
        self._sum_t = 0.0  # sum of timestamps
        self._sum_tv = 0.0  # sum of timestamp * value
        self._mutations = 0  # folds/evicts since the last exact rebuild

    def record(self, t: float, value: float) -> None:
        self._t.append(t)
        self._v.append(value)

    def _fold(self) -> None:
        """Add the samples recorded since the last fold to the sums."""
        start = self._folded
        ts = self._t
        sum_v, sum_t, sum_tv = self._sum_v, self._sum_t, self._sum_tv
        for t, v in zip(ts[start:], self._v[start:]):
            sum_v += v
            sum_t += t
            sum_tv += t * v
        self._sum_v, self._sum_t, self._sum_tv = sum_v, sum_t, sum_tv
        self._folded = len(ts)
        self._mutations += len(ts) - start

    def _live(self, now: float) -> int:
        """Evict at ``now``, fold, and return the number of live samples."""
        self.evict(now)
        n = len(self._t)
        if self._folded < n:
            self._fold()
        return n - self._head

    def evict(self, now: float) -> None:
        """Drop the samples older than the window at ``now``."""
        cutoff = now - self.window
        ts = self._t
        head = self._head
        if head == len(ts) or ts[head] >= cutoff:
            return
        vs = self._v
        if ts[-1] < cutoff:  # the window empties: the sums restart at zero
            del ts[:]
            del vs[:]
            self._head = self._folded = 0
            self._sum_v = self._sum_t = self._sum_tv = 0.0
            self._mutations = 0
            return
        if self._folded < len(ts):
            self._fold()
        n = len(ts)
        end = bisect_left(ts, cutoff, head + 1, n - 1)
        sum_v, sum_t, sum_tv = self._sum_v, self._sum_t, self._sum_tv
        for t, v in zip(ts[head:end], vs[head:end]):
            sum_v -= v
            sum_t -= t
            sum_tv -= t * v
        self._sum_v, self._sum_t, self._sum_tv = sum_v, sum_t, sum_tv
        self._mutations += end - head
        if end > self._COMPACT and 2 * end > n:
            del ts[:end]
            del vs[:end]
            self._folded = n - end
            end = 0
        self._head = end
        if self._mutations > ((len(ts) - end) << 2) + 64:
            self._rebuild()

    def _rebuild(self) -> None:
        """Recompute the running sums exactly from the retained samples.

        Bounds the numerical drift of incremental add/subtract: triggered
        every O(len) mutations, so the O(len) pass amortizes to O(1).
        """
        self._sum_v = self._sum_t = self._sum_tv = 0.0
        self._folded = self._head
        self._fold()
        self._mutations = 0

    def weighted_average(self, now: float, default: float = 0.0) -> float:
        """Linearly weighted average of samples within the window (O(1))."""
        n = self._live(now)
        if n == 0:
            return default
        base = 1.0 - now * self._inv_window
        num = base * self._sum_v + self._sum_tv * self._inv_window
        den = base * n + self._sum_t * self._inv_window
        # ``den`` is a sum of weights in [0, 1]; it only fails to be
        # positive when every retained sample sits exactly on the window
        # edge (weight 0) — same guard as the explicit loop had.
        if den <= 1e-12:
            return default
        return num / den

    def mean(self, now: float, default: float = 0.0) -> float:
        """Unweighted mean of samples within the window (O(1))."""
        n = self._live(now)
        if n == 0:
            return default
        return self._sum_v / n

    def values(self, now: float) -> list[float]:
        """Samples currently inside the window (oldest first)."""
        self.evict(now)
        return self._v[self._head:].tolist()

    def values_array(self, now: float) -> np.ndarray:
        """:meth:`values` as one float64 array, a copy the caller owns."""
        self.evict(now)
        return np.frombuffer(self._v[self._head:], float)

    def __len__(self) -> int:
        return len(self._t) - self._head


class RateMeter:
    """Event-rate estimator over a sliding window of event timestamps."""

    __slots__ = ("window", "_events", "total", "_cached_now", "_cached_rate")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be > 0")
        self.window = window
        self._events: deque[float] = deque()
        self.total = 0
        # Policies query the rate repeatedly at one simulation instant
        # (every admission at time t); cache by ``now``, invalidated on
        # record, so repeat queries skip even the eviction walk.
        self._cached_now = _NAN
        self._cached_rate = 0.0

    def record(self, t: float) -> None:
        self._events.append(t)
        self.total += 1
        self._cached_now = _NAN

    def rate(self, now: float) -> float:
        """Events per second over the trailing window (O(1) amortized)."""
        if now == self._cached_now:
            return self._cached_rate
        cutoff = now - self.window
        dq = self._events
        while dq and dq[0] < cutoff:
            dq.popleft()
        span = min(self.window, now) if now > 0 else self.window
        rate = len(dq) / span if span > 0 else 0.0
        self._cached_now = now
        self._cached_rate = rate
        return rate


class ModuleStats:
    """Runtime state of one module, as monitored by its controller."""

    __slots__ = (
        "window", "queue_delays", "batch_waits", "batch_sizes",
        "arrivals", "drops", "executed",
    )

    def __init__(self, window: float = 5.0) -> None:
        self.window = window
        self.queue_delays = WindowedSamples(window)
        self.batch_waits = WindowedSamples(window)
        self.batch_sizes = WindowedSamples(window)
        self.arrivals = RateMeter(window)
        self.drops = 0
        self.executed = 0

    def record_batch(self, t: float, size: int) -> None:
        self.batch_sizes.record(t, float(size))
        self.executed += size

    def record_drop(self) -> None:
        self.drops += 1

    def avg_queue_delay(self, now: float) -> float:
        """Recent average queueing delay q_k (linearly weighted)."""
        return self.queue_delays.weighted_average(now, default=0.0)

    def input_rate(self, now: float) -> float:
        """T_in: measured input workload (requests/second)."""
        return self.arrivals.rate(now)

    def avg_batch_size(self, now: float, default: float) -> float:
        """Recently observed average executed batch size."""
        return self.batch_sizes.weighted_average(now, default=default)

    def recent_batch_waits(self, now: float) -> list[float]:
        """Observed batch-wait samples inside the window (for the PDF)."""
        return self.batch_waits.values(now)
