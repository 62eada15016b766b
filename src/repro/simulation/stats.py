"""Sliding-window runtime statistics.

Each module's controller monitors queueing delay, arrival rate and batch
sizes over a sliding window (the paper's default: a 5-second linearly
weighted window) and exposes them to the State Planner and to the adaptive
priority mechanism.

Aggregates are O(1) amortized: :class:`WindowedSamples` maintains running
sums (count, value, timestamp and timestamp*value) updated on record and
evict, so the linear-decay weighted average is evaluated algebraically —

    weight(t) = 1 - (now - t) / w = (1 - now / w) + t / w

    sum weight_i * v_i = (1 - now / w) * sum(v) + sum(t * v) / w
    sum weight_i       = (1 - now / w) * n      + sum(t)     / w

— instead of re-looping over every sample on each ``effective_batch`` /
``load_factor`` / policy query, which made decision cost grow linearly
with the arrival rate.  Running float sums drift as samples are added and
subtracted, so the sums are rebuilt exactly from the retained samples
every O(len) mutations (amortized O(1)).
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

import numpy as np

_value = itemgetter(1)
_NAN = float("nan")  # never equal to a query time: an empty rate cache


class WindowedSamples:
    """Timestamped samples with linear-decay weighted averaging.

    A sample of age ``a`` within window ``w`` gets weight ``1 - a / w``;
    samples older than the window are evicted.
    """

    __slots__ = (
        "window", "_inv_window", "_samples",
        "_sum_v", "_sum_t", "_sum_tv", "_mutations",
    )

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be > 0")
        self.window = window
        self._inv_window = 1.0 / window
        self._samples: deque[tuple[float, float]] = deque()
        self._sum_v = 0.0  # sum of values
        self._sum_t = 0.0  # sum of timestamps
        self._sum_tv = 0.0  # sum of timestamp * value
        self._mutations = 0  # adds/evicts since the last exact rebuild

    def record(self, t: float, value: float) -> None:
        self._samples.append((t, value))
        self._sum_v += value
        self._sum_t += t
        self._sum_tv += t * value
        self._mutations += 1

    def evict(self, now: float) -> None:
        """Drop the samples older than the window at ``now``."""
        cutoff = now - self.window
        dq = self._samples
        if not dq or dq[0][0] >= cutoff:
            return
        popleft = dq.popleft
        while dq and dq[0][0] < cutoff:
            t, v = popleft()
            self._sum_v -= v
            self._sum_t -= t
            self._sum_tv -= t * v
            self._mutations += 1
        if not dq:
            self._sum_v = self._sum_t = self._sum_tv = 0.0
            self._mutations = 0
        elif self._mutations > (len(dq) << 2) + 64:
            self._rebuild()

    def _rebuild(self) -> None:
        """Recompute the running sums exactly from the retained samples.

        Bounds the numerical drift of incremental add/subtract: triggered
        every O(len) mutations, so the O(len) pass amortizes to O(1).
        """
        sum_v = sum_t = sum_tv = 0.0
        for t, v in self._samples:
            sum_v += v
            sum_t += t
            sum_tv += t * v
        self._sum_v, self._sum_t, self._sum_tv = sum_v, sum_t, sum_tv
        self._mutations = 0

    def weighted_average(self, now: float, default: float = 0.0) -> float:
        """Linearly weighted average of samples within the window (O(1))."""
        self.evict(now)
        n = len(self._samples)
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
        self.evict(now)
        n = len(self._samples)
        if n == 0:
            return default
        return self._sum_v / n

    def values(self, now: float) -> list[float]:
        """Samples currently inside the window (oldest first)."""
        self.evict(now)
        return [v for _, v in self._samples]

    def values_array(self, now: float) -> np.ndarray:
        """:meth:`values` as one float64 array."""
        self.evict(now)
        samples = self._samples
        return np.fromiter(map(_value, samples), float, len(samples))

    def __len__(self) -> int:
        return len(self._samples)


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

    def record_arrival(self, t: float) -> None:
        self.arrivals.record(t)

    def record_queue_delay(self, t: float, delay: float) -> None:
        self.queue_delays.record(t, delay)

    def record_batch_wait(self, t: float, wait: float) -> None:
        self.batch_waits.record(t, wait)

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
