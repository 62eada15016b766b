"""Tests for sliding-window runtime statistics.

``WindowedSamples`` stores a window as two float columns and folds the
samples recorded since the last read into its running sums on the next
read.  The model tests hold it bit for bit to ``DequeWindow``, the
eager design it replaced (a deque of ``(t, v)`` tuples whose sums move on
every record), over random operation sequences: every returned float by
its bits and every array by its bytes.  The allocation guards hold a
sample to no object the cyclic collector tracks and to a slot in each
column.
"""

from __future__ import annotations

import gc
import random
import struct
import tracemalloc
from array import array
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation.stats import ModuleStats, RateMeter, WindowedSamples


class TestWindowedSamples:
    def test_mean_of_recent_samples(self):
        ws = WindowedSamples(window=5.0)
        ws.record(0.0, 1.0)
        ws.record(1.0, 3.0)
        assert ws.mean(now=1.0) == pytest.approx(2.0)

    def test_old_samples_evicted(self):
        ws = WindowedSamples(window=5.0)
        ws.record(0.0, 100.0)
        ws.record(6.0, 2.0)
        assert ws.mean(now=6.0) == pytest.approx(2.0)
        assert len(ws) == 1

    def test_weighted_average_prefers_recent(self):
        ws = WindowedSamples(window=10.0)
        ws.record(0.0, 0.0)  # old, low weight
        ws.record(9.0, 10.0)  # fresh, high weight
        avg = ws.weighted_average(now=10.0)
        assert avg > 5.0  # closer to the fresh sample

    def test_weighted_average_equals_value_for_single_sample(self):
        ws = WindowedSamples(window=5.0)
        ws.record(1.0, 7.0)
        assert ws.weighted_average(now=1.0) == pytest.approx(7.0)

    def test_default_when_empty(self):
        ws = WindowedSamples(window=5.0)
        assert ws.weighted_average(now=1.0, default=42.0) == 42.0
        assert ws.mean(now=1.0, default=-1.0) == -1.0

    def test_values_returns_window_contents(self):
        ws = WindowedSamples(window=2.0)
        ws.record(0.0, 1.0)
        ws.record(1.5, 2.0)
        ws.record(2.5, 3.0)
        assert ws.values(now=3.0) == [2.0, 3.0]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WindowedSamples(window=0.0)


class TestRateMeter:
    def test_rate_over_full_window(self):
        rm = RateMeter(window=5.0)
        for t in (5.0, 6.0, 7.0, 8.0, 9.0):
            rm.record(t)
        assert rm.rate(now=10.0) == pytest.approx(1.0)

    def test_rate_early_in_run_uses_elapsed_span(self):
        rm = RateMeter(window=10.0)
        rm.record(0.5)
        rm.record(1.0)
        # Only 2 seconds elapsed: rate should reflect 2 events / 2 s.
        assert rm.rate(now=2.0) == pytest.approx(1.0)

    def test_zero_rate_when_no_events(self):
        rm = RateMeter(window=5.0)
        assert rm.rate(now=10.0) == 0.0

    def test_events_age_out(self):
        rm = RateMeter(window=2.0)
        rm.record(0.0)
        rm.record(0.5)
        assert rm.rate(now=5.0) == 0.0

    def test_total_counts_everything(self):
        rm = RateMeter(window=1.0)
        for t in range(10):
            rm.record(float(t))
        assert rm.total == 10


def _reference_weighted_average(
    samples: list[tuple[float, float]], window: float, now: float, default: float
) -> float:
    """The pre-optimization explicit loop, as the oracle."""
    num = den = 0.0
    for t, v in samples:
        if t < now - window:
            continue
        wgt = 1.0 - (now - t) / window
        if wgt <= 0.0:
            continue
        num += wgt * v
        den += wgt
    return num / den if den > 0 else default


class TestIncrementalSums:
    """The O(1) running-sum aggregates must match the explicit loop."""

    def test_weighted_average_matches_reference_under_churn(self):
        import random

        rng = random.Random(7)
        window = 5.0
        ws = WindowedSamples(window=window)
        log: list[tuple[float, float]] = []
        t = 0.0
        for i in range(5000):
            t += rng.random() * 0.05
            v = rng.uniform(-3.0, 10.0)
            ws.record(t, v)
            log.append((t, v))
            if i % 7 == 0:
                got = ws.weighted_average(t, default=-1.0)
                want = _reference_weighted_average(log, window, t, -1.0)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
        # Long quiet gap: everything evicts, sums reset exactly.
        t += 2 * window
        assert ws.weighted_average(t, default=42.0) == 42.0
        assert len(ws) == 0

    def test_mean_matches_reference_after_eviction(self):
        ws = WindowedSamples(window=2.0)
        for i in range(100):
            ws.record(i * 0.1, float(i))
        now = 9.9
        live = [(t, v) for t, v in ((i * 0.1, float(i)) for i in range(100))
                if t >= now - 2.0]
        assert ws.mean(now) == pytest.approx(
            sum(v for _, v in live) / len(live), rel=1e-12
        )

    def test_rebuild_bounds_drift(self):
        # Tiny values after huge ones: without periodic exact rebuilds the
        # incremental sums would be dominated by cancellation error.
        ws = WindowedSamples(window=1.0)
        t = 0.0
        for _ in range(200):
            t += 0.01
            ws.record(t, 1e12)
        for _ in range(3000):
            t += 0.01
            ws.record(t, 1e-6)
        got = ws.weighted_average(t)
        assert got == pytest.approx(1e-6, rel=1e-6)

    def test_rate_meter_cache_invalidated_by_record(self):
        rm = RateMeter(window=10.0)
        rm.record(1.0)
        assert rm.rate(now=10.0) == pytest.approx(0.1)
        assert rm.rate(now=10.0) == pytest.approx(0.1)  # cached path
        rm.record(10.0)
        assert rm.rate(now=10.0) == pytest.approx(0.2)  # cache dropped


class TestModuleStats:
    def test_records_flow_through(self):
        ms = ModuleStats(window=5.0)
        ms.arrivals.record(0.1)
        ms.queue_delays.record(0.2, 0.05)
        ms.batch_waits.record(0.2, 0.02)
        ms.record_batch(0.3, 4)
        ms.record_drop()
        assert ms.input_rate(1.0) > 0
        assert ms.avg_queue_delay(0.5) == pytest.approx(0.05)
        assert ms.recent_batch_waits(0.5) == [0.02]
        assert ms.avg_batch_size(0.5, default=1) == pytest.approx(4.0)
        assert ms.drops == 1
        assert ms.executed == 4

    def test_avg_batch_size_default(self):
        ms = ModuleStats(window=5.0)
        assert ms.avg_batch_size(1.0, default=8) == 8


class DequeWindow:
    """The eager window as the oracle: a deque of ``(t, v)`` tuples whose
    running sums move on every record and every eviction, rebuilt every
    O(len) mutations and reset to zero when an eviction empties it."""

    def __init__(self, window: float) -> None:
        self.window = window
        self._inv_window = 1.0 / window
        self._samples: deque[tuple[float, float]] = deque()
        self._sum_v = self._sum_t = self._sum_tv = 0.0
        self._mutations = 0

    def record(self, t: float, value: float) -> None:
        self._samples.append((t, value))
        self._sum_v += value
        self._sum_t += t
        self._sum_tv += t * value
        self._mutations += 1

    def evict(self, now: float) -> None:
        cutoff = now - self.window
        dq = self._samples
        if not dq or dq[0][0] >= cutoff:
            return
        while dq and dq[0][0] < cutoff:
            t, v = dq.popleft()
            self._sum_v -= v
            self._sum_t -= t
            self._sum_tv -= t * v
            self._mutations += 1
        if not dq:
            self._sum_v = self._sum_t = self._sum_tv = 0.0
            self._mutations = 0
        elif self._mutations > (len(dq) << 2) + 64:
            sum_v = sum_t = sum_tv = 0.0
            for t, v in dq:
                sum_v += v
                sum_t += t
                sum_tv += t * v
            self._sum_v, self._sum_t, self._sum_tv = sum_v, sum_t, sum_tv
            self._mutations = 0

    def weighted_average(self, now: float, default: float = 0.0) -> float:
        self.evict(now)
        n = len(self._samples)
        if n == 0:
            return default
        base = 1.0 - now * self._inv_window
        num = base * self._sum_v + self._sum_tv * self._inv_window
        den = base * n + self._sum_t * self._inv_window
        if den <= 1e-12:
            return default
        return num / den

    def mean(self, now: float, default: float = 0.0) -> float:
        self.evict(now)
        n = len(self._samples)
        if n == 0:
            return default
        return self._sum_v / n

    def values(self, now: float) -> list[float]:
        self.evict(now)
        return [v for _, v in self._samples]

    def values_array(self, now: float) -> np.ndarray:
        self.evict(now)
        return np.fromiter((v for _, v in self._samples), float, len(self._samples))

    def __len__(self) -> int:
        return len(self._samples)


def _bits(x) -> bytes:
    """A returned value as the bytes of its float64(s)."""
    if isinstance(x, np.ndarray):
        assert x.dtype == np.float64
        return x.tobytes()
    if isinstance(x, list):
        return array("d", x).tobytes()
    return struct.pack("<d", x)


READS = ("evict", "weighted_average", "mean", "values", "values_array", "len")


def run_both(window: float, ops) -> tuple[WindowedSamples, DequeWindow]:
    """Apply ``ops`` to both windows on one nondecreasing clock and compare
    every result bit for bit, and the lengths after every operation."""
    got, want = WindowedSamples(window), DequeWindow(window)
    now = 0.0
    for i, (kind, dt, arg) in enumerate(ops):
        if kind == "record":  # a block of samples, ``dt`` apart
            for value in arg:
                now += dt
                got.record(now, value)
                want.record(now, value)
            continue
        now += dt
        if kind == "evict":
            a, b = got.evict(now), want.evict(now)
        elif kind == "len":
            a, b = float(len(got)), float(len(want))
        elif kind in ("weighted_average", "mean"):
            a = getattr(got, kind)(now, arg)
            b = getattr(want, kind)(now, arg)
        else:
            a, b = getattr(got, kind)(now), getattr(want, kind)(now)
        if a is None:
            assert b is None
        else:
            assert _bits(a) == _bits(b), (i, kind, now, a, b)
        assert len(got) == len(want), (i, kind, now)
    return got, want


VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e12, 1e-6, -1e12, -1e-6, 1.0]),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
#: Clock steps: repeats (equal times), steps on an eighth-second grid, so
#: a sample can sit exactly on the window's edge, arbitrary small steps,
#: and gaps longer than any window.
STEPS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.5, 10.0]),
    st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
)
#: Blocks of records between reads, a few values repeated up to 40 times,
#: so a short list still drives a window through the dozens of mutations
#: an exact rebuild waits for.
BLOCKS = st.builds(
    lambda values, repeat: values * repeat,
    st.lists(VALUES, min_size=1, max_size=8),
    st.integers(min_value=1, max_value=40),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("record"), STEPS, BLOCKS),
        st.tuples(st.sampled_from(READS), STEPS, st.sampled_from([0.0, -1.0, 42.0])),
    ),
    min_size=5,
    max_size=80,
)
MIXED = [1e12, 1e-6, 3, -0.0, 0.1]


class TestMatchesDequeWindow:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.3, 0.5, 1.0, 2.5]), OPS)
    # One read folds 1e12 and 1e-6 and evicts 1e12: adding both before
    # subtracting leaves 0.0, subtracting first would leave 1e-6.
    @example(0.5, [("record", 0.5, [1e12, 1e-6]), ("mean", 0.125, 0.0)])
    # A read folds, a gap empties the window, a new sample is read alone.
    @example(0.5, [("record", 0.125, MIXED), ("mean", 0.0, 0.0),
                   ("evict", 10.0, 0.0), ("record", 0.0, [2.0]),
                   ("mean", 0.0, 0.0)])
    # 100 folds and 79 evictions pass the rebuild point (4 * 21 + 64);
    # the evictions alone do not, so every fold must count.
    @example(2.5, [("record", 0.125, MIXED * 20), ("weighted_average", 0.0, -1.0)])
    # A sample exactly on the window's edge stays in, at weight 0.
    @example(1.0, [("record", 0.25, [1.0, 2.0, 3.0, 4.0, 5.0]),
                   ("values", 0.0, 0.0), ("mean", 0.0, 0.0)])
    def test_property_every_read_matches_bit_for_bit(self, window, ops):
        run_both(window, ops)

    def test_long_runs_rebuild_and_compact(self):
        """Thousands of operations per window, so the exact rebuild, the
        cut of the evicted prefix and the reset of an emptied window all
        run many times."""
        rng = random.Random(11)
        for _ in range(30):
            window = rng.choice([0.3, 0.5, 1.0, 2.5])
            ops = []
            for _ in range(3000):
                step = rng.choice([0.0, 0.0, 0.125, 0.25, rng.random() * 0.01,
                                   10.0 if rng.random() < 0.005 else 0.0])
                if rng.random() < 0.8:
                    value = rng.choice([0.0, -0.0, 1e12, 1e-6, 3, rng.uniform(-1e6, 1e6)])
                    ops.append(("record", step, [value]))
                else:
                    ops.append((rng.choice(READS), step, rng.choice([0.0, -1.0])))
            run_both(window, ops)

    def test_values_array_is_a_copy_the_caller_owns(self):
        ws = WindowedSamples(window=5.0)
        for i in range(10):
            ws.record(float(i), float(i))
        out = ws.values_array(9.0)
        out.partition(3)  # what linear_quantile does to it
        out[:] = -1.0
        assert ws.values(9.0) == [float(v) for v in range(4, 10)]
        ws.record(10.0, 10.0)  # the columns still grow: nothing is exported
        assert len(ws) == 7


def _record_n(ws: WindowedSamples, n: int) -> None:
    record = ws.record
    for i in range(n):
        record(i * 0.001, 0.5)


class TestAllocation:
    def test_record_allocates_no_tracked_object(self):
        """The tuple each sample used to be was a container the cyclic
        collector counted: 10,000 records raised the gen-0 count by 9,837
        on CPython 3.11.  Two float columns allocate no such object."""
        ws = WindowedSamples(window=5.0)
        _record_n(ws, 10)  # warm the call path
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = gc.get_count()[0]
            _record_n(ws, 10_000)
            grown = gc.get_count()[0] - before
        finally:
            if enabled:
                gc.enable()
        assert len(ws) == 10_010
        assert grown < 100, grown

    def test_retained_sample_costs_a_slot_per_column(self):
        """A tuple plus its boxed value held 88 bytes a sample; two
        ``array('d')`` slots hold 16, plus the columns' spare capacity."""
        n = 20_000
        ws = WindowedSamples(window=1e9)
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _record_n(ws, n)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(ws) == n
        assert grown <= 24 * n, grown / n
