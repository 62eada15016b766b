"""Tests for the metrics layer (§5.1 definitions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.analysis import (
    _summarize_records,
    consumed_budget_per_module,
    dispatch_amplification,
    drop_rate_at_min_goodput,
    drop_rate_series,
    drops_per_module,
    goodput_series,
    latency_component_cdf,
    max_drop_rate,
    merge_collectors,
    min_normalized_goodput,
    normalized_goodput_series,
    per_app_summaries,
    summarize,
    time_to_recover,
)
from repro.metrics.collector import MetricsCollector
from repro.simulation.request import DropReason, Request


def completed(sent_at: float, latency: float, slo: float = 1.0,
              gpu: float = 0.01) -> Request:
    r = Request(sent_at=sent_at, slo=slo)
    v = r.begin_visit("m1", sent_at)
    v.t_batched = sent_at
    v.t_exec_start = sent_at
    v.t_exec_end = sent_at + latency
    v.batch_size = 1
    v.gpu_time = gpu
    r.mark_completed(sent_at + latency)
    return r


def dropped(sent_at: float, at: float, module: str = "m1",
            gpu: float = 0.0) -> Request:
    r = Request(sent_at=sent_at, slo=1.0)
    v = r.begin_visit(module, sent_at)
    if gpu:
        v.t_batched = sent_at
        v.t_exec_start = sent_at
        v.t_exec_end = at
        v.gpu_time = gpu
        v.batch_size = 1
    r.mark_dropped(module, DropReason.ESTIMATED_VIOLATION, at)
    return r


def collect(*requests: Request) -> MetricsCollector:
    c = MetricsCollector()
    for r in requests:
        c.record_submitted()
        c.record_request(r)
    return c


class TestSummarize:
    def test_empty(self):
        s = summarize(MetricsCollector())
        assert s.total == 0 and s.goodput == 0.0

    def test_basic_counts(self):
        c = collect(
            completed(0.0, 0.5),  # good
            completed(1.0, 2.0),  # SLO violation -> counts as dropped
            dropped(2.0, 2.1),
        )
        s = summarize(c, duration=10.0)
        assert s.total == 3
        assert s.good == 1
        assert s.completed == 2
        assert s.dropped == 2
        assert s.drop_rate == pytest.approx(2 / 3)
        assert s.goodput == pytest.approx(0.1)

    def test_invalid_rate_is_wasted_gpu_share(self):
        c = collect(
            completed(0.0, 0.5, gpu=0.03),  # good: valid gpu
            completed(1.0, 2.0, gpu=0.01),  # violates: wasted
        )
        s = summarize(c, duration=10.0)
        assert s.invalid_rate == pytest.approx(0.01 / 0.04)

    def test_slo_violating_completion_counts_as_dropped(self):
        c = collect(completed(0.0, 5.0))
        assert summarize(c, duration=1.0).dropped == 1

    def test_in_flight_request_rejected(self):
        c = MetricsCollector()
        with pytest.raises(ValueError):
            c.record_request(Request(sent_at=0.0, slo=1.0))


class TestPerApp:
    def test_merge_collectors_concatenates_books(self):
        a = collect(completed(0.0, 0.1), dropped(0.5, 0.6))
        b = collect(completed(1.0, 0.2))
        merged = merge_collectors({"a": a, "b": b})
        assert len(merged) == 3
        assert merged.submitted == 3
        # Originals untouched.
        assert len(a) == 2 and len(b) == 1
        # Sequence form works too.
        assert len(merge_collectors([a, b])) == 3

    def test_per_app_summaries_with_per_app_durations(self):
        a = collect(completed(0.0, 0.1), completed(1.0, 0.1))
        b = collect(completed(0.0, 0.1))
        out = per_app_summaries({"a": a, "b": b},
                                durations={"a": 2.0, "b": 1.0})
        assert out["a"].goodput == pytest.approx(1.0)
        assert out["b"].goodput == pytest.approx(1.0)
        assert out["a"].total == 2

    def test_per_app_summaries_scalar_duration(self):
        a = collect(completed(0.0, 0.1))
        out = per_app_summaries({"a": a}, durations=4.0)
        assert out["a"].goodput == pytest.approx(0.25)


class TestWindowedSeries:
    def build(self):
        reqs = []
        # Window [0, 10): 10 good.  Window [10, 20): 5 good, 5 dropped.
        for i in range(10):
            reqs.append(completed(i, 0.5))
        for i in range(5):
            reqs.append(completed(10 + i, 0.5))
        for i in range(5):
            reqs.append(dropped(15 + i, 15 + i + 0.1))
        return collect(*reqs)

    def test_goodput_series(self):
        starts, goods, arrivals = goodput_series(self.build(), window=10.0)
        assert list(arrivals) == [10, 10]
        assert list(goods) == [10, 5]

    def test_normalized_goodput(self):
        _, norm = normalized_goodput_series(self.build(), window=10.0)
        assert norm[0] == pytest.approx(1.0)
        assert norm[1] == pytest.approx(0.5)

    def test_min_normalized_goodput(self):
        assert min_normalized_goodput(self.build(), 10.0) == pytest.approx(0.5)

    def test_drop_rate_series_and_max(self):
        c = self.build()
        _, rates = drop_rate_series(c, window=10.0)
        assert rates[1] == pytest.approx(0.5)
        assert max_drop_rate(c, 10.0) == pytest.approx(0.5)

    def test_drop_rate_at_min_goodput(self):
        assert drop_rate_at_min_goodput(self.build(), 10.0) == pytest.approx(0.5)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            goodput_series(self.build(), window=0.0)

    def test_empty_collector(self):
        c = MetricsCollector()
        starts, goods, arrivals = goodput_series(c, 5.0)
        assert len(starts) == 0
        assert min_normalized_goodput(c, 5.0) == 0.0
        assert max_drop_rate(c, 5.0) == 0.0


class TestAvailability:
    def outage(self):
        """Good until t=10, an outage window [10, 20), recovered after."""
        reqs = []
        for i in range(10):
            reqs.append(completed(i, 0.5))
        for i in range(10):
            reqs.append(dropped(10 + i, 10 + i + 0.1))
        for i in range(10):
            reqs.append(completed(20 + i, 0.5))
        return collect(*reqs)

    def test_time_to_recover_measures_from_the_fault(self):
        # Windows starting before the fault are excluded: their sends
        # would dilute the outage with pre-fault traffic.
        assert time_to_recover(
            self.outage(), after=10.0, target=0.9, window=10.0
        ) == pytest.approx(10.0)

    def test_time_to_recover_none_when_target_never_reached(self):
        assert time_to_recover(
            self.outage(), after=10.0, target=0.9, window=30.0
        ) is None

    def test_time_to_recover_zero_when_unaffected(self):
        c = collect(*[completed(float(i), 0.1) for i in range(20)])
        assert time_to_recover(c, after=5.0, target=0.9, window=5.0) == 0.0

    def test_dispatch_amplification(self):
        c = collect(completed(0.0, 0.5), completed(1.0, 0.5))
        assert dispatch_amplification(c) == pytest.approx(1.0)
        c.res_retries = 2
        c.res_hedges = 1
        assert dispatch_amplification(c) == pytest.approx(2.5)

    def test_dispatch_amplification_empty(self):
        assert dispatch_amplification(MetricsCollector()) == 1.0

    def test_merge_collectors_folds_resilience_counters(self):
        a = collect(completed(0.0, 0.5))
        a.res_retries, a.res_hedges = 2, 1
        a.res_timeouts, a.res_fallbacks = 3, 1
        b = collect(completed(1.0, 0.5))
        b.res_retries = 1
        merged = merge_collectors([a, b])
        assert (merged.res_retries, merged.res_hedges,
                merged.res_timeouts, merged.res_fallbacks) == (3, 1, 3, 1)


class TestPerModule:
    def test_drops_per_module_shares(self):
        c = collect(
            dropped(0.0, 0.1, module="m1"),
            dropped(1.0, 1.1, module="m1"),
            dropped(2.0, 2.1, module="m2"),
            completed(3.0, 0.5),
        )
        shares = drops_per_module(c, ["m1", "m2", "m3"])
        assert shares["m1"] == pytest.approx(2 / 3)
        assert shares["m2"] == pytest.approx(1 / 3)
        assert shares["m3"] == 0.0

    def test_slo_violations_not_attributed_to_modules(self):
        c = collect(completed(0.0, 5.0))  # violates but never "dropped at"
        shares = drops_per_module(c, ["m1"])
        assert shares["m1"] == 0.0

    def test_consumed_budget_only_counts_good_requests(self):
        c = collect(completed(0.0, 0.5), completed(1.0, 5.0))
        budgets = consumed_budget_per_module(c, ["m1"])
        assert budgets["m1"] == pytest.approx(0.5)


class TestComponentCdf:
    def test_cdf_shape(self):
        c = collect(*[completed(float(i), 0.2 + 0.01 * i) for i in range(10)])
        xs, ps = latency_component_cdf(c, "exec")
        assert len(xs) == 10
        assert np.all(np.diff(xs) >= 0)
        assert ps[-1] == pytest.approx(1.0)

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            latency_component_cdf(MetricsCollector(), "nope")


def test_record_scan_adds_gpu_time_left_to_right():
    # GPU times 0.1 + 0.2 + 0.3 left to right; Python 3.12's compensated
    # sum() would give 0.6, and an invalid rate of exactly 0.5.
    collector = MetricsCollector()
    for gpu, latency in ((0.1, 0.1), (0.2, 0.1), (0.3, 2.0)):
        collector.record_request(completed(0.0, latency, gpu=gpu))
    summary = _summarize_records(collector.records, 1.0)
    assert summary.dropped == 1
    assert summary.invalid_rate == 0.3 / 0.6000000000000001
