"""Tests for goodput-under-constraints: spec, checks, report, merge, table."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.metrics.analysis import merge_collectors
from repro.metrics.collector import MetricsCollector
from repro.metrics.goodput import (
    GoodputSpec,
    _report_from_records,
    constraint_checks,
    goodput_report,
    is_good,
)
from repro.metrics.report import goodput_table
from repro.simulation.request import RequestStatus


@dataclass
class FakeRequest:
    """Just enough terminal-request surface for the collector and checks."""

    rid: int = 0
    sent_at: float = 0.0
    finished_at: float = 1.0
    status: RequestStatus = RequestStatus.COMPLETED
    met_slo: bool = True
    slo: float = 5.0
    gpu_time: float = 0.1
    dropped_at_module: str | None = None
    drop_reason: None = None
    first_token_at: float | None = 0.2
    last_token_at: float | None = 0.9
    tokens_out: int = 8
    visits: dict = field(default_factory=dict)


class TestGoodputSpec:
    def test_unconstrained_by_default(self):
        assert not GoodputSpec().declared
        assert GoodputSpec(ttft=0.5).declared
        assert GoodputSpec(tpot=0.01).declared
        assert GoodputSpec(e2e=2.0).declared

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            GoodputSpec(ttft=0.0)
        with pytest.raises(ValueError):
            GoodputSpec(e2e=-1.0)

    def test_round_trip_and_unknown_keys(self):
        spec = GoodputSpec(ttft=0.5, e2e=2.0)
        assert GoodputSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            GoodputSpec.from_dict({"ttfb": 0.5})


class TestConstraintChecks:
    def test_undeclared_constraints_pass_vacuously(self):
        r = FakeRequest(first_token_at=None, last_token_at=None, tokens_out=0)
        assert constraint_checks(GoodputSpec(), r) == (True, True, True)

    def test_declared_ttft_fails_without_tokens(self):
        r = FakeRequest(first_token_at=None)
        ttft_ok, _, _ = constraint_checks(GoodputSpec(ttft=10.0), r)
        assert not ttft_ok

    def test_declared_tpot_needs_two_tokens(self):
        # A single-token response has no inter-token gap to judge:
        # a declared TPOT constraint counts as not met.
        r = FakeRequest(tokens_out=1, first_token_at=0.2, last_token_at=0.2)
        _, tpot_ok, _ = constraint_checks(GoodputSpec(tpot=10.0), r)
        assert not tpot_ok

    def test_tpot_is_mean_inter_token_gap(self):
        # 8 tokens over [0.2, 0.9]: gap = 0.7 / 7 = 0.1 exactly.
        r = FakeRequest()
        assert constraint_checks(GoodputSpec(tpot=0.1), r)[1]
        assert not constraint_checks(GoodputSpec(tpot=0.09), r)[1]

    def test_e2e_measured_from_sent_at(self):
        r = FakeRequest(sent_at=1.0, finished_at=2.5)
        assert constraint_checks(GoodputSpec(e2e=1.5), r)[2]
        assert not constraint_checks(GoodputSpec(e2e=1.4), r)[2]

    def test_dropped_requests_are_never_good(self):
        r = FakeRequest(status=RequestStatus.DROPPED)
        assert not is_good(GoodputSpec(e2e=100.0), r)
        assert not is_good(GoodputSpec(), r)


def _requests() -> list[FakeRequest]:
    return [
        # Good: meets everything.
        FakeRequest(rid=1, sent_at=0.0, finished_at=1.0),
        # TTFT miss (first token late), e2e fine.
        FakeRequest(rid=2, sent_at=0.0, finished_at=1.0, first_token_at=0.6),
        # e2e miss.
        FakeRequest(rid=3, sent_at=0.0, finished_at=4.0, last_token_at=3.9),
        # Dropped: counts in total, never good.
        FakeRequest(
            rid=4, status=RequestStatus.DROPPED, met_slo=False,
            first_token_at=None, last_token_at=None, tokens_out=0,
        ),
    ]


SPEC = GoodputSpec(ttft=0.5, tpot=0.6, e2e=2.0)


class TestCollectorCounters:
    def test_streaming_counters_match_expected(self):
        collector = MetricsCollector(goodput=SPEC)
        for r in _requests():
            collector.record_request(r)
        report = goodput_report(collector, duration=2.0)
        assert report is not None
        assert (report.total, report.completed, report.good) == (4, 3, 1)
        assert (report.ttft_met, report.tpot_met, report.e2e_met) == (2, 3, 2)
        assert report.tokens_out == 24
        assert report.goodput == pytest.approx(0.5)
        assert report.good_fraction == pytest.approx(0.25)

    def test_lean_equals_full_collection(self):
        full = MetricsCollector(goodput=SPEC)
        lean = MetricsCollector(lean=True, goodput=SPEC)
        for r in _requests():
            full.record_request(r)
            lean.record_request(r)
        assert not lean.records
        assert goodput_report(lean, duration=2.0) == goodput_report(
            full, duration=2.0
        )

    def test_record_scan_fallback_agrees_with_streaming(self):
        """The streamed counters agree with the record-scan definition
        (``_report_from_records``) over the same collector's records."""
        streamed = MetricsCollector(goodput=SPEC)
        for r in _requests():
            streamed.record_request(r)
        for duration in (2.0, None):
            assert goodput_report(streamed, duration) == _report_from_records(
                SPEC, streamed.records, duration
            )

    def test_report_none_without_declared_constraints(self):
        collector = MetricsCollector()
        collector.record_request(FakeRequest())
        assert goodput_report(collector) is None
        undeclared = MetricsCollector(goodput=GoodputSpec())
        undeclared.record_request(FakeRequest())
        assert goodput_report(undeclared) is None

    def test_empty_collector_reports_zeros(self):
        report = goodput_report(MetricsCollector(goodput=SPEC))
        assert report is not None
        assert report.total == report.good == 0
        assert report.goodput == 0.0


class TestMerge:
    def _collector(self, spec: GoodputSpec) -> MetricsCollector:
        c = MetricsCollector(goodput=spec)
        for r in _requests():
            c.record_request(r)
        return c

    def test_merge_folds_counters_additively(self):
        merged = merge_collectors([self._collector(SPEC), self._collector(SPEC)])
        assert merged.goodput == SPEC
        report = goodput_report(merged, duration=2.0)
        assert (report.total, report.good) == (8, 2)
        assert report.tokens_out == 48

    def test_merge_drops_spec_unless_unanimous(self):
        a = self._collector(SPEC)
        b = self._collector(GoodputSpec(e2e=9.0))
        merged = merge_collectors({"a": a, "b": b})
        assert merged.goodput is None
        assert goodput_report(merged) is None  # aggregate is undefined
        # The counters still folded (each part judged by its own spec).
        assert merged.gp_good == a.gp_good + b.gp_good


class TestTable:
    def test_table_shows_only_declared_constraint_columns(self):
        collector = MetricsCollector(goodput=GoodputSpec(ttft=0.5, e2e=2.0))
        for r in _requests():
            collector.record_request(r)
        report = goodput_report(collector, duration=2.0)
        text = goodput_table({"chat": report})
        assert "ttft met" in text and "e2e met" in text
        assert "tpot met" not in text
        assert "@0.5s" in text and "@2s" in text

    def test_table_filters_none_and_rejects_empty(self):
        with pytest.raises(ValueError):
            goodput_table({"a": None})

    def test_markdown_table(self):
        collector = MetricsCollector(goodput=SPEC)
        for r in _requests():
            collector.record_request(r)
        text = goodput_table(
            {"x": goodput_report(collector, duration=2.0)}, markdown=True
        )
        assert text.startswith("|")
