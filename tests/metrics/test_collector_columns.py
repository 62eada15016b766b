"""The collector's columns and the record view built from them.

``MetricsCollector`` stores outcomes as typed columns and builds
``records`` on first read.  The property below holds that view, its
pickle round trip and ``merge_collectors`` to the records a collector
used to build directly, one ``RequestRecord`` per terminal request; the
pinned digests hold whole runs to the records they produced before the
columns existed.  A second property holds drops recorded in runs
(``record_drops``) to the counters, goodput counters, columns and
summaries of recording one terminal request at a time.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_multi_scenario, run_scenario
from repro.experiments.scenario import Scenario, load_scenario_file
from repro.metrics.analysis import _summarize_records, merge_collectors, summarize
from repro.metrics.collector import MetricsCollector, RequestRecord, VisitRecord
from repro.metrics.goodput import (
    GoodputSpec,
    _report_from_records,
    constraint_checks,
    goodput_report,
)
from repro.simulation.request import DropReason, Request, RequestStatus

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"

MODULES = ("m1", "m2", "gen", "join")


def _visit_records(request: Request) -> tuple[VisitRecord, ...]:
    out = []
    for v in request.visits.values():
        if v.t_exec_end is None:
            continue
        out.append(
            VisitRecord(
                module_id=v.module_id,
                queueing_delay=v.queueing_delay,
                batch_wait=v.batch_wait,
                execution=v.execution,
                gpu_time=v.gpu_time,
                batch_size=v.batch_size,
            )
        )
    return tuple(out)


def reference_record(request: Request) -> RequestRecord:
    """The record of ``request`` built field by field, as a list of
    records was filled before the collector stored columns."""
    return RequestRecord(
        rid=request.rid,
        sent_at=request.sent_at,
        finished_at=request.finished_at,
        status=request.status,
        met_slo=request.met_slo,
        slo=request.slo,
        gpu_time=request.gpu_time,
        dropped_at_module=request.dropped_at_module,
        drop_reason=request.drop_reason,
        visits=_visit_records(request),
        first_token_at=request.first_token_at,
        last_token_at=request.last_token_at,
        tokens_out=request.tokens_out,
    )


times = st.floats(min_value=0.0, max_value=1e5)
spans = st.floats(min_value=0.0, max_value=10.0)


@st.composite
def terminal_requests(draw) -> Request:
    sent = draw(times)
    request = Request(sent_at=sent, slo=draw(st.floats(0.001, 10.0)),
                      rid=draw(st.integers(0, 2**40)))
    for mid in draw(st.lists(st.sampled_from(MODULES), max_size=4,
                             unique=True)):
        visit = request.begin_visit(mid, sent + draw(spans))
        visit.gpu_time = draw(spans)
        if draw(st.booleans()):  # executed; else queued when it ended
            visit.t_batched = visit.t_received + draw(spans)
            visit.t_exec_start = visit.t_batched + draw(spans)
            visit.t_exec_end = visit.t_exec_start + draw(spans)
            visit.batch_size = draw(st.integers(1, 64))
    request.first_token_at = draw(st.none() | times)
    request.last_token_at = draw(st.none() | times)
    request.tokens_out = draw(st.integers(0, 10_000))
    finished = sent + draw(spans)
    if draw(st.booleans()):
        request.mark_completed(finished)
    else:
        request.mark_dropped(draw(st.sampled_from(MODULES)),
                             draw(st.sampled_from(DropReason)), finished)
    return request


def _assert_same(records: tuple, expected: list) -> None:
    assert records == tuple(expected)
    for r, e in zip(records, expected):
        assert type(r) is RequestRecord
        assert all(type(v) is VisitRecord for v in r.visits)
        assert r.status is e.status
        assert r.drop_reason is e.drop_reason
        assert r.met_slo is e.met_slo


def _counters(collector: MetricsCollector) -> tuple:
    return (collector.count, collector.completed_count, collector.good_count,
            collector.dropped_count, collector.gpu_time_total,
            collector.wasted_gpu_total, collector.first_sent,
            collector.last_sent)


@settings(max_examples=150, deadline=None)
@given(st.lists(terminal_requests(), max_size=12),
       st.lists(terminal_requests(), max_size=12))
def test_record_view_matches_records_built_directly(first, second):
    a, b, both = MetricsCollector(), MetricsCollector(), MetricsCollector()
    lean_a = MetricsCollector(lean=True)
    for collector, requests in ((a, first), (b, second)):
        for request in requests:
            collector.record_request(request)
            both.record_request(request)
    for request in first:
        lean_a.record_request(request)
    expected_a = [reference_record(r) for r in first]
    expected_b = [reference_record(r) for r in second]

    _assert_same(a.records, expected_a)
    assert a.records is a.records  # built once, reused until the next record
    back = pickle.loads(pickle.dumps(a, pickle.HIGHEST_PROTOCOL))
    _assert_same(back.records, expected_a)
    merged = merge_collectors([a, b])
    _assert_same(merged.records, expected_a + expected_b)
    # Folded from the columns in order: bit-identical float totals.
    assert _counters(merged) == _counters(both)
    _assert_same(a.records, expected_a)  # the merge left its parts alone
    # A lean part adds its subtotals and makes the merge lean; the totals
    # still match, since the lean part comes first.
    lean_merged = merge_collectors([lean_a, b])
    assert lean_merged.lean and not lean_merged.records
    assert _counters(lean_merged) == _counters(both)


def test_record_request_refreshes_the_view():
    collector = MetricsCollector()
    request = Request(sent_at=0.0, slo=1.0)
    request.mark_completed(0.5)
    collector.record_request(request)
    seen = collector.records
    later = Request(sent_at=1.0, slo=1.0)
    later.mark_dropped("m1", DropReason.TIMEOUT, 1.5)
    collector.record_request(later)
    assert len(seen) == 1
    assert collector.records == (reference_record(request),
                                 reference_record(later))


def test_record_view_is_read_only():
    collector = MetricsCollector()
    request = Request(sent_at=0.0, slo=1.0)
    request.mark_completed(0.5)
    collector.record_request(request)
    with pytest.raises(AttributeError):
        collector.records.append(reference_record(request))
    with pytest.raises(AttributeError):
        collector.records = []
    assert collector.records == (reference_record(request),)


# -- drops recorded in runs ----------------------------------------------------

GOODPUT = GoodputSpec(ttft=2.0, tpot=0.5, e2e=5.0)


def reference_counters(requests: list[Request], spec: GoodputSpec) -> tuple:
    """The streaming and goodput counters of ``requests``, kept one
    terminal request at a time as before drops were recorded in runs."""
    count = completed = good = dropped = 0
    gpu_total = wasted = 0.0
    first, last = float("inf"), float("-inf")
    gp_good = ttft_met = tpot_met = e2e_met = tokens_out = 0
    for r in requests:
        is_completed = r.status is RequestStatus.COMPLETED
        count += 1
        completed += is_completed
        good += r.met_slo
        if not is_completed or not r.met_slo:  # paper §5.1
            dropped += 1
            wasted += r.gpu_time
        gpu_total += r.gpu_time
        first = min(first, r.sent_at)
        last = max(last, r.sent_at)
        tokens_out += r.tokens_out
        if is_completed:
            ttft_ok, tpot_ok, e2e_ok = constraint_checks(spec, r)
            ttft_met += ttft_ok
            tpot_met += tpot_ok
            e2e_met += e2e_ok
            gp_good += ttft_ok and tpot_ok and e2e_ok
    return ((count, completed, good, dropped, gpu_total, wasted, first, last),
            (gp_good, ttft_met, tpot_met, e2e_met, tokens_out))


def _goodput_counters(collector: MetricsCollector) -> tuple:
    return (collector.gp_good, collector.gp_ttft_met, collector.gp_tpot_met,
            collector.gp_e2e_met, collector.gp_tokens_out)


@settings(max_examples=150, deadline=None)
@given(st.lists(terminal_requests(), max_size=16), st.data())
def test_drop_runs_record_as_one_request_at_a_time(requests, data):
    """Consecutive drops, cut into runs at random and recorded by
    ``record_drops``, leave every counter, goodput counter, column and
    summary as ``record_request`` on each request, and as the per-request
    counters; the full-mode summaries also match the record scans."""
    steps: list[list[Request]] = []  # a completion, or a run of drops
    for r in requests:
        if (r.status is RequestStatus.DROPPED and steps
                and steps[-1][-1].status is RequestStatus.DROPPED
                and data.draw(st.booleans())):
            steps[-1].append(r)
        else:
            steps.append([r])
    counters, goodput = reference_counters(requests, GOODPUT)
    expected = [reference_record(r) for r in requests]
    books = {}
    for lean in (False, True):
        one = MetricsCollector(lean=lean, goodput=GOODPUT)
        runs = MetricsCollector(lean=lean, goodput=GOODPUT)
        for r in requests:
            one.record_request(r)
        for step in steps:
            if step[0].status is RequestStatus.DROPPED:
                runs.record_drops(step)
            else:
                runs.record_request(step[0])
        for collector in (one, runs):
            assert _counters(collector) == counters
            assert _goodput_counters(collector) == goodput
        assert runs._request_columns == one._request_columns
        assert runs._visit_columns == one._visit_columns
        books[lean] = runs
    full, lean = books[False], books[True]
    _assert_same(full.records, expected)
    assert lean.records == ()
    for duration in (10.0, None):
        assert summarize(lean, duration) == summarize(full, duration)
        assert goodput_report(lean, duration) == goodput_report(full, duration)
        if requests:
            assert summarize(full, duration) == _summarize_records(
                full.records, duration)
            assert goodput_report(full, duration) == _report_from_records(
                GOODPUT, full.records, duration)


def test_record_drops_refuses_a_request_not_dropped():
    collector = MetricsCollector()
    dropped = Request(sent_at=0.0, slo=1.0)
    dropped.mark_dropped("m1", DropReason.TIMEOUT, 0.5)
    completed = Request(sent_at=0.0, slo=1.0)
    completed.mark_completed(0.5)
    for request in (completed, Request(sent_at=0.0, slo=1.0)):
        with pytest.raises(ValueError):
            collector.record_drops([dropped, request])
    assert collector.count == 0 and collector.records == ()


# -- whole runs, pinned at the records they produced before the columns ----

BURSTY_TM = {
    "name": "columns", "app": {"name": "tm"}, "policy": "PARD", "workers": 2,
    "seed": 3,
    "trace": {"name": "poisson", "duration": 8, "base_rate": 100,
              "bursts": [{"start": 3.0, "length": 2.0, "factor": 3.0}]},
}
DA = {
    "name": "columns", "app": {"name": "da"}, "policy": "PARD", "workers": 2,
    "seed": 3, "trace": {"name": "poisson", "duration": 4, "base_rate": 30},
}


def digest(records: list[RequestRecord]) -> str:
    """sha256 of every record's ``repr``, rids rebased to the first."""
    first = min(r.rid for r in records)
    h = hashlib.sha256()
    for r in records:
        h.update(repr(r._replace(rid=r.rid - first)).encode())
    return h.hexdigest()


def _pinned(records, expected: str, n_records: int, n_visits: int) -> None:
    assert (len(records), sum(len(r.visits) for r in records)) == (
        n_records, n_visits)
    assert digest(records) == expected


def test_bursty_tm_records_pinned():
    records = run_scenario(Scenario.from_dict(BURSTY_TM)).collector.records
    assert {r.drop_reason for r in records} - {None}
    _pinned(records,
            "060e1fe35aead2c3ec32bd22003811bad3066ac1382491095ffeb7979dd9d390",
            1214, 2551)


def test_da_dag_records_pinned():
    records = run_scenario(Scenario.from_dict(DA)).collector.records
    assert any(len(r.visits) > 1 for r in records)
    _pinned(records,
            "e20f8fbc956d47337e305e055eecf53b27294516a06c982b40975ca0e7ac8af4",
            111, 555)


def test_shared_cluster_merged_records_pinned():
    spec = load_scenario_file(EXAMPLES / "shared_cluster.json")
    collectors = run_multi_scenario(spec).collectors
    records = merge_collectors(collectors).records
    assert {r.dropped_at_module for r in records} - {None}
    _pinned(records,
            "385ca01b3706adf9ae3ea5ac07bb8f0c778a1fc2691f050471824a2dcca2f511",
            2154, 3544)
