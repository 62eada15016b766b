"""Tests for the request lifecycle model."""

from __future__ import annotations

import pytest

from repro.simulation.request import (
    DropReason,
    ModuleVisit,
    Request,
    RequestStatus,
)


def make_request(sent_at: float = 0.0, slo: float = 0.5) -> Request:
    return Request(sent_at=sent_at, slo=slo)


def test_unique_request_ids():
    ids = {make_request().rid for _ in range(100)}
    assert len(ids) == 100


def test_deadline_and_remaining_budget():
    r = make_request(sent_at=1.0, slo=0.5)
    assert r.deadline == pytest.approx(1.5)
    assert r.remaining_budget(1.2) == pytest.approx(0.3)
    assert r.remaining_budget(1.7) == pytest.approx(-0.2)


def test_visit_latency_decomposition():
    v = ModuleVisit(module_id="m1", t_received=1.0)
    v.t_batched = 1.2
    v.t_exec_start = 1.5
    v.t_exec_end = 1.6
    assert v.queueing_delay == pytest.approx(0.2)
    assert v.batch_wait == pytest.approx(0.3)
    assert v.execution == pytest.approx(0.1)


def test_visit_accessors_raise_before_population():
    v = ModuleVisit(module_id="m1", t_received=1.0)
    with pytest.raises(ValueError):
        _ = v.queueing_delay
    v.t_batched = 1.1
    with pytest.raises(ValueError):
        _ = v.batch_wait


def test_begin_visit_twice_raises():
    r = make_request()
    r.begin_visit("m1", 0.1)
    with pytest.raises(ValueError):
        r.begin_visit("m1", 0.2)


def test_completed_within_slo_is_good():
    r = make_request(sent_at=0.0, slo=0.5)
    r.mark_completed(0.4)
    assert r.status is RequestStatus.COMPLETED
    assert r.met_slo
    assert r.elapsed == pytest.approx(0.4)


def test_completed_after_slo_violates():
    r = make_request(sent_at=0.0, slo=0.5)
    r.mark_completed(0.6)
    assert r.status is RequestStatus.COMPLETED
    assert not r.met_slo


def test_dropped_request_never_good():
    r = make_request()
    r.begin_visit("m1", 0.1)
    r.mark_dropped("m1", DropReason.ESTIMATED_VIOLATION, 0.2)
    assert r.status is RequestStatus.DROPPED
    assert not r.met_slo
    assert r.dropped_at_module == "m1"
    assert r.finished_at == pytest.approx(0.2)


def test_drop_is_idempotent_for_dag_siblings():
    r = make_request()
    r.mark_dropped("m2", DropReason.ESTIMATED_VIOLATION, 0.2)
    r.mark_dropped("m3", DropReason.SIBLING_DROPPED, 0.3)  # no-op
    assert r.dropped_at_module == "m2"
    assert r.finished_at == pytest.approx(0.2)


def test_complete_then_drop_raises():
    r = make_request()
    r.mark_completed(0.1)
    with pytest.raises(ValueError):
        r.mark_dropped("m1", DropReason.ALREADY_EXPIRED, 0.2)


def test_double_complete_raises():
    r = make_request()
    r.mark_completed(0.1)
    with pytest.raises(ValueError):
        r.mark_completed(0.2)


def test_elapsed_requires_terminal_state():
    r = make_request()
    with pytest.raises(ValueError):
        _ = r.elapsed


def test_gpu_time_sums_across_visits():
    r = make_request()
    v1 = r.begin_visit("m1", 0.0)
    v1.gpu_time = 0.01
    v2 = r.begin_visit("m2", 0.1)
    v2.gpu_time = 0.02
    assert r.gpu_time == pytest.approx(0.03)


def test_gpu_time_adds_visits_left_to_right():
    # 0.1 + 0.2 + 0.3 left to right; Python 3.12's compensated sum()
    # would give 0.6.
    r = make_request()
    for module_id, share in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
        r.begin_visit(module_id, 0.0).gpu_time = share
    assert r.gpu_time == 0.6000000000000001
