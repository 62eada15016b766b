"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulation.engine import Simulator


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(1.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_equal_times_fire_in_scheduling_order(sim):
    fired = []
    for i in range(10):
        sim.schedule(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_now_advances_with_events(sim):
    times = []
    sim.schedule(0.5, lambda: times.append(sim.now))
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.run()
    assert times == [0.5, 1.5]


def test_schedule_in_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule(0.5, lambda: None)


def test_schedule_at_nan_raises(sim):
    """NaN compares false both ways, so a ``time < now`` check let it in
    and the event fired between the finite ones (``['b', 'nan', 'a']``)."""
    fired = []
    sim.schedule(2.0, fired.append, "a")
    sim.schedule(1.0, fired.append, "b")
    with pytest.raises(ValueError):
        sim.schedule(float("nan"), fired.append, "nan")
    with pytest.raises(ValueError):
        sim.schedule_after(float("nan"), fired.append, "nan")
    with pytest.raises(ValueError):
        sim.open_lane().schedule(float("nan"), fired.append, "nan")
    sim.run()
    assert fired == ["b", "a"]


def test_schedule_after_negative_delay_raises(sim):
    with pytest.raises(ValueError):
        sim.schedule_after(-0.1, lambda: None)


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_when_queue_empty(sim):
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_cancelled_event_does_not_fire(sim):
    fired = []
    entry = sim.schedule(1.0, fired.append, "x")
    sim.cancel(entry)
    assert sim.pending_events == 0
    sim.run()
    assert fired == []


def test_events_scheduled_during_execution(sim):
    fired = []

    def chain(n: int) -> None:
        fired.append(n)
        if n < 3:
            sim.schedule_after(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_max_events_limits_execution(sim):
    fired = []
    for i in range(5):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_processed_and_pending_counts(sim):
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.step()
    assert sim.processed_events == 1
    assert sim.pending_events == 1


def test_step_returns_false_when_drained(sim):
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_pending_events_excludes_cancelled(sim):
    entries = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    assert sim.pending_events == 4
    sim.cancel(entries[0])
    sim.cancel(entries[2])
    assert sim.pending_events == 2
    # Double-cancel must not double-count the tombstone.
    sim.cancel(entries[0])
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0
    assert sim.processed_events == 2


def test_cancel_after_fire_is_noop(sim):
    fired = []
    entry = sim.schedule(1.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    sim.cancel(entry)  # no-op: already fired
    assert sim.pending_events == 0
    sim.schedule(2.0, fired.append, "y")
    sim.run()
    assert fired == ["x", "y"]


def test_mass_cancellation_compacts_heap(sim):
    """Tombstones must not accumulate: cancelling most of a large queue
    shrinks the underlying heap rather than leaving it for run() to walk."""
    entries = [sim.schedule(float(i + 1), lambda: None) for i in range(1000)]
    for entry in entries[:900]:
        sim.cancel(entry)
    assert sim.pending_events == 100
    # Lazy compaction has dropped (most of) the tombstones already.
    assert len(sim._heap) < 500
    sim.run()
    assert sim.processed_events == 100


def test_firing_order_survives_compaction(sim):
    fired = []
    entries = []
    for i in range(300):
        entries.append(sim.schedule(float(i % 7), fired.append, i))
    for i, entry in enumerate(entries):
        if i % 3 != 0:
            sim.cancel(entry)
    sim.run()
    survivors = [i for i in range(300) if i % 3 == 0]
    # Time-major, scheduling-order-minor: exactly the uncancelled events.
    expected = sorted(survivors, key=lambda i: (i % 7, i))
    assert fired == expected


def test_run_until_with_cancelled_head(sim):
    fired = []
    head = sim.schedule(1.0, fired.append, "dead")
    sim.schedule(2.0, fired.append, "live")
    sim.cancel(head)
    sim.run(until=1.5)
    assert fired == []
    assert sim.now == 1.5
    sim.run()
    assert fired == ["live"]


@pytest.mark.parametrize("with_tombstone", [False, True])
def test_capped_run_clock_ignores_trailing_tombstones(sim, with_tombstone):
    """A run that reaches ``max_events`` leaves the same clock whether or
    not cancelled events sit behind the last one it fired."""
    fired = []
    sim.schedule(1.0, fired.append, "a")
    if with_tombstone:
        sim.cancel(sim.schedule(2.0, fired.append, "b"))
    sim.run(until=5.0, max_events=1)
    assert fired == ["a"]
    assert sim.now == 5.0
    assert sim.pending_events == 0 and not sim._heap


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
def test_property_events_execute_sorted(times):
    sim = Simulator()
    fired: list[float] = []
    for t in times:
        sim.schedule(t, lambda t=t: fired.append(t))
    sim.run()
    assert fired == sorted(times)
    assert len(fired) == len(times)
