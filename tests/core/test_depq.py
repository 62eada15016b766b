"""Tests for the deadline DEPQ every PARD worker queues in.

``DeadlineDepqQueue`` keeps one heap oriented toward the end its module's
priority mode pops and re-orients when the mode flips.  A stub controller
sets the mode by hand; the model test flips it at random points between
pushes and pops and checks every pop against a sorted-list oracle over
``(deadline, seq)``.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.priority import DeadlineDepqQueue, PriorityMode
from repro.simulation.request import Request

LBF, HBF = PriorityMode.LBF, PriorityMode.HBF


class StubController:
    """The one controller method the queue reads; the mode is set by hand."""

    def __init__(self) -> None:
        self.mode = LBF

    def current(self, module_id: str) -> str:
        return self.mode


def make_queue() -> tuple[DeadlineDepqQueue, StubController]:
    """The queue PARD gives every worker, with a hand-driven mode."""
    controller = StubController()
    module = SimpleNamespace(spec=SimpleNamespace(id="m"))
    return DeadlineDepqQueue(module, controller), controller


def push_all(queue: DeadlineDepqQueue, deadlines) -> list[Request]:
    requests = [Request(sent_at=d, slo=0.0) for d in deadlines]
    for r in requests:
        queue.push(r, 0.0)
    return requests


def drain(queue: DeadlineDepqQueue) -> list[float]:
    return [queue.pop(0.0).deadline for _ in range(len(queue))]


def test_empty_heap():
    queue, controller = make_queue()
    assert len(queue) == 0
    assert queue.pop(0.0) is None
    controller.mode = HBF
    assert queue.pop(0.0) is None


def test_single_element_is_both_min_and_max():
    for mode in (LBF, HBF):
        queue, controller = make_queue()
        (request,) = push_all(queue, [1.0])
        controller.mode = mode
        assert queue.pop(0.0) is request


def test_pop_min_ascending():
    queue, _ = make_queue()
    push_all(queue, [5.0, 3.0, 8.0, 1.0, 9.0, 2.0])
    assert drain(queue) == [1.0, 2.0, 3.0, 5.0, 8.0, 9.0]


def test_pop_max_descending():
    queue, controller = make_queue()
    push_all(queue, [5.0, 3.0, 8.0, 1.0, 9.0, 2.0])
    controller.mode = HBF
    assert drain(queue) == [9.0, 8.0, 5.0, 3.0, 2.0, 1.0]


def test_alternating_pops():
    queue, controller = make_queue()
    push_all(queue, [float(k) for k in range(10)])
    popped = []
    for mode in (LBF, HBF, LBF, HBF):
        controller.mode = mode
        popped.append(queue.pop(0.0).deadline)
    assert popped == [0.0, 9.0, 1.0, 8.0]
    assert len(queue) == 6


def test_equal_keys_pop_min_is_fifo():
    """Equal deadlines pop in push order under LBF, reverse under HBF."""
    queue, controller = make_queue()
    first, second, third = push_all(queue, [1.0, 1.0, 1.0])
    assert queue.pop(0.0) is first
    controller.mode = HBF
    assert queue.pop(0.0) is third
    assert queue.pop(0.0) is second


OPS = st.lists(
    st.one_of(
        # Few distinct deadlines, so ties (broken by push order) are common.
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("mode"), st.sampled_from([LBF, HBF])),
    ),
    max_size=300,
)


@settings(max_examples=300)
@given(OPS)
def test_property_matches_sorted_list_model(ops):
    """LBF pops the minimum (deadline, seq) — FIFO among equal deadlines —
    and HBF the maximum — LIFO among equal deadlines — across any mix of
    pushes, pops and mode flips."""
    queue, controller = make_queue()
    model: list[tuple[float, int, Request]] = []  # sorted by (deadline, seq)
    for seq, (op, arg) in enumerate(ops):
        if op == "push":
            (request,) = push_all(queue, [arg * 0.25])
            model.append((request.deadline, seq, request))
            model.sort(key=lambda e: e[:2])
        elif op == "pop":
            got = queue.pop(0.0)
            if not model:
                assert got is None
            else:
                end = -1 if controller.mode == HBF else 0
                assert got is model.pop(end)[2]
        else:
            controller.mode = arg
        assert len(queue) == len(model)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_property_heapsort_both_directions(deadlines):
    up, _ = make_queue()
    down, controller = make_queue()
    push_all(up, deadlines)
    push_all(down, deadlines)
    controller.mode = HBF
    assert drain(up) == sorted(deadlines)
    assert drain(down) == sorted(deadlines, reverse=True)
