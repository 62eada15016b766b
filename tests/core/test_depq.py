"""Tests for the deadline DEPQ every PARD worker queues in.

``DeadlineDepqQueue`` keeps one run in (deadline, push order) order, as a
column of deadlines beside a list of requests: LBF pops its head and HBF
its tail, so a mode flip changes nothing stored.  A stub controller sets
the mode by hand.  The model tests check every pop against a sorted-list
oracle over ``(deadline, seq)``, with ``seq`` the push order: one flips
the mode at random points between pushes and pops, the other feeds
mostly ascending deadlines in long blocks, the traffic the run is built
for, so tail appends, out-of-order inserts and head compaction all run.
A tracemalloc guard holds a queued entry to a slot in each column.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from types import SimpleNamespace

from hypothesis import example, given, settings
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


def test_queued_entry_costs_a_slot_per_column():
    """Pushing 20k pre-built requests, one in four out of order, adds at
    most 32 B per entry: an 8 B deadline, an 8 B request pointer and the
    columns' over-allocation.  A ``(deadline, seq, request)`` tuple with
    its boxed deadline and seq cost 124 B."""
    rng = random.Random(0)
    requests = [
        Request(sent_at=k - rng.choice((0, 0, 0, 50)), slo=0.0)
        for k in range(20_000)
    ]
    queue, _ = make_queue()
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for request in requests:
            queue.push(request, 0.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(queue) == len(requests)
    assert grown <= 32 * len(requests), grown / len(requests)


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


# Mostly ascending deadlines: a push steps forward from the latest deadline
# so far (a step of 0 ties it), and about one push in ten lands up to 64
# steps behind it, out of order.
STEPS = st.integers(0, 9).flatmap(
    lambda k: st.integers(-64, -1) if k == 0 else st.integers(0, 4)
)
# Long blocks: up to 150 pushes, then up to 150 pops in one mode, so
# LBF pops more than 64 in a row from a queue that holds that many.  The
# push count is drawn first: a plain list strategy keeps lists short.
PUSHES = st.integers(0, 150).flatmap(
    lambda n: st.lists(STEPS, min_size=n, max_size=n)
)
BLOCKS = st.lists(
    st.tuples(PUSHES, st.integers(0, 150), st.sampled_from([LBF, HBF])),
    min_size=1,
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@example([([1] * 100 + [-5] + [1] * 20, 90, LBF), ([2] * 10, 5, HBF)])
@given(BLOCKS)
def test_property_sorted_run_matches_sorted_list_model(blocks):
    """Pushes mostly in deadline order, pops in long single-mode runs:
    every pop, ``len()`` after every operation, and a final ``drain()``
    in each mode match the sorted-list oracle."""
    lbf, lbf_controller = make_queue()
    hbf, hbf_controller = make_queue()
    queues = (lbf, hbf)
    model: list[tuple[float, int, Request]] = []  # sorted by (deadline, seq)
    deadline = 100.0
    seq = 0
    for steps, pops, mode in blocks:
        for step in steps:
            key = deadline + step * 0.25
            deadline = max(deadline, key)
            request = Request(sent_at=key, slo=0.0)
            for queue in queues:
                queue.push(request, 0.0)
            model.append((request.deadline, seq, request))
            model.sort(key=lambda e: e[:2])
            seq += 1
            assert len(lbf) == len(hbf) == len(model)
        lbf_controller.mode = hbf_controller.mode = mode
        for _ in range(pops):
            got = [queue.pop(0.0) for queue in queues]
            if not model:
                assert got == [None, None]
            else:
                end = -1 if mode == HBF else 0
                expected = model.pop(end)[2]
                assert got[0] is expected and got[1] is expected
            assert len(lbf) == len(hbf) == len(model)
    lbf_controller.mode, hbf_controller.mode = LBF, HBF
    expected = [id(e[2]) for e in model]
    assert [id(r) for r in lbf.drain(0.0)] == expected
    assert [id(r) for r in hbf.drain(0.0)] == expected[::-1]
    assert len(lbf) == len(hbf) == 0
