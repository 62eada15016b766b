"""The engine against a reference model, over random operation sequences.

The model keeps every scheduled event in a plain dict and finds the next
one with ``min`` over ``(time, seq)``; it assigns sequence numbers the
way the engine documents them (one counter, and a reserved block per
arrival lane) and applies the documented tombstone and compaction rules.
After every operation the engine must agree with it on what fired and
when, on the clock, on ``pending_events``/``processed_events`` and on
the heap's size, tombstones included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import _COMPACT_MIN, ArrivalLane, Simulator

DELAYS = st.sampled_from([0.0, 0.25, 1.0, 3.0])

OPS = st.one_of(
    # schedule one event; when it fires it cancels the event scheduled
    # ``target`` operations earlier (None: it cancels nothing)
    st.tuples(st.just("schedule"), DELAYS, st.none() | st.integers(0, 200)),
    st.tuples(st.just("schedule_many"), st.integers(1, 150), DELAYS),
    st.tuples(st.just("open_lane")),
    st.tuples(st.just("lane"), st.integers(0, 3), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    # cancel every k-th event ever scheduled (fired ones included)
    st.tuples(st.just("cancel_every"), st.integers(1, 3)),
    st.tuples(
        st.just("run"),
        st.none() | DELAYS,
        st.none() | st.integers(0, 40),
    ),
    st.tuples(st.just("step")),
)


class Model:
    """The engine's documented semantics, without a heap."""

    def __init__(self) -> None:
        self.now = 0.0
        self.seq = 0
        self.processed = 0
        self.live: dict[int, tuple[float, int]] = {}  # event id -> key
        self.tombs: set[tuple[float, int]] = set()  # cancelled, still queued
        self.fired: list[tuple[int, float]] = []
        self.on_fire: dict[int, int] = {}  # event id -> id it cancels

    def schedule(self, eid: int, time: float, seq: int) -> None:
        self.live[eid] = (time, seq)

    def cancel(self, eid: int) -> None:
        key = self.live.pop(eid, None)
        if key is None:
            return  # fired or cancelled already: a no-op
        self.tombs.add(key)
        heap = len(self.live) + len(self.tombs)
        if len(self.tombs) > _COMPACT_MIN and 2 * len(self.tombs) > heap:
            self.tombs.clear()

    def _head(self):
        live = min(self.live.items(), key=lambda kv: kv[1], default=None)
        tomb = min(self.tombs, default=None)
        if tomb is not None and (live is None or tomb < live[1]):
            return None, tomb
        return live

    def _fire(self, eid: int) -> None:
        self.now = self.live.pop(eid)[0]
        self.processed += 1
        self.fired.append((eid, self.now))
        target = self.on_fire.get(eid)
        if target is not None:
            self.cancel(target)

    def run(self, until: float | None, max_events: int | None) -> None:
        executed = 0
        while self.live or self.tombs:
            eid, key = self._head()
            if eid is None:
                self.tombs.remove(key)
                continue
            if max_events is not None and executed >= max_events:
                return
            if until is not None and key[0] > until:
                self.now = until
                return
            self._fire(eid)
            executed += 1
        if until is not None and until > self.now:
            self.now = until

    def step(self) -> bool:
        while self.live or self.tombs:
            eid, key = self._head()
            if eid is None:
                self.tombs.remove(key)
                continue
            self._fire(eid)
            return True
        return False


def check(sim: Simulator, model: Model, fired: list) -> None:
    assert fired == model.fired
    assert sim.now == model.now
    assert sim.pending_events == len(model.live)
    assert sim.processed_events == model.processed
    assert len(sim._heap) == len(model.live) + len(model.tombs)


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_engine_matches_reference_model(ops):
    sim = Simulator()
    model = Model()
    fired: list[tuple[int, float]] = []
    entries: list = []  # event id -> the engine's entry
    lanes: list[tuple[ArrivalLane, list]] = []  # lane, [base, k, last]

    def callback(eid: int) -> None:
        fired.append((eid, sim.now))
        target = model.on_fire.get(eid)
        if target is not None:
            sim.cancel(entries[target])

    def schedule(time: float, target: int | None = None) -> None:
        eid = len(entries)
        entries.append(sim.schedule(time, callback, eid))
        model.schedule(eid, time, model.seq)
        assert entries[eid][1] == model.seq
        model.seq += 1
        if target is not None and target < eid:
            model.on_fire[eid] = eid - 1 - target

    for op in ops:
        kind = op[0]
        if kind == "schedule":
            schedule(sim.now + op[1], op[2])
        elif kind == "schedule_many":
            for i in range(op[1]):
                schedule(sim.now + op[2] * (i % 3))
        elif kind == "open_lane":
            lanes.append((sim.open_lane(), [model.seq, 0, 0.0]))
            model.seq += ArrivalLane._SPAN
        elif kind == "lane":
            if not lanes:
                continue
            lane, state = lanes[op[1] % len(lanes)]
            base, k, last = state
            time = max(last, sim.now) + op[2]
            eid = len(entries)
            entries.append(lane.schedule(time, callback, eid))
            # The lane's k-th event takes the k-th number of its block.
            assert entries[eid][1] == base + k
            model.schedule(eid, time, base + k)
            state[1:] = [k + 1, time]
        elif kind == "cancel":
            if not entries:
                continue
            eid = op[1] % len(entries)
            sim.cancel(entries[eid])
            model.cancel(eid)
            assert entries[eid][2] is None
        elif kind == "cancel_every":
            for eid in range(0, len(entries), op[1]):
                sim.cancel(entries[eid])
                model.cancel(eid)
        elif kind == "run":
            until = None if op[1] is None else sim.now + op[1]
            sim.run(until=until, max_events=op[2])
            model.run(until, op[2])
        else:
            assert sim.step() is model.step()
        check(sim, model, fired)

    sim.run()
    model.run(None, None)
    check(sim, model, fired)
    assert not sim._heap and sim.pending_events == 0
    # Every event fired at most once, and every one that did not fire
    # was cancelled (the model only fires events it never cancelled).
    assert len({eid for eid, _ in fired}) == len(fired)
    assert all(entry[2] is None for entry in entries)

