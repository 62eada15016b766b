"""Lazy replay: pump equivalence, bounded memory, error reporting."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.simulation.engine import Simulator
from repro.workload.generators import get_trace
from repro.workload.replay import ArrivalPump
from repro.workload.source import ConstantSource, TraceSource


class TestArrivalPump:
    def test_submits_every_arrival_in_order(self):
        trace = get_trace("poisson", base_rate=50.0, duration=10.0, seed=2)
        sim = Simulator()
        seen: list[float] = []
        pump = ArrivalPump(trace, seen.append, sim.open_lane())
        pump.prime()
        sim.run()
        assert pump.submitted == len(trace)
        assert seen == list(trace.arrivals)

    def test_source_and_trace_streams_match(self):
        trace = get_trace("tweet", base_rate=60.0, duration=15.0, seed=1)

        def drive(workload) -> list[float]:
            sim = Simulator()
            seen: list[float] = []
            ArrivalPump(workload, seen.append, sim.open_lane()).prime()
            sim.run()
            return seen

        assert drive(trace) == drive(TraceSource(trace))

    def test_empty_stream_is_noop(self):
        sim = Simulator()
        pump = ArrivalPump([], lambda t: None, sim.open_lane()).prime()
        sim.run()
        assert pump.submitted == 0

    def test_one_pending_event_per_pump(self):
        trace = get_trace("constant", base_rate=100.0, duration=50.0, seed=0)
        sim = Simulator()
        ArrivalPump(trace, lambda t: None, sim.open_lane()).prime()
        # Eager replay would hold 5000 pending events here; the pump
        # holds exactly one.
        assert sim.pending_events == 1


class TestFlatMemory:
    def test_streamed_replay_peak_is_flat(self):
        """Peak memory of a streamed replay is independent of n.

        200k arrivals pumped through the engine must not allocate
        per-arrival state: the eager pipeline held the full float64
        array plus one heap entry per arrival (> 20 MB at this size);
        the streaming pipeline holds one chunk and one pending event.
        """

        def peak_bytes(n_arrivals: int) -> int:
            rate = 1000.0
            source = ConstantSource(rate, n_arrivals / rate)
            sim = Simulator()
            counter = {"n": 0}

            def submit(t: float) -> None:
                counter["n"] += 1

            tracemalloc.start()
            try:
                ArrivalPump(source, submit, sim.open_lane()).prime()
                sim.run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert counter["n"] == n_arrivals
            return peak

        small = peak_bytes(20_000)
        large = peak_bytes(200_000)
        # Flat: 10x the arrivals must not grow the peak meaningfully.
        # (A per-arrival leak of even one float would add ~1.4 MB.)
        assert large < small + 512 * 1024
        # And absolutely bounded far below the materialized footprint.
        assert large < 8 * 1024 * 1024


class TestNoArrivalsError:
    def test_message_reports_name_not_repr(self):
        from repro.experiments.runner import ExperimentConfig
        from repro.experiments.scenario import Scenario
        from repro.workload.generators import TRACES, register_trace
        from repro.workload.trace import Trace
        import numpy as np

        name = "empty-for-error-test"

        @register_trace(name)
        def empty(base_rate, duration, seed=0, name=name, **kwargs):
            return Trace(name, np.empty(0), duration)

        try:
            config = ExperimentConfig(Scenario(
                app={"name": "lv"}, trace={"name": name, "duration": 10.0},
                utilization=0.9,
            ))
            with pytest.raises(ValueError) as err:
                config.resolve_base_rate()
        finally:
            TRACES.pop(name, None)
        message = str(err.value)
        assert name in message
        assert "no arrivals" in message
        # The old message embedded repr(trace); the fix reports the
        # trace by name and pilot size only.
        assert "Trace(" not in message
        assert "array(" not in message
