"""Timing probes installed from outside the program.

Two instruments, both applied by replacing attributes on the program's
classes and modules, so no source file of the program is edited:

* :class:`PhaseClock` times the phases every run reports (set-up,
  simulation, summary) with a handful of calls per scenario, and can
  sample the host's speed while the simulation runs.  It stays on in the
  timed runs.
* :class:`Tracer` wraps many hot functions and keeps, per span name, the
  call count, total time and self time (total minus the time spent in
  wrapped children).  It is only installed in the separate traced run.

Both keep their numbers in memory; the caller reads them when the run
ends.  ``Patches.undo`` restores every replaced attribute, which the tests
rely on to trace twice in one process.
"""

from __future__ import annotations

import functools
import heapq
import inspect
from time import perf_counter_ns, process_time_ns
from typing import Any, Callable

#: Seconds :func:`host_probe` takes on the undisturbed 2-vCPU VM the
#: benchmark was defined on (CPython 3.11).  Scaled timings are seconds
#: on a host this fast.
HOST_PROBE_S = 0.008
#: Events simulated between two host probes (~0.1-0.3 s of simulation).
SLICE_EVENTS = 10_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: float, value: int) -> None:
        self.key = key
        self.value = value

    def weight(self) -> float:
        return self.key * 0.5


def host_probe() -> None:
    """Fixed interpreter-bound work shaped like the simulator's hot loop:
    slotted objects, a bounded heap, dict writes and method calls."""
    heap: list = []
    recent: dict = {}
    for i in range(8000):
        item = _Item((i * 7919) % 9973 * 0.01, i)
        heapq.heappush(heap, (item.weight(), i, item))
        recent[i & 255] = item
        if len(heap) > 500:
            heapq.heappop(heap)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class HostSampler:
    """The host's speed over a series of measured slices of work.

    The host's speed drifts by up to ~1.8x over seconds to minutes on a
    shared VM, and :func:`host_probe` slows down with it.  The caller
    times each slice and passes it to :meth:`add`, which runs the probe
    after it; the probe before the first slice comes from :meth:`start`.
    :attr:`factor` is the slice-time-weighted mean of
    ``HOST_PROBE_S / probe time``, each slice using the mean of the
    probes on either side.  Probe time is counted in ``probe_ns`` and
    ``probe_cpu_ns`` so callers can keep it out of their timings.
    """

    def __init__(self) -> None:
        self.measured_ns = 0
        self.probe_ns = 0
        self.probe_cpu_ns = 0
        self._scaled_ns = 0.0
        self._last_probe_ns: int | None = None

    @property
    def factor(self) -> float:
        """Multiply a time by this to get seconds on the reference host."""
        return self._scaled_ns / self.measured_ns if self.measured_ns else 1.0

    def _probe(self) -> int:
        t0, c0 = perf_counter_ns(), process_time_ns()
        host_probe()
        elapsed = perf_counter_ns() - t0
        self.probe_ns += elapsed
        self.probe_cpu_ns += process_time_ns() - c0
        return elapsed

    def start(self) -> None:
        if self._last_probe_ns is None:
            self._last_probe_ns = self._probe()

    def add(self, elapsed_ns: int) -> None:
        probe = self._probe()
        self.measured_ns += elapsed_ns
        self._scaled_ns += (elapsed_ns * 2 * HOST_PROBE_S * 1e9
                            / (self._last_probe_ns + probe))
        self._last_probe_ns = probe

    def around(self, fn: Callable) -> Callable:
        """``fn`` with each call measured as one slice."""
        sampler = self

        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            sampler.start()
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                sampler.add(perf_counter_ns() - t0)

        return sampled


class PhaseClock:
    """Set-up, simulation and summary time of scenario runs.

    The set-up interval opens when a workload starts (:meth:`open_setup`)
    and on every ``run_scenario``/``run_multi_scenario`` entry, and closes
    at the next ``Simulator.run`` entry.  Simulation time is the time
    inside ``Simulator.run``; summary time runs from the last
    ``Simulator.run`` exit to the scenario call's return.  ``events`` sums
    the events processed inside ``Simulator.run`` over all simulators.

    With a ``host`` sampler each ``Simulator.run`` call is executed as
    consecutive ``run(until, max_events=SLICE_EVENTS)`` calls, which
    process the same events in the same order, with a host probe between
    slices (see :class:`HostSampler`).  Probe time is kept out of every
    phase.
    """

    def __init__(self, host: HostSampler | None = None) -> None:
        self.host = host
        self.setup_ns = 0
        self.sim_ns = 0
        self.summarize_ns = 0
        self.events = 0
        self.sim_runs = 0
        self._setup_from: int | None = None
        self._last_run_exit: int | None = None
        self.patches = Patches()

    def open_setup(self) -> None:
        if self._setup_from is None:
            self._setup_from = perf_counter_ns()

    def _run_sliced(self, run: Callable, sim, until) -> None:
        self.host.start()
        while True:
            before = sim.processed_events
            t0 = perf_counter_ns()
            run(sim, until, SLICE_EVENTS)
            elapsed = perf_counter_ns() - t0
            self.sim_ns += elapsed
            self.host.add(elapsed)
            if sim.processed_events - before < SLICE_EVENTS:
                return

    def install(self) -> "PhaseClock":
        from repro.experiments import runner, sweep
        from repro.simulation.engine import Simulator

        clock = self
        original_run = Simulator.run

        @functools.wraps(original_run)
        def run(sim, until=None, max_events=None):
            t0 = perf_counter_ns()
            if clock._setup_from is not None:
                clock.setup_ns += t0 - clock._setup_from
                clock._setup_from = None
            before = sim.processed_events
            try:
                if clock.host is not None and max_events is None:
                    clock._run_sliced(original_run, sim, until)
                else:
                    original_run(sim, until, max_events)
                    clock.sim_ns += perf_counter_ns() - t0
            finally:
                clock.sim_runs += 1
                clock.events += sim.processed_events - before
                clock._last_run_exit = perf_counter_ns()

        self.patches.replace(Simulator, "run", run)
        for name in ("run_scenario", "run_multi_scenario"):
            wrapped = self._scenario_entry(getattr(runner, name))
            # sweep.py binds its own names at import; patch both.
            self.patches.replace(runner, name, wrapped)
            self.patches.replace(sweep, name, wrapped)
        return self

    def _scenario_entry(self, fn: Callable) -> Callable:
        clock = self

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            clock.open_setup()
            clock._last_run_exit = None
            result = fn(*args, **kwargs)
            if clock._last_run_exit is not None:
                clock.summarize_ns += perf_counter_ns() - clock._last_run_exit
            return result

        return entry


class SpanStats:
    """Per-span counters: calls, total and self nanoseconds."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Call counts, total and self time of wrapped functions.

    Spans nest through one stack of child-time accumulators: a span's self
    time is its duration minus the durations of the spans that ran inside
    it.  ``counters`` holds extra exact counts that probes add (drops,
    queue lengths, arrivals).
    """

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.patches = Patches()
        self._stack: list[int] = []
        self._chunk_depth = 0

    # -- reading ---------------------------------------------------------

    def span(self, name: str) -> SpanStats:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        return stats

    def count(self, name: str, delta: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def call_counts(self) -> dict[str, int]:
        """Exact, timing-free fingerprint of a traced run."""
        out = {name: s.calls for name, s in self.spans.items()}
        out.update(self.counters)
        return dict(sorted(out.items()))

    # -- wrapping --------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``after(args, result)`` runs on
        return, outside the span, for probes that inspect values."""
        return functools.wraps(fn)(self._timed(self.span(name), fn, after))

    def _timed(
        self,
        stats: SpanStats,
        fn: Callable,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                child = stack.pop()
                stats.calls += 1
                stats.total_ns += elapsed
                stats.self_ns += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with its traced version."""
        self.patches.replace(owner, attr, self.wrap(name, owner.__dict__[attr], after))

    def patch_generator(self, owner: type, attr: str, name: str) -> None:
        """Trace each ``next()`` of the generator ``owner.attr`` returns.

        Arrivals yielded while no other traced generator is being advanced
        are counted under ``<name>.arrivals``: composed sources iterate
        their inner source, and each arrival must count once.
        """
        fn = owner.__dict__[attr]
        stats = self.span(name)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                outermost = tracer._chunk_depth == 0
                tracer._chunk_depth += 1
                stack.append(0)
                t0 = perf_counter_ns()
                try:
                    chunk = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter_ns() - t0
                    child = stack.pop()
                    tracer._chunk_depth -= 1
                    stats.calls += 1
                    stats.total_ns += elapsed
                    stats.self_ns += elapsed - child
                    if stack:
                        stack[-1] += elapsed
                if outermost:
                    tracer.count(f"{name}.arrivals", int(chunk.size))
                yield chunk

        self.patches.replace(owner, attr, traced)

    def wrap_callback(self, callback: Callable) -> Callable:
        """An event callback traced as ``callback:<qualname>``.

        Called once per scheduled event, so it skips ``functools.wraps``.
        """
        qualname = getattr(callback, "__qualname__", None)
        if qualname is None:
            qualname = type(callback).__qualname__
        return self._timed(self.span("callback:" + qualname), callback)


def defining_classes(base: type, attr: str) -> list[type]:
    """``base`` and its subclasses that define ``attr`` themselves."""
    out = []
    todo = [base]
    while todo:
        cls = todo.pop(0)
        if attr in cls.__dict__ and inspect.isfunction(cls.__dict__[attr]):
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out
