"""Isolated layer micro-runs, reported as ``micro.*`` per-layer metrics.

Each micro-run drives one layer's public API on a fixed, seeded input and
reports the median cost of one operation over a few rounds.  They run in
their own interpreter, untraced, next to the traced run.  Names are fixed
(see ``MICRO_METRICS``) so a layer that is gone reads 0, never missing.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

ROUNDS = 5

DEPQ_LENGTHS = (100, 10_000)
PICK_WORKERS = (2, 8, 32)
#: Every policy registered when the benchmark was defined.
POLICIES = (
    "Clipper++", "Naive", "Nexus", "PARD", "PARD-FCFS", "PARD-HBF",
    "PARD-LBF", "PARD-WCL", "PARD-back", "PARD-instant", "PARD-lower",
    "PARD-oc", "PARD-sf", "PARD-split", "PARD-upper",
)
SOURCES = (
    "constant", "generator", "scaled", "burst_up", "burst_down",
    "slice", "concat", "splice",
)


def metric_suffix(name: str) -> str:
    """A policy name as a metric-name suffix (``Clipper++`` -> ``Clipperpp``)."""
    return name.replace("+", "p")


MICRO_METRICS = (
    *((f"micro.depq.{op}_ns.n{n}", "ns") for n in DEPQ_LENGTHS for op in ("push", "pop")),
    *((f"micro.dispatcher.pick_ns.w{w}", "ns") for w in PICK_WORKERS),
    ("micro.stats.record_ns", "ns"),
    ("micro.stats.weighted_average_ns", "ns"),
    *((f"micro.policy.should_drop_ns.{metric_suffix(p)}", "ns") for p in POLICIES),
    *((f"micro.source.chunks_ns_per_arrival.{s}", "ns") for s in SOURCES),
    ("micro.collector.record_request_ns.lean", "ns"),
    ("micro.collector.record_request_ns.full", "ns"),
    ("micro.sweep.execute_cell_s", "s"),
    ("micro.sweep.cache_store_ms", "ms"),
    ("micro.sweep.cache_load_ms", "ms"),
    ("micro.sweep.cache_bytes", "bytes"),
)


def _median_ns_per_op(fn, ops: int, rounds: int = ROUNDS) -> float:
    """Median over ``rounds`` of ``fn()``'s time divided by ``ops``.

    ``fn`` returns its own elapsed nanoseconds, so per-round set-up stays
    outside the timed region.
    """
    return statistics.median(fn() / ops for _ in range(rounds))


def _tiny_cluster(policy: str, workers: int, seed: int):
    """A bound cluster after a short real run (warm policy state)."""
    from repro.experiments.runner import run_scenario
    from repro.experiments.scenario import Scenario

    spec = {
        "name": "micro",
        "app": {"name": "tm"},
        "trace": {"name": "poisson", "duration": 3.0, "base_rate": 40.0},
        "policy": policy,
        "workers": workers,
        "seed": seed,
    }
    return run_scenario(Scenario.from_dict(spec), lean=True).cluster


def _timer_floor_ns() -> float:
    """Median cost of one back-to-back ``perf_counter_ns`` pair."""
    samples = []
    for _ in range(2000):
        t0 = perf_counter_ns()
        samples.append(perf_counter_ns() - t0)
    return statistics.median(samples)


def depq(seed: int) -> dict[str, float]:
    """``DeadlineDepqQueue`` push and pop at a steady queue length.

    Each step pushes one request and pops one, so the length stays at
    ``n``; half the steps use a queue popping the low-budget end, half one
    popping the high-budget end.  Each call is timed on its own, less the
    cost of reading the clock.
    """
    import random

    from repro.core.priority import AdaptivePriorityController, DeadlineDepqQueue
    from repro.simulation.request import Request

    rng = random.Random(seed)
    module = SimpleNamespace(spec=SimpleNamespace(id="m"))
    floor = _timer_floor_ns()
    ops = 4000
    out = {}
    for n in DEPQ_LENGTHS:
        requests = [Request(sent_at=rng.random() * 100.0, slo=0.3)
                    for _ in range(n + ops)]
        push_ns, pop_ns = [], []
        for _ in range(ROUNDS):
            queues = [DeadlineDepqQueue(module, AdaptivePriorityController(mode))
                      for mode in ("lbf", "hbf")]
            for q in queues:
                for r in requests[:n]:
                    q.push(r, 0.0)
            push_total = pop_total = 0
            for i, r in enumerate(requests[n:]):
                q = queues[i & 1]
                t0 = perf_counter_ns()
                q.push(r, 0.0)
                t1 = perf_counter_ns()
                q.pop(0.0)
                t2 = perf_counter_ns()
                push_total += t1 - t0
                pop_total += t2 - t1
            push_ns.append(push_total / ops - floor)
            pop_ns.append(pop_total / ops - floor)
        out[f"micro.depq.push_ns.n{n}"] = statistics.median(push_ns)
        out[f"micro.depq.pop_ns.n{n}"] = statistics.median(pop_ns)
    return out


def dispatcher(seed: int) -> dict[str, float]:
    """``LeastLoadedDispatcher.pick`` over pools of unequal load."""
    import random

    from repro.simulation.request import Request

    rng = random.Random(seed)
    ops = 5000
    out = {}
    for w in PICK_WORKERS:
        module = _tiny_cluster("PARD", w, seed).modules["m1"]
        for worker in module.workers:
            for _ in range(rng.randrange(4)):
                worker.queue.push(Request(sent_at=rng.random(), slo=0.3), 0.0)
        pick, workers = module.dispatcher.pick, module.workers

        def round_():
            t0 = perf_counter_ns()
            for _ in range(ops):
                pick(workers)
            return perf_counter_ns() - t0

        out[f"micro.dispatcher.pick_ns.w{w}"] = _median_ns_per_op(round_, ops)
    return out


def stats(seed: int) -> dict[str, float]:
    """``WindowedSamples.record`` and ``weighted_average`` on a 5 s window
    holding ~5000 samples (one per simulated millisecond)."""
    import random

    from repro.simulation.stats import WindowedSamples

    rng = random.Random(seed)
    ops = 20_000
    values = [rng.random() for _ in range(ops)]
    floor = _timer_floor_ns()

    def record_round():
        samples = WindowedSamples(5.0)
        t0 = perf_counter_ns()
        for i, v in enumerate(values):
            samples.record(i * 0.001, v)
        return perf_counter_ns() - t0

    def average_round():
        samples = WindowedSamples(5.0)
        elapsed = 0
        for i, v in enumerate(values):
            samples.record(i * 0.001, v)
            t0 = perf_counter_ns()
            samples.weighted_average(i * 0.001)
            elapsed += perf_counter_ns() - t0
        return elapsed - floor * ops

    return {
        "micro.stats.record_ns": _median_ns_per_op(record_round, ops),
        "micro.stats.weighted_average_ns": _median_ns_per_op(average_round, ops),
    }


def policies(seed: int) -> dict[str, float]:
    """``should_drop`` of every registered policy on a warmed cluster."""
    from repro.interfaces import DropContext
    from repro.policies.registry import POLICIES as REGISTERED
    from repro.simulation.request import Request

    ops = 2000
    out = {}
    for name in POLICIES:
        key = f"micro.policy.should_drop_ns.{metric_suffix(name)}"
        if name not in REGISTERED:
            out[key] = 0.0
            continue
        cluster = _tiny_cluster(name, 2, seed)
        module = cluster.modules["m1"]
        now = cluster.sim.now
        request = Request(sent_at=now - 0.05, slo=cluster.slo)
        request.begin_visit("m1", now)
        ctx = DropContext(
            request=request, module=module, worker=module.workers[0], now=now,
            expected_start=now + 0.01, batch_duration=module.planned_duration,
            slo=request.slo,
        )
        should_drop = cluster.policy.should_drop

        def round_():
            t0 = perf_counter_ns()
            for _ in range(ops):
                should_drop(ctx)
            return perf_counter_ns() - t0

        out[key] = _median_ns_per_op(round_, ops)
    return out


def sources(seed: int) -> dict[str, float]:
    """Time to exhaust ``chunks()`` of each source and transform, per
    arrival yielded."""
    from repro.workload.generators import stream_trace
    from repro.workload.source import ConstantSource, concat_sources

    base = ConstantSource(rate=2000.0, duration=50.0)  # 100k arrivals
    built = {
        "constant": base,
        "generator": stream_trace("tweet", base_rate=2000.0, duration=50.0, seed=seed),
        "scaled": base.scaled(0.5),
        "burst_up": base.overlay_burst(10.0, 10.0, 2.0, seed=seed),
        "burst_down": base.overlay_burst(10.0, 10.0, 0.5, seed=seed),
        "slice": base.slice(10.0, 40.0),
        "concat": concat_sources([base.slice(0.0, 25.0), base.slice(25.0, 50.0)]),
        "splice": base.spliced(ConstantSource(rate=1000.0, duration=10.0), 20.0),
    }
    out = {}
    for name in SOURCES:
        source = built[name]
        arrivals = sum(int(c.size) for c in source.chunks())

        def round_():
            t0 = perf_counter_ns()
            for _ in source.chunks():
                pass
            return perf_counter_ns() - t0

        out[f"micro.source.chunks_ns_per_arrival.{name}"] = _median_ns_per_op(
            round_, max(arrivals, 1))
    return out


def collector(seed: int) -> dict[str, float]:
    """``MetricsCollector.record_request`` of terminal three-hop requests."""
    import random

    from repro.metrics.collector import MetricsCollector
    from repro.simulation.request import DropReason, Request

    rng = random.Random(seed)
    requests = []
    for i in range(5000):
        t = i * 0.01
        request = Request(sent_at=t, slo=0.3)
        for hop, mid in enumerate(("m1", "m2", "m3")):
            visit = request.begin_visit(mid, t + 0.02 * hop)
            visit.t_batched = visit.t_received + 0.001
            visit.t_exec_start = visit.t_batched + 0.005
            visit.t_exec_end = visit.t_exec_start + 0.01
            visit.batch_size = 4
            visit.gpu_time = 0.0025
        if rng.random() < 0.3:
            request.mark_dropped("m3", DropReason.ESTIMATED_VIOLATION, t + 0.06)
        else:
            request.mark_completed(t + rng.uniform(0.05, 0.4))
        requests.append(request)

    def rounds(lean: bool):
        def round_():
            book = MetricsCollector(lean=lean)
            record = book.record_request
            t0 = perf_counter_ns()
            for r in requests:
                record(r)
            return perf_counter_ns() - t0

        return _median_ns_per_op(round_, len(requests))

    return {
        "micro.collector.record_request_ns.lean": rounds(True),
        "micro.collector.record_request_ns.full": rounds(False),
    }


def sweep_round_trip(seed: int, work_dir: Path) -> dict[str, float]:
    """One full-fidelity cell: ``execute_cell``, then cache store and load."""
    from repro.experiments import sweep
    from repro.experiments.scenario import Scenario

    cell = sweep.SweepCell(scenario=Scenario.from_dict({
        "name": "micro-cell",
        "app": {"name": "tm"},
        "trace": {"name": "tweet", "duration": 8.0},
        "policy": "PARD",
        "utilization": 0.95,
        "workers": 4,
        "seed": seed,
    }))
    fingerprint = sweep.cell_fingerprint(cell)
    execute, store, load = [], [], []
    size = 0
    work_dir.mkdir(parents=True, exist_ok=True)
    for _ in range(3):
        with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
            cache = sweep.SweepCache(tmp)
            t0 = perf_counter_ns()
            result = sweep.execute_cell(cell)
            t1 = perf_counter_ns()
            cache.store(fingerprint, result)
            t2 = perf_counter_ns()
            loaded = cache.load(fingerprint)
            t3 = perf_counter_ns()
            if loaded is None or loaded.summary != result.summary:
                raise RuntimeError("sweep cache round trip lost the cell result")
            size = sum(p.stat().st_size for p in Path(tmp).rglob("*.pkl"))
        execute.append(t1 - t0)
        store.append(t2 - t1)
        load.append(t3 - t2)
    return {
        "micro.sweep.execute_cell_s": statistics.median(execute) / 1e9,
        "micro.sweep.cache_store_ms": statistics.median(store) / 1e6,
        "micro.sweep.cache_load_ms": statistics.median(load) / 1e6,
        "micro.sweep.cache_bytes": size,
    }


def run_micro(seed: int, work_dir: Path) -> dict[str, float]:
    """Every ``micro.*`` metric, in declaration order."""
    out: dict[str, float] = {}
    for part in (depq, dispatcher, stats, policies, sources, collector):
        out.update(part(seed))
    out.update(sweep_round_trip(seed, work_dir))
    return {name: out[name] for name, _ in MICRO_METRICS}
