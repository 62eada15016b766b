"""Per-layer probes of the traced run and the metrics derived from them.

``install`` wraps each layer's public functions (class or module level)
with a :class:`~perfbench.probes.Tracer`; ``layer_metrics`` turns the
tracer's spans, the clusters the run built and the phase clock into the
``<module>.<metric>`` names declared in ``BENCHMARK.json``.  Every
declared name is emitted on every workload, as 0 where the layer does
not run.  ``*_ns`` is mean self time per call, ``*_calls`` exact counts.
"""

from __future__ import annotations

#: Event callbacks counted by name; any other callback counts as "other".
CALLBACKS = (
    "ArrivalPump._fire",
    "Worker._finish_batch",
    "LLMWorker._finish_step",
    "Cluster._tick",
    "SharedCluster._tick",
)

LAYER_METRICS = (
    ("simulation.engine.events", "count"),
    ("simulation.engine.run_self_s", "s"),
    *((f"simulation.engine.events_by_callback.{c}", "count") for c in CALLBACKS),
    ("simulation.engine.events_by_callback.other", "count"),
    ("workload.source.chunks_s", "s"),
    ("workload.source.arrivals", "count"),
    ("simulation.dispatcher.pick_calls", "count"),
    ("simulation.dispatcher.pick_ns", "ns"),
    ("simulation.dispatcher.pick_candidates", "count"),
    ("core.depq.push_calls", "count"),
    ("core.depq.pop_calls", "count"),
    ("core.depq.push_ns", "ns"),
    ("core.depq.pop_ns", "ns"),
    ("core.depq.len_max", "count"),
    ("simulation.worker.enqueue_calls", "count"),
    ("simulation.worker.enqueue_self_ns", "ns"),
    ("simulation.worker.batches", "count"),
    ("simulation.worker.batch_size_mean", "count"),
    ("simulation.worker.busy_frac", "fraction"),
    ("simulation.worker.skipped_frac", "fraction"),
    ("core.policy.should_drop_calls", "count"),
    ("core.policy.should_drop_ns", "ns"),
    ("core.policy.drops", "count"),
    ("core.policy.on_tick_calls", "count"),
    ("core.policy.on_tick_ms", "ms"),
    ("core.policy.wasted_gpu_frac", "fraction"),
    ("simulation.stats.record_calls", "count"),
    ("simulation.stats.record_ns", "ns"),
    ("simulation.stats.rate_ns", "ns"),
    ("simulation.cluster.on_module_done_calls", "count"),
    ("simulation.cluster.on_module_done_self_ns", "ns"),
    ("simulation.cluster.drop_calls", "count"),
    ("simulation.tenancy.submit_calls", "count"),
    ("simulation.tenancy.submit_self_ns", "ns"),
    ("simulation.llm.enqueue_calls", "count"),
    ("simulation.llm.enqueue_self_ns", "ns"),
    ("simulation.llm.skipped_frac", "fraction"),
    ("metrics.collector.record_request_calls", "count"),
    ("metrics.collector.record_request_ns", "ns"),
    ("experiments.runner.validate_s", "s"),
    ("experiments.runner.calibrate_s", "s"),
    ("experiments.runner.build_s", "s"),
    ("experiments.runner.simulate_s", "s"),
    ("experiments.runner.summarize_s", "s"),
    ("experiments.sweep.execute_cell_s", "s"),
    ("experiments.sweep.cache_store_s", "s"),
    ("experiments.sweep.cache_load_s", "s"),
    ("experiments.sweep.cache_bytes", "bytes"),
    ("experiments.sweep.hit_frac", "fraction"),
    ("tracing.overhead_s", "s"),
)


def install(tracer) -> list:
    """Wrap every probed function; returns the list that collects the
    clusters the run starts (read by :func:`layer_metrics`)."""
    from repro.core.policy import PardPolicy
    from repro.core.priority import DeadlineDepqQueue
    from repro.experiments import runner, sweep
    from repro.experiments.scenario import MultiScenario, Scenario
    from repro.metrics.collector import MetricsCollector
    from repro.simulation.cluster import Cluster, RequestFlow
    from repro.simulation.dispatcher import LeastLoadedDispatcher
    from repro.simulation.engine import ArrivalLane, Simulator
    from repro.simulation.llm import LLMWorker
    from repro.simulation.stats import RateMeter, WindowedSamples
    from repro.simulation.tenancy import SharedCluster, TenantView
    from repro.simulation.worker import Worker
    from repro.workload.source import ArrivalSource

    from .probes import defining_classes

    patch, count, counters = tracer.patch, tracer.count, tracer.counters

    # Engine: the loop itself, and every event callback by qualname.
    patch(Simulator, "run", "simulation.engine.run")
    for owner in (Simulator, ArrivalLane):
        original = owner.__dict__["schedule"]

        def schedule(self, time, callback, *args, _original=original):
            return _original(self, time, tracer.wrap_callback(callback), *args)

        tracer.patches.replace(owner, "schedule", schedule)

    for cls in defining_classes(ArrivalSource, "chunks"):
        tracer.patch_generator(cls, "chunks", "workload.source.chunks")

    def picked(args, result):
        count("dispatcher.candidates", len(args[1]))

    patch(LeastLoadedDispatcher, "pick", "simulation.dispatcher.pick", picked)

    def pushed(args, result):
        n = len(args[0])
        if n > counters.get("depq.len_max", 0):
            counters["depq.len_max"] = n

    patch(DeadlineDepqQueue, "push", "core.depq.push", pushed)
    patch(DeadlineDepqQueue, "pop", "core.depq.pop")
    patch(Worker, "enqueue", "simulation.worker.enqueue")
    patch(LLMWorker, "enqueue", "simulation.llm.enqueue")

    def decided(args, result):
        if result is not None:
            count("policy.drops")

    patch(PardPolicy, "should_drop", "core.policy.should_drop", decided)
    patch(PardPolicy, "on_tick", "core.policy.on_tick")
    patch(WindowedSamples, "record", "simulation.stats.record")
    patch(RateMeter, "rate", "simulation.stats.rate")
    patch(RequestFlow, "on_module_done", "simulation.cluster.on_module_done")
    patch(RequestFlow, "drop", "simulation.cluster.drop")
    patch(TenantView, "submit", "simulation.tenancy.submit")
    patch(MetricsCollector, "record_request", "metrics.collector.record_request")

    patch(Scenario, "validate", "experiments.runner.validate")
    patch(MultiScenario, "validate", "experiments.runner.validate")
    patch(runner.ExperimentConfig, "resolve_base_rate", "experiments.runner.calibrate")

    # run_sweep calls execute_cell through the sweep module's global.
    patch(sweep, "execute_cell", "experiments.sweep.execute_cell")
    patch(sweep.SweepCache, "store", "experiments.sweep.cache_store")
    patch(sweep.SweepCache, "load", "experiments.sweep.cache_load")

    clusters: list = []

    def started(args, result):
        clusters.append(args[0])

    patch(Cluster, "start_ticks", "simulation.cluster.start_ticks", started)
    patch(SharedCluster, "start_ticks", "simulation.tenancy.start_ticks", started)
    return clusters


def _workers(clusters):
    """(worker, run end time) for every worker the run's clusters hold."""
    for cluster in clusters:
        for module in cluster.modules.values():
            for worker in module.workers:
                yield worker, cluster.sim.now


def _collectors(clusters):
    for cluster in clusters:
        tenants = getattr(cluster, "tenants", None)
        if tenants is None:
            yield cluster.metrics
        else:
            yield from (t.metrics for t in tenants.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, clusters: list, run: dict) -> dict[str, float]:
    """Every declared per-layer metric except ``tracing.overhead_s``.

    ``run`` is the traced run's measurement dict from
    :func:`perfbench.workloads.run_once` (phase times, sweep cache info).
    """
    from repro.simulation.llm import LLMWorker

    spans, counters = tracer.spans, tracer.counters

    def calls(name: str) -> int:
        s = spans.get(name)
        return s.calls if s else 0

    def self_s(name: str) -> float:
        s = spans.get(name)
        return s.self_ns / 1e9 if s else 0.0

    def total_s(name: str) -> float:
        s = spans.get(name)
        return s.total_ns / 1e9 if s else 0.0

    def mean_ns(name: str) -> float:
        s = spans.get(name)
        return _ratio(s.self_ns, s.calls) if s else 0.0

    out: dict[str, float] = {}
    by_callback = {
        name[len("callback:"):]: s.calls
        for name, s in spans.items() if name.startswith("callback:")
    }
    out["simulation.engine.events"] = sum(by_callback.values())
    out["simulation.engine.run_self_s"] = self_s("simulation.engine.run")
    for cb in CALLBACKS:
        out[f"simulation.engine.events_by_callback.{cb}"] = by_callback.pop(cb, 0)
    out["simulation.engine.events_by_callback.other"] = sum(by_callback.values())

    out["workload.source.chunks_s"] = self_s("workload.source.chunks")
    out["workload.source.arrivals"] = counters.get("workload.source.chunks.arrivals", 0)

    picks = calls("simulation.dispatcher.pick")
    out["simulation.dispatcher.pick_calls"] = picks
    out["simulation.dispatcher.pick_ns"] = mean_ns("simulation.dispatcher.pick")
    out["simulation.dispatcher.pick_candidates"] = _ratio(
        counters.get("dispatcher.candidates", 0), picks)

    out["core.depq.push_calls"] = calls("core.depq.push")
    out["core.depq.pop_calls"] = calls("core.depq.pop")
    out["core.depq.push_ns"] = mean_ns("core.depq.push")
    out["core.depq.pop_ns"] = mean_ns("core.depq.pop")
    out["core.depq.len_max"] = counters.get("depq.len_max", 0)

    # Worker telemetry, split by engine kind.  A worker's "pops" are the
    # requests it took off its queue: executed, dropped or skipped.
    batch = {"batches": 0, "executed": 0, "busy": 0.0, "span": 0.0,
             "skipped": 0, "taken": 0}
    llm = {"skipped": 0, "taken": 0}
    for worker, end in _workers(clusters):
        t = worker.telemetry
        taken = t.executed_requests + t.dropped_requests + t.skipped_cancelled
        if isinstance(worker, LLMWorker):
            llm["skipped"] += t.skipped_cancelled
            llm["taken"] += taken
            continue
        batch["batches"] += t.batches
        batch["executed"] += t.executed_requests
        batch["busy"] += t.busy_time
        batch["span"] += end
        batch["skipped"] += t.skipped_cancelled
        batch["taken"] += taken
    out["simulation.worker.enqueue_calls"] = calls("simulation.worker.enqueue")
    out["simulation.worker.enqueue_self_ns"] = mean_ns("simulation.worker.enqueue")
    out["simulation.worker.batches"] = batch["batches"]
    out["simulation.worker.batch_size_mean"] = _ratio(batch["executed"], batch["batches"])
    out["simulation.worker.busy_frac"] = _ratio(batch["busy"], batch["span"])
    out["simulation.worker.skipped_frac"] = _ratio(batch["skipped"], batch["taken"])

    gpu = wasted = 0.0
    for collector in _collectors(clusters):
        gpu += collector.gpu_time_total
        wasted += collector.wasted_gpu_total
    out["core.policy.should_drop_calls"] = calls("core.policy.should_drop")
    out["core.policy.should_drop_ns"] = mean_ns("core.policy.should_drop")
    out["core.policy.drops"] = counters.get("policy.drops", 0)
    out["core.policy.on_tick_calls"] = calls("core.policy.on_tick")
    out["core.policy.on_tick_ms"] = mean_ns("core.policy.on_tick") / 1e6
    out["core.policy.wasted_gpu_frac"] = _ratio(wasted, gpu)

    out["simulation.stats.record_calls"] = calls("simulation.stats.record")
    out["simulation.stats.record_ns"] = mean_ns("simulation.stats.record")
    out["simulation.stats.rate_ns"] = mean_ns("simulation.stats.rate")

    out["simulation.cluster.on_module_done_calls"] = calls(
        "simulation.cluster.on_module_done")
    out["simulation.cluster.on_module_done_self_ns"] = mean_ns(
        "simulation.cluster.on_module_done")
    out["simulation.cluster.drop_calls"] = calls("simulation.cluster.drop")

    out["simulation.tenancy.submit_calls"] = calls("simulation.tenancy.submit")
    out["simulation.tenancy.submit_self_ns"] = mean_ns("simulation.tenancy.submit")

    out["simulation.llm.enqueue_calls"] = calls("simulation.llm.enqueue")
    out["simulation.llm.enqueue_self_ns"] = mean_ns("simulation.llm.enqueue")
    out["simulation.llm.skipped_frac"] = _ratio(llm["skipped"], llm["taken"])

    out["metrics.collector.record_request_calls"] = calls(
        "metrics.collector.record_request")
    out["metrics.collector.record_request_ns"] = mean_ns(
        "metrics.collector.record_request")

    validate = self_s("experiments.runner.validate")
    calibrate = self_s("experiments.runner.calibrate")
    out["experiments.runner.validate_s"] = validate
    out["experiments.runner.calibrate_s"] = calibrate
    # Set-up is everything before the first simulated event; what is not
    # validation or calibration is trace and cluster construction.
    out["experiments.runner.build_s"] = max(0.0, run["setup_s"] - validate - calibrate)
    out["experiments.runner.simulate_s"] = run["simulate_s"]
    out["experiments.runner.summarize_s"] = run["summarize_s"]

    info = run["info"]
    out["experiments.sweep.execute_cell_s"] = total_s("experiments.sweep.execute_cell")
    out["experiments.sweep.cache_store_s"] = total_s("experiments.sweep.cache_store")
    out["experiments.sweep.cache_load_s"] = total_s("experiments.sweep.cache_load")
    out["experiments.sweep.cache_bytes"] = info.get("cache_bytes", 0)
    out["experiments.sweep.hit_frac"] = info.get("hit_frac", 0.0)
    return out
