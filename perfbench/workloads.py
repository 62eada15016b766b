"""The benchmark workloads and ``run_once``, which measures one run.

Every workload is a fixed input built from a seed: an open-loop arrival
schedule in *simulated* time, replayed by the batch simulator as fast as
it can.  The metric is work completed per wall second at that size.
``scale`` shrinks every trace (the tests use tiny sizes); the benchmark
itself always runs at ``scale=1``.

Why each workload exists, and which layer it stresses, is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

from . import layers
from .probes import HostSampler, Patches, PhaseClock, Tracer

#: Trace seconds per workload at scale 1.
STREAM_SECONDS = 20.0  # 5000 req/s -> 100k streamed arrivals
DAG_SECONDS = 120.0  # ~36.8k requests, ~133k events
SWEEP_SECONDS = 8.0  # per cell; 4 apps x 2 policies x 2 seeds = 16 cells
LLM_SECONDS = 300.0  # ~12.7k requests, ~277k events

SWEEP_APPS = ("tm", "lv", "gm", "da")
SWEEP_POLICIES = ("PARD", "Naive")


@dataclass
class Outcome:
    """What one workload run produced, before phase timings are added."""

    counters: dict
    digest: str
    wall_s: float
    cpu_s: float
    #: Wall time of a warm pass; None where the workload has none.
    warm_wall_s: float | None = None
    #: Host speed sampled during the warm pass (see ``HostSampler``).
    warm_host: HostSampler | None = None
    attempted: int = 1
    failed: int = 0
    info: dict = field(default_factory=dict)


def stream_overload_spec(seed: int, scale: float = 1.0) -> dict:
    return {
        "name": "stream-overload",
        "app": {"name": "tm"},
        "trace": {
            "name": "constant",
            "duration": STREAM_SECONDS * scale,
            "base_rate": 5000.0,
            "stream": True,
        },
        "policy": "PARD",
        "workers": 8,
        "seed": seed,
    }


def dag_burst_spec(seed: int, scale: float = 1.0) -> dict:
    duration = DAG_SECONDS * scale
    return {
        "name": "dag-burst",
        "app": {"name": "da"},
        "trace": {
            "name": "tweet",
            "duration": duration,
            "bursts": [
                {"start": 0.4 * duration, "length": 0.2 * duration, "factor": 2.0}
            ],
        },
        "policy": "PARD",
        "utilization": 0.95,
        "workers": 4,
        "seed": seed,
    }


def llm_shared_spec(seed: int, scale: float = 1.0) -> dict:
    duration = LLM_SECONDS * scale
    return {
        "name": "llm-shared",
        "tenants": [
            {
                "weight": 1.0,
                "scenario": {
                    "name": "chat",
                    "app": {"name": "llm-chat"},
                    "policy": "PARD",
                    # Poisson, not the tweet shape: tweet's bursts are
                    # seed-dependent and swung the event count by +-16%
                    # across seeds, which would read as a speed change.
                    "trace": {"name": "poisson", "duration": duration, "base_rate": 30},
                    "goodput": {"ttft": 0.35, "tpot": 0.005, "e2e": 8.0},
                },
            },
            {
                "weight": 1.0,
                "scenario": {
                    "name": "rag",
                    "app": {"name": "rag-agentic"},
                    "policy": "PARD",
                    "trace": {"name": "poisson", "duration": duration, "base_rate": 12},
                    "router": {
                        "kind": "probabilistic",
                        "weights": {"rerank": 0.6, "generate_direct": 0.4},
                    },
                    "goodput": {"ttft": 1.0, "e2e": 10.0},
                },
            },
        ],
        "seed": seed,
    }


def sweep_cell_specs(seed: int, scale: float = 1.0) -> list[dict]:
    """Scenario dicts of the sweep-cache grid, in grid order.

    Cells replay constant arrivals plus a 1 s burst whose start and extra
    arrivals come from the seed, so every seed does nearly the same work.
    Random base traces are calibrated on an 8 s pilot of the same seed,
    whose sampling noise moved the grid's request count by +-7% from seed
    to seed.
    """
    return [
        {
            "name": "cell",
            "app": {"name": app},
            "trace": {
                "name": "constant",
                "duration": SWEEP_SECONDS * scale,
                "bursts": [{"start": (0.25 + 0.125 * (cell_seed % 4)) * SWEEP_SECONDS * scale,
                            "length": 0.125 * SWEEP_SECONDS * scale, "factor": 1.5}],
            },
            "policy": policy,
            "utilization": 0.95,
            "workers": 4,
            "seed": cell_seed,
        }
        for cell_seed in (seed, seed + 1)
        for app in SWEEP_APPS
        for policy in SWEEP_POLICIES
    ]


def digest_of(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def summary_counters(summaries) -> dict:
    """Deterministic counters summed over one or more ``Summary``s."""
    return {
        "requests": sum(s.total for s in summaries),
        "completed": sum(s.completed for s in summaries),
        "good": sum(s.good for s in summaries),
        "dropped": sum(s.dropped for s in summaries),
        # repr keeps every digit: the counters must repeat exactly.
        "goodput": repr(sum(s.goodput for s in summaries)),
    }


def _single(spec_fn: Callable[[int, float], dict], lean: bool):
    def run(seed: int, scale: float, work_dir: Path, sample_host: bool) -> Outcome:
        from repro.experiments import runner
        from repro.experiments.scenario import Scenario

        t0, c0 = perf_counter(), process_time()
        result = runner.run_scenario(Scenario.from_dict(spec_fn(seed, scale)), lean=lean)
        wall, cpu = perf_counter() - t0, process_time() - c0
        payload = {"summary": asdict(result.summary),
                   "goodput": result.goodput and result.goodput.to_dict()}
        return Outcome(summary_counters([result.summary]), digest_of(payload), wall, cpu)

    return run


def _multi(spec_fn: Callable[[int, float], dict]):
    def run(seed: int, scale: float, work_dir: Path, sample_host: bool) -> Outcome:
        from repro.experiments import runner
        from repro.experiments.scenario import MultiScenario

        t0, c0 = perf_counter(), process_time()
        result = runner.run_multi_scenario(MultiScenario.from_dict(spec_fn(seed, scale)))
        wall, cpu = perf_counter() - t0, process_time() - c0
        payload = {
            "aggregate": asdict(result.aggregate),
            "per_app": {k: asdict(v) for k, v in result.summaries.items()},
            "goodput": {k: v and v.to_dict() for k, v in result.goodputs.items()},
        }
        return Outcome(summary_counters([result.aggregate]), digest_of(payload), wall, cpu)

    return run


def run_sweep_cache(
    seed: int, scale: float, work_dir: Path, sample_host: bool = False,
    extra_cells: tuple = (),
) -> Outcome:
    """A cold pass into a fresh cache directory, then a warm pass.

    ``extra_cells`` appends scenario dicts to the grid (the tests inject a
    failing cell this way).  An error cell and a warm cell that misses the
    cache or disagrees with its cold result each count as failed.  With
    ``sample_host`` each warm cache load is a host-sampling slice: the
    warm pass runs no simulation to slice.
    """
    from repro.experiments import sweep
    from repro.experiments.scenario import Scenario

    cache_dir = work_dir / "sweep-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    warm_host = HostSampler() if sample_host else None
    try:
        t0, c0 = perf_counter(), process_time()
        cells = sweep.scenario_cells(
            Scenario.from_dict(s) for s in [*sweep_cell_specs(seed, scale), *extra_cells]
        )
        cold = sweep.run_sweep(cells, workers=1, cache_dir=cache_dir)
        wall, cpu = perf_counter() - t0, process_time() - c0
        cache_bytes = sum(p.stat().st_size for p in cache_dir.rglob("*.pkl"))
        patches = Patches()
        if warm_host is not None:
            patches.replace(sweep.SweepCache, "load",
                            warm_host.around(sweep.SweepCache.load))
        try:
            t1 = perf_counter()
            warm = sweep.run_sweep(cells, workers=1, cache_dir=cache_dir)
            warm_wall = perf_counter() - t1
        finally:
            patches.undo()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    cold_payload = sweep.summaries_payload(cold)
    warm_payload = sweep.summaries_payload(warm)
    hits = sum(r.cached for r in warm)
    failed = sum(not r.ok for r in cold) + sum(
        not (w.cached and wp == cp)
        for w, wp, cp in zip(warm, warm_payload, cold_payload)
    )
    summaries = [r.summary for r in cold if r.ok]
    return Outcome(
        summary_counters(summaries),
        digest_of(cold_payload),
        wall,
        cpu,
        warm_wall_s=warm_wall - (warm_host.probe_ns / 1e9 if warm_host else 0.0),
        warm_host=warm_host,
        attempted=len(cold) + len(warm),
        failed=failed,
        info={"cache_bytes": cache_bytes, "hit_frac": hits / len(warm)},
    )


#: name -> run(seed, scale, work_dir, sample_host) -> Outcome.  Simulation
#: slices are host-sampled by the phase clock; ``sample_host`` only
#: matters to work done outside the simulator (the warm pass).
WORKLOADS: dict[str, Callable[[int, float, Path, bool], Outcome]] = {
    "stream-overload": _single(stream_overload_spec, lean=True),
    "dag-burst": _single(dag_burst_spec, lean=False),
    "sweep-cache": run_sweep_cache,
    "llm-shared": _multi(llm_shared_spec),
}


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(
    name: str,
    seed: int,
    work_dir: Path,
    scale: float = 1.0,
    trace: bool = False,
    sample_host: bool = False,
) -> dict:
    """Run one workload in this process and return its measurements.

    The phase clock stays installed for every run (a few calls per
    scenario).  ``sample_host=True`` probes the host's speed between
    simulation slices and reports ``host_factor`` (see
    :class:`~perfbench.probes.PhaseClock`); probe time is taken out of
    ``wall_s`` and ``cpu_s``.  ``trace=True`` also installs the per-layer
    probes and adds ``layers`` (metrics), ``call_counts`` and ``spans``.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    clock = PhaseClock(HostSampler() if sample_host else None).install()
    tracer = clusters = None
    try:
        if trace:
            tracer = Tracer()
            clusters = layers.install(tracer)
        clock.open_setup()
        outcome = WORKLOADS[name](seed, scale, work_dir, sample_host)
    finally:
        # Tracer wrappers sit on top of the clock's: undo them first.
        if tracer is not None:
            tracer.patches.undo()
        clock.patches.undo()
    sim_s = clock.sim_ns / 1e9
    host = clock.host or HostSampler()
    warm_host = outcome.warm_host or host
    # The clock's probes run inside the measured (cold) pass only.
    wall_s = outcome.wall_s - host.probe_ns / 1e9
    result = {
        "workload": name,
        "seed": seed,
        "wall_s": wall_s,
        "cpu_s": outcome.cpu_s - host.probe_cpu_ns / 1e9,
        "warm_wall_s": wall_s if outcome.warm_wall_s is None else outcome.warm_wall_s,
        "host_factor": host.factor,
        "warm_host_factor": warm_host.factor,
        "setup_s": clock.setup_ns / 1e9,
        "simulate_s": sim_s,
        "summarize_s": clock.summarize_ns / 1e9,
        "sim_req_per_s": outcome.counters["requests"] / sim_s if sim_s > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "counters": {"events": clock.events, **outcome.counters},
        "digest": outcome.digest,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "info": outcome.info,
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, clusters, result)
        result["call_counts"] = tracer.call_counts()
        result["spans"] = {
            span: [s.calls, s.total_ns, s.self_ns]
            for span, s in sorted(tracer.spans.items())
        }
    return result
