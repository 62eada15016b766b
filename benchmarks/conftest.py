"""Shared fixtures for the figure-reproduction benchmarks.

The heavyweight artifact is the 12-workload x 4-system sweep used by
Figures 8, 9 and 10.  It now runs through the parallel sweep subsystem
(:mod:`repro.experiments.sweep`): figure tests prefetch their whole grid so
the cells fan out over a process pool, and completed cells land in an
on-disk cache keyed by a stable scenario fingerprint, so repeated benchmark
invocations skip everything already computed.

Environment knobs:

* ``REPRO_SWEEP_CACHE`` — ``0`` disables the on-disk cache, any other
  value is used as the cache directory (default: ``benchmarks/.sweep_cache``).
* ``REPRO_SWEEP_WORKERS`` — process-pool size (default: CPU count).

All benchmarks run scaled-down versions of the paper's runs (60-90 s
simulated traces, ~90% provisioned utilization) so the whole suite
finishes in minutes; EXPERIMENTS.md records paper-vs-measured for every
figure.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

import pytest

from repro.experiments import run_scenario, standard_scenario
from repro.experiments.runner import ExperimentResult
from repro.experiments.sweep import CellResult, SweepCell, run_sweep

BENCH_DURATION = 60.0
BENCH_SEED = 0
BENCH_UTIL = 0.9

WorkloadKey = tuple[str, str, str]  # (app, trace, system)


def run_workload(app: str, trace: str, system: str, **overrides) -> ExperimentResult:
    """One (app, trace, system) run with the benchmark defaults.

    Returns the *full* in-process result (live cluster included) for
    benchmarks that poke at cluster internals; grid-shaped figures should
    use the :func:`workload_sweep` fixture instead.
    """
    overrides.setdefault("duration", BENCH_DURATION)
    overrides.setdefault("utilization", BENCH_UTIL)
    return run_scenario(
        standard_scenario(app, trace, system, seed=BENCH_SEED, **overrides)
    )


def _bench_cell(app: str, trace: str, system: str) -> SweepCell:
    return SweepCell(scenario=standard_scenario(
        app, trace, system, seed=BENCH_SEED,
        duration=BENCH_DURATION, utilization=BENCH_UTIL,
    ))


class WorkloadSweep:
    """Lazy, cached access to the benchmark workload grid.

    Calling ``sweep(app, trace, system)`` runs (or cache-loads) a single
    cell; ``sweep.prefetch(keys)`` runs every missing cell through the
    parallel sweep first, so figure tests pay one pool fan-out instead of
    N serial runs.
    """

    def __init__(self, cache_dir: str | None, workers: int | None) -> None:
        self.cache_dir = cache_dir
        self.workers = workers
        self._results: dict[WorkloadKey, CellResult] = {}

    def prefetch(self, keys: Iterable[WorkloadKey]) -> None:
        missing = [k for k in dict.fromkeys(keys) if k not in self._results]
        if not missing:
            return
        results = run_sweep(
            [_bench_cell(*key) for key in missing],
            workers=self.workers,
            cache_dir=self.cache_dir,
        )
        failures = []
        for key, result in zip(missing, results):
            if result.ok:
                self._results[key] = result  # keep paid-for work on failure
            else:
                failures.append((key, result.error))
        if failures:
            details = "\n\n".join(f"{key}:\n{err}" for key, err in failures)
            raise RuntimeError(
                f"{len(failures)}/{len(missing)} sweep cells failed:\n{details}"
            )

    def __call__(self, app: str, trace: str, system: str) -> CellResult:
        key = (app, trace, system)
        if key not in self._results:
            self.prefetch([key])
        return self._results[key]


@pytest.fixture(scope="session")
def workload_sweep() -> WorkloadSweep:
    """Parallel, disk-cached cache over the 12-workload x 4-system sweep."""
    env = os.environ.get("REPRO_SWEEP_CACHE", "").strip()
    if env == "0":
        cache_dir = None
    elif env:
        cache_dir = env
    else:
        cache_dir = str(Path(__file__).parent / ".sweep_cache")
    workers_env = os.environ.get("REPRO_SWEEP_WORKERS", "").strip()
    try:
        workers = int(workers_env) if workers_env else None
    except ValueError:
        raise pytest.UsageError(
            f"REPRO_SWEEP_WORKERS must be an integer, got {workers_env!r}"
        ) from None
    return WorkloadSweep(cache_dir=cache_dir, workers=workers)


def fmt_pct(x: float) -> str:
    return f"{x * 100:6.2f}%"
