"""Experiment harness: one :class:`Scenario` in, metrics out.

Rates are expressed per-run rather than hard-coded so benches can scale the
paper's 64-GPU workloads down to what a CI box simulates in seconds while
keeping the load *regime* (load factor relative to provisioned capacity)
identical — that regime, not the absolute request rate, is what the
dropping policies react to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from typing import Callable, Sequence

from ..interfaces import DropPolicy
from ..metrics.analysis import Summary, merge_collectors, summarize
from ..metrics.collector import MetricsCollector
from ..metrics.goodput import GoodputReport, goodput_report
from ..pipeline.profiles import ProfileRegistry
from ..policies.registry import make_admission, make_policy
from ..simulation.batching import plan_batch_sizes, provision_workers
from ..simulation.cluster import Cluster
from ..simulation.engine import Simulator
from ..simulation.failures import FailureEvent, FailureInjector
from ..simulation.rng import RngStreams
from ..simulation.scaling import ReactiveScaler
from ..simulation.tenancy import SharedCluster, Tenant
from ..workload.generators import TRACES
from ..workload.replay import drive
from ..workload.source import ArrivalSource
from ..workload.trace import Trace
from .scenario import (
    MultiScenario, Scenario, ScalingSpec, TraceSpec, generator_kwargs,
)


@lru_cache(maxsize=256)
def _trace_shape_factor(
    generator: Callable[..., Trace],
    trace: str,
    duration: float,
    seed: int,
    args: tuple = (),
) -> float:
    """Mean-rate-to-base-rate factor of a named trace, memoized.

    Measured on a cheap pilot trace built with the same generator ``args``
    as the real one — shape-changing args (a step trace's rate multipliers,
    a tweet burst override) would otherwise skew calibration badly.
    The generator *object* is part of the key so re-registering a new
    generator under an old name cannot serve a stale shape.  A calibrated
    run consults the shape from ``resolve_base_rate`` *and*
    ``resolve_workers``, and every seed-sharing cell of a sweep grid
    consults the same pilot; without memoization every call re-simulated
    the full-duration pilot.
    """
    kwargs = generator_kwargs(args)
    pilot = generator(
        base_rate=50.0, duration=duration, seed=seed, name=trace, **kwargs
    )
    shape = pilot.mean_rate / 50.0
    if shape <= 0:
        # Report the trace by name and size only — never embed a trace
        # repr, which is unbounded for large materialized workloads.
        raise ValueError(
            f"trace {trace} produced no arrivals in the calibration "
            f"pilot ({len(pilot)} arrivals over {duration:g}s)"
        )
    return shape


def _declared_rate(trace: TraceSpec) -> float:
    """A trace's explicit base rate, or the 60 req/s default."""
    return 60.0 if trace.base_rate is None else trace.base_rate


class ExperimentConfig:
    """Calibration and provisioning of one :class:`Scenario`.

    The runner's private resolution step: the application, profile
    registry and batch plan resolve once, here, and the base rate and
    worker counts are derived from them.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.app = scenario.build_application()
        self.registry = scenario.build_registry()
        self.plan = plan_batch_sizes(self.app.spec, self.registry, self.app.slo)

    def resolve_base_rate(self) -> float:
        """Base rate, calibrated to ``utilization`` of capacity when set.

        The bottleneck module's aggregate throughput defines capacity; the
        trace's mean-rate-to-base-rate shape factor (measured on a cheap
        pilot trace) maps capacity to the generator's ``base_rate`` knob.
        """
        s = self.scenario
        if s.utilization is None:
            return _declared_rate(s.trace)

        def count(module_id: str) -> int:
            # Explicit worker counts cap capacity; without any, calibration
            # assumes the two-worker bottleneck pool resolve_workers builds.
            if isinstance(s.workers, dict):
                return s.workers[module_id]
            if isinstance(s.workers, int):
                return s.workers
            return 2

        capacity = min(
            count(m.id) * self.registry.get(m.model).throughput(self.plan[m.id])
            for m in self.app.spec.modules
        )
        return capacity * s.utilization / self._trace_shape()

    def resolve_workers(
        self, base_rate: float, base: ArrivalSource
    ) -> int | dict[str, int]:
        """Explicit worker counts, or a plan provisioned for the workload.

        ``base`` is the steady workload (bursts excluded): auto-provisioning
        sizes the cluster for it, since seeing the burst-inflated mean
        would de-fang the very overload the scenario declares.
        """
        s = self.scenario
        if s.workers is not None:
            return s.workers
        if s.utilization is not None:
            # Calibrated mode: the bottleneck module gets a two-worker pool
            # at the target utilization; every other module is provisioned
            # so its own utilization lands just below capacity too, the way
            # the paper's per-module scaling keeps all modules near their
            # rate (otherwise drops artificially concentrate at the single
            # bottleneck).
            mean_rate = base_rate * self._trace_shape()
            out: dict[str, int] = {}
            for m in self.app.spec.modules:
                per_worker = self.registry.get(m.model).throughput(self.plan[m.id])
                need = mean_rate / (0.97 * per_worker)
                out[m.id] = max(1, math.ceil(need))
            return out
        return provision_workers(
            self.app.spec, self.registry, self.plan,
            s.provision_rate or base.mean_rate,
            headroom=s.provision_headroom,
        )

    def _trace_shape(self) -> float:
        """Mean-rate-to-base-rate factor of the declared trace.

        Thinning scales the realized mean rate linearly, so it folds
        straight into the shape factor — calibration then targets the
        utilization of the trace actually replayed.
        """
        trace = self.scenario.trace
        generator = TRACES.get(trace.name)
        if generator is None:
            raise KeyError(
                f"unknown trace {trace.name!r}; known: {sorted(TRACES)}"
            )
        seed = self.scenario.seed if trace.seed is None else trace.seed
        return trace.scale * _trace_shape_factor(
            generator, trace.name, trace.duration, seed, trace.args,
        )


@dataclass
class ExperimentResult:
    """Run output: scenario, policy name, collector and summary."""

    scenario: Scenario
    policy_name: str
    collector: MetricsCollector
    summary: Summary
    cluster: Cluster
    trace: ArrivalSource
    #: The trace base rate replayed (calibrated when the scenario sets
    #: ``utilization``).
    base_rate: float
    #: Fault timeline, exportable via ``repro.metrics.export.fault_table``.
    fault_records: list = field(default_factory=list)
    #: Goodput-under-constraints report; None unless the scenario
    #: declared token-level SLO constraints.
    goodput: GoodputReport | None = None

    @property
    def module_ids(self) -> list[str]:
        return self.cluster.spec.module_ids


def _build(
    scenario: Scenario, policy: DropPolicy | None, lean: bool
) -> tuple[Cluster, ArrivalSource, float]:
    """(cluster, composed workload, base rate) for one scenario."""
    config = ExperimentConfig(scenario)
    base_rate = config.resolve_base_rate()
    # Provisioning counts the base source (bursts excluded); replay pulls
    # the composed source chunk by chunk.
    base = scenario.trace.build_source_base(base_rate, default_seed=scenario.seed)
    source = scenario.trace.overlay_source(base, default_seed=scenario.seed)
    metrics = (
        MetricsCollector(lean=lean, goodput=scenario.goodput)
        if (lean or scenario.goodput is not None) else None
    )
    cluster = Cluster(
        sim=Simulator(),
        app=config.app,
        policy=(
            make_policy(scenario.policy, scenario.seed)
            if policy is None else policy
        ),
        workers=config.resolve_workers(base_rate, base),
        registry=config.registry,
        batch_plan=config.plan,
        metrics=metrics,
        rng=RngStreams(seed=scenario.seed),
        sync_interval=scenario.sync_interval,
        stats_window=scenario.stats_window,
        router=(
            None if scenario.router is None
            else scenario.router.build(scenario.seed)
        ),
        resilience=scenario.resilience_map(),
    )
    return cluster, source, base_rate


def build_cluster(
    scenario: Scenario, policy: DropPolicy | None = None, lean: bool = False
) -> tuple[Cluster, ArrivalSource]:
    """The provisioned cluster for a scenario, plus the workload it replays.

    Nothing is replayed yet: callers drive the returned source into the
    cluster (:func:`~repro.workload.replay.replay`) after any changes of
    their own.  ``policy`` replaces the scenario's declared policy with a
    live one, for policies no :class:`PolicySpec` can declare.
    ``lean=True`` collects streaming summary counters only (no
    per-request records) — see
    :class:`~repro.metrics.collector.MetricsCollector`.
    """
    cluster, source, _ = _build(scenario, policy, lean)
    return cluster, source


def _simulate(
    cluster: Cluster | SharedCluster,
    scaling: ScalingSpec,
    failures: Sequence[FailureEvent],
    feeds: Sequence[tuple[ArrivalSource, Callable[[float], object]]],
    until: float,
) -> FailureInjector | None:
    """Arm the scaler and failure schedule, then drive ``feeds`` to drain."""
    if scaling.enabled:
        # Field-for-field forwarding: every ScalingSpec knob except the
        # enable flag is a ReactiveScaler constructor parameter.
        knobs = {f.name: getattr(scaling, f.name) for f in fields(scaling)
                 if f.name != "enabled"}
        ReactiveScaler(cluster, **knobs).start()
    injector = None
    if failures:
        injector = FailureInjector(cluster, events=list(failures))
        injector.schedule_all()
    drive(cluster, feeds, until)
    return injector


def run_scenario(scenario: Scenario, lean: bool = False) -> ExperimentResult:
    """Run one declarative scenario end to end.

    Calibration (``utilization``) measures the named base trace *with its
    generator args* — they are part of the declared workload; burst
    overlays and thinning then compose on top — matching the paper's
    framing, where the cluster is provisioned for the expected workload
    and the burst is the unpredictable event that exceeds it.
    ``lean`` collects summary counters only (no per-request records).
    """
    scenario.validate()
    cluster, trace, base_rate = _build(scenario, None, lean)
    injector = _simulate(
        cluster, scenario.scaling, scenario.failures,
        [(trace, cluster.submit_now)], trace.duration + scenario.drain,
    )
    return ExperimentResult(
        scenario=scenario,
        policy_name=cluster.policy.name,
        collector=cluster.metrics,
        summary=summarize(cluster.metrics, duration=trace.duration),
        cluster=cluster,
        trace=trace,
        base_rate=base_rate,
        fault_records=list(injector.records) if injector is not None else [],
        goodput=goodput_report(cluster.metrics, duration=trace.duration),
    )


@dataclass
class MultiResult:
    """Output of one shared-cluster run: per-app books plus the aggregate.

    ``summaries``/``collectors``/``traces`` are keyed by tenant label in
    declaration order; ``aggregate`` summarises every tenant's records
    together over the longest trace duration.
    """

    multi: MultiScenario
    summaries: dict[str, Summary]
    collectors: dict[str, MetricsCollector]
    aggregate: Summary
    cluster: SharedCluster
    traces: dict[str, ArrivalSource]
    #: Fault timeline, exportable via ``repro.metrics.export.fault_table``.
    fault_records: list = field(default_factory=list)
    #: Per-app goodput-under-constraints reports, keyed like ``summaries``;
    #: tenants without declared constraints map to None.
    goodputs: dict[str, GoodputReport | None] = field(default_factory=dict)

    @property
    def pool_ids(self) -> list[str]:
        return self.cluster.pool_ids()


def _tenant_workload(
    scenario: Scenario, seed: int, weight: float
) -> tuple[ArrivalSource, ArrivalSource]:
    """(base workload, composed workload) for one tenant.

    Mirrors :func:`run_scenario`'s trace path exactly — same generator,
    args, scale and overlay order — so a tenant served alone and the same
    tenant on an uncontended shared cluster replay the identical workload.
    ``weight`` scales the declared base rate; ``seed`` is the effective
    (shared-seed-shifted) tenant seed.
    """
    base_rate = _declared_rate(scenario.trace) * weight
    base = scenario.trace.build_source_base(base_rate, default_seed=seed)
    return base, scenario.trace.overlay_source(base, default_seed=seed)


def _provision_pools(
    multi: MultiScenario,
    registry: ProfileRegistry,
    tenants: Sequence[Tenant],
    base_rates: dict[str, float],
) -> dict[str, int]:
    """Workers per pool sized for the aggregate steady (pre-burst) load.

    Every (tenant, module) member of a pool contributes its tenant's base
    mean rate — on a static DAG each request visits every hop — and the
    pool is provisioned for the sum at its (tightest-tenant) target batch,
    matching the single-app rule that bursts stay unprovisioned-for.
    ``tenants`` carry the already-resolved apps and batch plans.
    """
    from ..simulation.tenancy import assign_pools

    pools, _ = assign_pools([(t.name, t.app) for t in tenants])
    plans = {t.name: t.batch_plan for t in tenants}
    out: dict[str, int] = {}
    for key, pool in pools.items():
        batch = min(plans[tname][mid] for tname, mid in pool.members)
        rate = sum(base_rates[tname] for tname, _ in pool.members)
        per_worker = registry.get(pool.model).throughput(batch)
        need = rate * multi.provision_headroom / per_worker
        out[key] = max(1, math.ceil(need))
    return out


def run_multi_scenario(multi: MultiScenario, lean: bool = False) -> MultiResult:
    """Run one declarative shared-cluster scenario end to end.

    Each tenant's workload, policy and seed resolve exactly as in
    :func:`run_scenario`; the cluster layer is shared — pools assigned by
    model profile, one reactive scaler and failure schedule over the pools,
    per-app metrics collected on the tenant views.  ``lean`` keeps
    per-tenant summary counters only (no per-request records).
    """
    multi.validate()
    registry = multi.build_registry()
    tenants: list[Tenant] = []
    traces: dict[str, ArrivalSource] = {}
    base_rates: dict[str, float] = {}
    for tenant_spec in multi.tenants:
        s = tenant_spec.scenario
        label = tenant_spec.label()
        seed = multi.tenant_seed(tenant_spec)
        base, trace = _tenant_workload(s, seed, tenant_spec.weight)
        traces[label] = trace
        base_rates[label] = base.mean_rate
        # Resolve the app and its batch plan once here; provisioning and
        # SharedCluster consume them instead of re-deriving per stage.
        app = s.build_application()
        tenants.append(
            Tenant(
                name=label,
                app=app,
                policy=make_policy(s.policy, seed),
                metrics=MetricsCollector(lean=lean, goodput=s.goodput),
                router=None if s.router is None else s.router.build(seed),
                batch_plan=plan_batch_sizes(app.spec, registry, app.slo),
                quota=tenant_spec.quota,
            )
        )
    if multi.workers is not None:
        workers: int | dict[str, int] = multi.workers
    else:
        workers = _provision_pools(multi, registry, tenants, base_rates)
    admission = None
    if multi.admission is not None:
        # The fairness seam: constructed from plain data with the declared
        # tenant weights as its fair-share vector, bound to the cluster by
        # SharedCluster.__init__.
        admission = make_admission(
            multi.admission,
            {t.label(): t.weight for t in multi.tenants},
            seed=multi.seed,
        )
    cluster = SharedCluster(
        sim=Simulator(),
        tenants=tenants,
        workers=workers,
        registry=registry,
        rng=RngStreams(seed=multi.seed),
        sync_interval=multi.sync_interval,
        stats_window=multi.stats_window,
        admission=admission,
    )
    # One arrival lane per tenant, opened in declaration order: each lane
    # reserves its sequence-number block up front, so lazily pumping one
    # pending arrival per tenant reproduces the exact event ordering of
    # the old eager pre-scheduling loop (tenant-by-tenant, trace order).
    injector = _simulate(
        cluster, multi.scaling, multi.failures,
        [(traces[t.name], partial(cluster.submit_now, t.name))
         for t in tenants],
        multi.duration() + multi.drain,
    )
    collectors = {t.name: t.metrics for t in tenants}
    summaries = {
        name: summarize(coll, duration=traces[name].duration)
        for name, coll in collectors.items()
    }
    goodputs = {
        name: goodput_report(coll, duration=traces[name].duration)
        for name, coll in collectors.items()
    }
    aggregate = summarize(merge_collectors(collectors),
                          duration=multi.duration())
    return MultiResult(
        multi=multi,
        summaries=summaries,
        collectors=collectors,
        aggregate=aggregate,
        cluster=cluster,
        traces=traces,
        fault_records=list(injector.records) if injector is not None else [],
        goodputs=goodputs,
    )
