"""Experiment harness: one call from (app, trace, policy) to metrics.

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
from ..metrics.goodput import GoodputReport, GoodputSpec, goodput_report
from ..pipeline.applications import Application, get_application
from ..pipeline.profiles import DEFAULT_PROFILES, ProfileRegistry
from ..policies.registry import make_admission, make_policy
from ..policies.spec import PolicySpec
from ..simulation.batching import plan_batch_sizes, provision_workers
from ..simulation.cluster import Cluster
from ..simulation.engine import Simulator
from ..simulation.failures import FailureEvent, FailureInjector
from ..simulation.rng import RngStreams
from ..simulation.routing import PathRouter
from ..simulation.scaling import ReactiveScaler
from ..simulation.tenancy import SharedCluster, Tenant
from ..workload.generators import TRACES
from ..workload.replay import ArrivalPump, replay
from ..workload.source import ArrivalSource
from ..workload.trace import Trace
from .scenario import (
    MultiScenario,
    Scenario,
    ScalingSpec,
    TraceSpec,
    _thaw,
    freeze_trace_args,
)

PolicyFactory = Callable[[int], DropPolicy]


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
    generator under an old name cannot serve a stale shape.  Calibrated
    configs consult the shape from ``resolve_workers``,
    ``resolve_base_rate`` *and* ``resolve_trace``; without memoization
    every call re-simulated the full-duration pilot.
    """
    kwargs = {k: _thaw(v) for k, v in args}
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


@dataclass
class ExperimentConfig:
    """Everything needed to run one (app, trace, policy) combination."""

    app: str  # "tm" | "lv" | "gm" | "da" (or a custom Application)
    trace: str  # "wiki" | "tweet" | "azure" (or a custom Trace)
    base_rate: float = 60.0  # trace base rate (req/s)
    duration: float = 120.0  # trace duration (s)
    seed: int = 0
    workers: int | dict[str, int] | None = None  # explicit worker counts
    utilization: float | None = None  # calibrate base_rate to this load
    provision_rate: float | None = None  # workers sized for this rate
    provision_headroom: float = 1.0
    slo: float | None = None  # override the application SLO
    sync_interval: float = 1.0
    stats_window: float = 5.0
    drain: float = 5.0
    scaling: bool = False  # enable the reactive scaler with cold starts
    trace_args: tuple = ()  # frozen (key, value) generator kwargs
    trace_scale: float = 1.0  # post-generation thinning factor (<= 1)
    trace_seed: int | None = None  # pin the workload seed (default: seed)
    custom_app: Application | None = None
    custom_trace: Trace | ArrivalSource | None = None
    registry: ProfileRegistry = field(default_factory=lambda: DEFAULT_PROFILES)

    def __post_init__(self) -> None:
        # Normalize generator kwargs to hashable frozen pairs: the memoized
        # pilot-shape lookup keys on them, and users naturally pass dicts
        # or list-valued args (a step trace's rates).
        self.trace_args = freeze_trace_args(self.trace_args)

    def resolve_app(self) -> Application:
        app = self.custom_app or get_application(self.app)
        if self.slo is not None:
            app = Application(spec=app.spec, slo=self.slo)
        return app

    def resolve_trace(self) -> Trace | ArrivalSource:
        """``custom_trace``, or the named trace built as a scenario's
        :class:`TraceSpec` would build it, materialized."""
        if self.custom_trace is not None:
            return self.custom_trace
        spec = TraceSpec(
            name=self.trace, duration=self.duration, seed=self.trace_seed,
            args=self.trace_args, scale=self.trace_scale,
        )
        return spec.build_source(
            self.resolve_base_rate(), default_seed=self.seed
        ).materialize()

    def _trace_seed(self) -> int:
        return self.seed if self.trace_seed is None else self.trace_seed

    def resolve_workers(
        self, trace: Trace | ArrivalSource | None = None
    ) -> int | dict[str, int]:
        """Explicit worker counts, or a plan provisioned for the trace.

        ``trace`` lets callers that already built the (possibly composed)
        trace provision for its actual mean rate instead of regenerating
        the named base trace.
        """
        if self.workers is not None:
            return self.workers
        app = self.resolve_app()
        plan = plan_batch_sizes(app.spec, self.registry, app.slo)
        if self.utilization is not None:
            # Calibrated mode: the bottleneck module gets a two-worker pool
            # at the target utilization; every other module is provisioned
            # so its own utilization lands just below capacity too, the way
            # the paper's per-module scaling keeps all modules near their
            # rate (otherwise drops artificially concentrate at the single
            # bottleneck).
            mean_rate = self.resolve_base_rate() * self._trace_shape()
            out: dict[str, int] = {}
            for m in app.spec.modules:
                per_worker = self.registry.get(m.model).throughput(plan[m.id])
                need = mean_rate / (0.97 * per_worker)
                out[m.id] = max(1, math.ceil(need))
            return out
        if trace is None:
            trace = self.resolve_trace()
        rate = self.provision_rate or trace.mean_rate
        return provision_workers(
            app.spec, self.registry, plan, rate, headroom=self.provision_headroom
        )

    def resolve_base_rate(self) -> float:
        """Base rate, calibrated to ``utilization`` of capacity when set.

        The bottleneck module's aggregate throughput defines capacity; the
        trace's mean-rate-to-base-rate shape factor (measured on a cheap
        pilot trace) maps capacity to the generator's ``base_rate`` knob.
        """
        if self.utilization is None:
            return self.base_rate
        app = self.resolve_app()
        plan = plan_batch_sizes(app.spec, self.registry, app.slo)

        def count(module_id: str) -> int:
            # Explicit worker counts cap capacity; without any, calibration
            # assumes the two-worker bottleneck pool resolve_workers builds.
            if isinstance(self.workers, dict):
                return self.workers[module_id]
            if isinstance(self.workers, int):
                return self.workers
            return 2

        capacity = min(
            count(m.id) * self.registry.get(m.model).throughput(plan[m.id])
            for m in app.spec.modules
        )
        shape = self._trace_shape()
        return capacity * self.utilization / shape

    def _trace_shape(self) -> float:
        """Mean-rate-to-base-rate factor of the configured trace.

        Thinning scales the realized mean rate linearly, so it folds
        straight into the shape factor — calibration then targets the
        utilization of the trace actually replayed.
        """
        if self.custom_trace is not None:
            return 1.0
        generator = TRACES.get(self.trace)
        if generator is None:
            raise KeyError(
                f"unknown trace {self.trace!r}; known: {sorted(TRACES)}"
            )
        return self.trace_scale * _trace_shape_factor(
            generator, self.trace, self.duration, self._trace_seed(),
            self.trace_args,
        )


@dataclass
class ExperimentResult:
    """Run output: config, policy name, collector and summary."""

    config: ExperimentConfig
    policy_name: str
    collector: MetricsCollector
    summary: Summary
    cluster: Cluster
    trace: Trace | ArrivalSource
    failure_log: list[str] = field(default_factory=list)
    #: Structured fault timeline (the source of ``failure_log``'s rendered
    #: strings), exportable via ``repro.metrics.export.fault_table``.
    fault_records: list = field(default_factory=list)
    #: Goodput-under-constraints report; None unless the scenario (or
    #: caller) declared token-level SLO constraints.
    goodput: GoodputReport | None = None

    @property
    def module_ids(self) -> list[str]:
        return self.cluster.spec.module_ids


def build_cluster(
    config: ExperimentConfig,
    policy: DropPolicy,
    trace: Trace | ArrivalSource | None = None,
    lean: bool = False,
    goodput: GoodputSpec | None = None,
    router: PathRouter | None = None,
    resilience: dict | None = None,
) -> Cluster:
    """Construct the provisioned cluster for a config (no trace replayed).

    ``lean=True`` collects streaming summary counters only (no per-request
    records) — see :class:`~repro.metrics.collector.MetricsCollector`.
    ``goodput`` arms the collector's token-SLO counters; ``router``
    overrides static fan-out at DAG forks; ``resilience`` installs per-hop
    :class:`~repro.simulation.resilience.HopResilience` policies.
    """
    app = config.resolve_app()
    if trace is None:
        trace = config.resolve_trace()
    plan = plan_batch_sizes(app.spec, config.registry, app.slo)
    workers = config.resolve_workers(trace)
    sim = Simulator()
    metrics = (
        MetricsCollector(lean=lean, goodput=goodput)
        if (lean or goodput is not None) else None
    )
    return Cluster(
        sim=sim,
        app=app,
        policy=policy,
        workers=workers,
        registry=config.registry,
        batch_plan=plan,
        metrics=metrics,
        rng=RngStreams(seed=config.seed),
        sync_interval=config.sync_interval,
        stats_window=config.stats_window,
        router=router,
        resilience=resilience,
    )


def run_experiment(
    config: ExperimentConfig,
    policy: DropPolicy | str | PolicySpec,
    failures: Sequence[FailureEvent] = (),
    scaling: ScalingSpec | None = None,
    trace: Trace | ArrivalSource | None = None,
    lean: bool = False,
    goodput: GoodputSpec | None = None,
    router: PathRouter | None = None,
    resilience: dict | None = None,
) -> ExperimentResult:
    """Replay the configured trace through a freshly provisioned cluster.

    ``policy`` may be a constructed :class:`DropPolicy`, a registered
    policy name or a :class:`~repro.policies.spec.PolicySpec`; the latter
    two are built seeded from ``config.seed`` — the forms sweep workers
    use, since plain data pickles and closures do not.  ``failures`` are
    armed before replay; ``scaling`` overrides the bare ``config.scaling``
    bool with a full :class:`ScalingSpec`; ``trace`` substitutes a
    pre-built trace (the scenario path's composed workload).  ``lean``
    keeps summary counters only (identical :class:`Summary`, no
    per-request records) — for sweeps and benchmarks that never read
    them.
    """
    if isinstance(policy, (str, PolicySpec)):
        policy = make_policy(policy, config.seed)
    if trace is None:
        trace = config.resolve_trace()
    cluster = build_cluster(
        config, policy, trace, lean=lean, goodput=goodput, router=router,
        resilience=resilience,
    )
    if scaling is None:
        scaling = ScalingSpec(enabled=config.scaling)
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
    replay(trace, cluster, drain=config.drain)
    return ExperimentResult(
        config=config,
        policy_name=policy.name,
        collector=cluster.metrics,
        summary=summarize(cluster.metrics, duration=trace.duration),
        cluster=cluster,
        trace=trace,
        failure_log=list(injector.log) if injector is not None else [],
        fault_records=list(injector.records) if injector is not None else [],
        goodput=goodput_report(cluster.metrics, duration=trace.duration),
    )


def scenario_config(scenario: Scenario) -> ExperimentConfig:
    """The :class:`ExperimentConfig` shim equivalent of a scenario.

    Scenarios are the declarative source of truth; the config is the
    resolved in-memory build plan the cluster machinery consumes.  Inline
    pipelines surface as ``custom_app`` here — but unlike user-supplied
    live objects they originate from plain data, so the scenario they came
    from still pickles and fingerprints.
    """
    app = scenario.build_application()
    return ExperimentConfig(
        app=scenario.app.name or app.name,
        trace=scenario.trace.name,
        base_rate=(
            scenario.trace.base_rate
            if scenario.trace.base_rate is not None else 60.0
        ),
        duration=scenario.trace.duration,
        seed=scenario.seed,
        workers=scenario.workers,
        utilization=scenario.utilization,
        provision_rate=scenario.provision_rate,
        provision_headroom=scenario.provision_headroom,
        slo=scenario.app.slo,
        sync_interval=scenario.sync_interval,
        stats_window=scenario.stats_window,
        drain=scenario.drain,
        scaling=scenario.scaling.enabled,
        trace_args=scenario.trace.args,
        trace_scale=scenario.trace.scale,
        trace_seed=scenario.trace.seed,
        custom_app=None if scenario.app.name is not None else app,
        registry=scenario.build_registry(),
    )


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
    config = scenario_config(scenario)
    # Provisioning counts the base source (bursts excluded); replay pulls
    # the composed source chunk by chunk.
    base = scenario.trace.build_source_base(
        config.resolve_base_rate(), default_seed=scenario.seed
    )
    trace = scenario.trace.overlay_source(base, default_seed=scenario.seed)
    if (config.workers is None and config.utilization is None
            and config.provision_rate is None and base.mean_rate > 0):
        # Auto-provisioning sizes the cluster for the steady workload;
        # seeing the burst-inflated mean would de-fang the very overload
        # the scenario declares.
        config.provision_rate = base.mean_rate
    return run_experiment(
        config,
        scenario.policy,
        failures=scenario.failures,
        scaling=scenario.scaling,
        trace=trace,
        lean=lean,
        goodput=scenario.goodput,
        router=(
            None if scenario.router is None
            else scenario.router.build(scenario.seed)
        ),
        resilience=scenario.resilience_map(),
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
    failure_log: list[str] = field(default_factory=list)
    #: Structured fault timeline (the source of ``failure_log``).
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
    base_rate = scenario_config(scenario).base_rate * weight
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
    sim = Simulator()
    cluster = SharedCluster(
        sim=sim,
        tenants=tenants,
        workers=workers,
        registry=registry,
        rng=RngStreams(seed=multi.seed),
        sync_interval=multi.sync_interval,
        stats_window=multi.stats_window,
        admission=admission,
    )
    if multi.scaling.enabled:
        knobs = {f.name: getattr(multi.scaling, f.name)
                 for f in fields(multi.scaling) if f.name != "enabled"}
        ReactiveScaler(cluster, **knobs).start()
    injector = None
    if multi.failures:
        injector = FailureInjector(cluster, events=list(multi.failures))
        injector.schedule_all()
    # One arrival lane per tenant, opened in declaration order: each lane
    # reserves its sequence-number block up front, so lazily pumping one
    # pending arrival per tenant reproduces the exact event ordering of
    # the old eager pre-scheduling loop (tenant-by-tenant, trace order).
    for tenant in tenants:
        ArrivalPump(
            traces[tenant.name],
            partial(cluster.submit_now, tenant.name),
            sim.open_lane(),
        ).prime()
    cluster.start_ticks()
    sim.run(until=multi.duration() + multi.drain)
    cluster.stop_ticks()
    sim.run()
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
        failure_log=list(injector.log) if injector is not None else [],
        fault_records=list(injector.records) if injector is not None else [],
        goodputs=goodputs,
    )


def compare_policies(
    config: ExperimentConfig,
    policies: dict[str, PolicyFactory | str | PolicySpec],
) -> dict[str, ExperimentResult]:
    """Run the same workload under several policies (fresh cluster each).

    Values may be seed-taking factories, registered policy names or
    :class:`~repro.policies.spec.PolicySpec` configurations.
    """
    results: dict[str, ExperimentResult] = {}
    for label, factory in policies.items():
        policy = (
            factory if isinstance(factory, (str, PolicySpec))
            else factory(config.seed)
        )
        results[label] = run_experiment(config, policy)
    return results
