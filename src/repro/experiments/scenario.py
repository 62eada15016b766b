"""Declarative, serializable experiment scenarios.

A :class:`Scenario` is one frozen spec covering everything the paper's
evaluation varies: the workload (a *named* trace plus rate/burst overlays),
the application (a registered name or an inline custom pipeline with its
model profiles), the drop policy, worker provisioning, reactive-scaling
configuration and a schedule of
:class:`~repro.simulation.failures.FailureEvent`.

Everything is plain data: a scenario round-trips through
``Scenario.from_dict(s.to_dict())`` (and JSON files), pickles into sweep
worker processes, and fingerprints stably for the on-disk result cache —
including synthetic custom pipelines and composed traces.  It is the only
config type: the CLI verbs and sweep grids build scenarios too.  This is
the deployment-description pattern production serving stacks (Clipper,
Nexus) use, applied to the experiment surface.

Resolution happens through the three name-keyed registries:
:func:`~repro.pipeline.applications.register_application`,
:func:`~repro.workload.generators.register_trace` and
:func:`~repro.policies.registry.register_policy`.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import AbstractSet, Any, Iterable, Mapping, Sequence

from ..metrics.goodput import GoodputSpec
from ..pipeline.applications import APPLICATIONS, Application, get_application
from ..pipeline.llm_profiles import profile_class
from ..pipeline.profiles import DEFAULT_PROFILES, ModelProfile, ProfileRegistry
from ..pipeline.spec import ModuleSpec, PipelineSpec, chain
from ..policies.spec import PolicySpec
from ..schema import (
    Axes, Bool, Either, Int, Json, Map, Nested, Num, Opt, Policy, Seq, Spec,
    Str, field,
)
from ..simulation.failures import FailureEvent
from ..simulation.resilience import HopResilience
from ..simulation.routing import PathRouter, ProbabilisticRouter, StaticRouter
from ..workload.generators import TRACES, get_trace, stream_trace
from ..workload.source import ArrivalSource, FileSource, TraceSource
from ..workload.trace import Trace

__all__ = [
    "AppSpec",
    "BurstSpec",
    "GoodputSpec",
    "MultiScenario",
    "PolicySpec",
    "RouterSpec",
    "Scenario",
    "ScalingSpec",
    "SweepSpec",
    "TenantSpec",
    "TraceSpec",
    "apply_axis",
    "generator_kwargs",
    "load_scenario_file",
    "scenario_axes",
    "scenario_class",
    "scenario_from_dict",
]

#: Generator keyword arguments: scalars and nested lists, frozen to sorted
#: pairs so the spec stays hashable and fingerprints stably.
_TRACE_ARGS = Map(Json(), frozen=True, item="trace arg {key!r}")
#: Worker counts (and tenant quotas): one count, or one per module/pool.
_COUNTS = Opt(Either(Int(">= 1"), Map(Int(">= 1"))))

#: Module ids of registered applications, keyed by (name, factory) so a
#: re-registered factory misses: grid expansion constructs a spec per
#: cell, and building the app (its kill plans) per cell cost more than
#: the rest of the construction.
_APP_MODULE_IDS: dict[tuple[str, Any], frozenset[str]] = {}
#: Pool keys of shared clusters, memoized for the same reason: a layout
#: builds every tenant app.  Keyed by each tenant's (label, app,
#: registered factory), all that :meth:`MultiScenario.pool_layout` reads,
#: so a re-registered factory misses.
_POOL_KEYS: dict[tuple, frozenset[str]] = {}


def generator_kwargs(args: tuple) -> dict:
    """Frozen :class:`TraceSpec` ``args`` back as generator keywords."""
    return _TRACE_ARGS.dump(args)


def _check_provision_targets(
    workers: "int | dict[str, int] | None",
    failures: "tuple[FailureEvent, ...]",
    ids: AbstractSet[str],
    noun: str,
    suffix: str = "",
) -> None:
    """Worker counts and failure events must reference real ``noun``s.

    Shared by :class:`Scenario` (``noun="module"``) and
    :class:`MultiScenario` (``noun="pool"``) at both construction (when
    the ids resolve early) and ``validate()``.
    """
    if isinstance(workers, dict):
        unknown = set(workers) - ids
        if unknown:
            raise ValueError(
                f"workers reference unknown {noun}s: {sorted(unknown)}"
                f"{suffix}"
            )
        missing = ids - set(workers)
        if missing:
            raise ValueError(
                f"workers must cover every {noun}; missing: {sorted(missing)}"
            )
    for event in failures:
        if event.module_id not in ids:
            raise ValueError(
                f"failure event at t={event.time} references unknown "
                f"{noun} {event.module_id!r}{suffix}"
            )


@dataclass(frozen=True)
class BurstSpec(Spec):
    """Rate overlay: multiply arrivals by ``factor`` over one window.

    Applied via :meth:`repro.workload.source.ArrivalSource.overlay_burst`;
    with ``factor > 1`` this is the "workload burst" the paper motivates
    proactive dropping with, declared instead of hand-built.
    """

    _section, _prefix = "burst", "burst "

    start: float = field(Num(">= 0"))
    length: float = field(Num("> 0"))
    factor: float = field(Num("> 0"))
    seed: int = field(Int(">= 0"), 0)


@dataclass(frozen=True)
class TraceSpec(Spec):
    """A workload declared as a registered generator plus overlays.

    ``base_rate=None`` leaves the rate to the scenario's calibration
    (``utilization``) or the 60 req/s default; ``seed=None`` inherits the
    scenario seed.  ``args`` are extra generator keywords (e.g. tweet's
    ``burst_at``), ``scale`` thins the generated trace (<= 1) and
    ``bursts`` overlay rate multipliers — so a "composed" trace is data,
    not a live :class:`~repro.workload.trace.Trace` object.

    Every form builds one :class:`~repro.workload.source.ArrivalSource`
    chain (:meth:`build_source`): the base below, thinned by ``scale``,
    then one burst overlay per declared burst.  The base is the eager
    generator's trace by default, streamed from memory; two forms never
    materialize it:

    - ``path`` replays an on-disk arrival log (CSV or JSONL, see
      :class:`~repro.workload.source.FileSource`) instead of generating;
      ``digest`` optionally pins its sha256 so the spec stays frozen and
      cache-fingerprintable even though the workload lives outside the
      file.  File-backed traces take no ``base_rate`` or ``args`` — the
      file *is* the realization.  When ``name`` is left at its default it
      falls back to the file stem.
    - ``stream=True`` generates the named trace as a windowed streaming
      source (:func:`~repro.workload.generators.stream_trace`) — flat
      memory for arbitrarily long workloads, statistically equivalent to
      but a *different realization* than the eager generator.

    New keys are serialized only when set, so the fingerprint of every
    pre-existing generator spec is unchanged.
    """

    _section, _prefix = "trace", "trace "

    name: str = field(Str(), "tweet")
    duration: float = field(Num("> 0"), 120.0)
    base_rate: float | None = field(Opt(Num("> 0")), None)
    seed: int | None = field(Opt(Int(">= 0")), None)
    args: tuple = field(_TRACE_ARGS, ())
    scale: float = field(Num("(0, 1]"), 1.0)
    bursts: tuple[BurstSpec, ...] = field(Seq(Nested(BurstSpec)), ())
    path: str | None = field(Opt(Str()), None, omit_default=True)
    digest: str | None = field(Opt(Str()), None, omit_default=True)
    stream: bool = field(Bool(), False, omit_default=True)

    def _check(self) -> None:
        clashes = {"name", "base_rate", "duration", "seed"} & dict(self.args).keys()
        if clashes:
            # They would crash get_trace with a TypeError at generation time.
            raise ValueError(
                "trace args may not override reserved generator keywords: "
                f"{sorted(clashes)}"
            )
        if self.digest is not None and self.path is None:
            raise ValueError("trace digest requires a file-backed path")
        if self.path is not None:
            if self.stream:
                raise ValueError(
                    "stream is implied by path; a file-backed trace "
                    "always replays lazily"
                )
            if self.base_rate is not None:
                raise ValueError(
                    "file-backed traces take no base_rate: the file fixes "
                    "the arrivals"
                )
            if self.args:
                raise ValueError(
                    "file-backed traces take no generator args"
                )
            if self.name == "tweet":
                # Field default; a replayed log is better known by its
                # file stem than by the generator default name.
                object.__setattr__(self, "name", Path(self.path).stem)
            # The file also fixes the duration (like the arrivals): probe
            # the header so bursts validate and summaries normalize
            # against the replayed horizon, not the field default.  The
            # digest is deliberately not checked here — that happens once
            # at run time, not on every spec parse.
            probe = FileSource(self.path, name=self.name)
            object.__setattr__(self, "duration", probe.duration)
        for burst in self.bursts:
            if burst.start >= self.duration:
                raise ValueError(
                    f"burst start {burst.start} outside trace duration "
                    f"{self.duration}"
                )

    def build_source_base(
        self, base_rate: float, default_seed: int = 0
    ) -> ArrivalSource:
        """The declared steady workload: generator args + thinning.

        Bursts are deliberately excluded — they are the "unpredictable
        events" layered on top, and provisioning must not see them.
        """
        if self.path is not None:
            source: ArrivalSource = FileSource(
                self.path, name=self.name, duration=self.duration,
                digest=self.digest,
            )
        else:
            seed = self.seed if self.seed is not None else default_seed
            kwargs = generator_kwargs(self.args)
            if self.stream:
                source = stream_trace(
                    self.name, base_rate, self.duration, seed, **kwargs
                )
            else:
                source = TraceSource(get_trace(
                    self.name, base_rate, self.duration, seed, **kwargs
                ))
        if self.scale != 1.0:
            source = source.scaled(self.scale)
        return source

    def overlay_source(
        self, source: ArrivalSource, default_seed: int = 0
    ) -> ArrivalSource:
        """Apply the declared burst overlays to an already-built source."""
        seed = self.seed if self.seed is not None else default_seed
        for burst in self.bursts:
            source = source.overlay_burst(
                burst.start, burst.length, burst.factor, seed=burst.seed + seed
            )
        return source

    def build_source(
        self, base_rate: float, default_seed: int = 0
    ) -> ArrivalSource:
        """The composed workload at ``base_rate`` (overlays included)."""
        return self.overlay_source(
            self.build_source_base(base_rate, default_seed), default_seed
        )


@dataclass(frozen=True)
class AppSpec(Spec):
    """An application declared by registered name or as an inline pipeline.

    Inline pipelines give ``modules`` (ids, models, DAG edges) plus a
    required ``slo`` and any :class:`~repro.pipeline.profiles.ModelProfile`
    entries their models need beyond the defaults — the serializable form
    of a custom pipeline, so it pickles and fingerprints like the rest of
    the scenario.  A dict may spell a linear pipeline as ``chain``, an
    ordered model list (see :meth:`chained`).
    """

    _section, _prefix = "app", "app "

    name: str | None = field(Opt(Str()), None)
    pipeline: str = field(Str(), "custom")
    modules: tuple[ModuleSpec, ...] = field(Seq(Nested(ModuleSpec)), ())
    slo: float | None = field(Opt(Num("> 0")), None)
    #: Either profile flavour: plain fixed-duration or "llm" token-cost
    #: (see repro.pipeline.llm_profiles).
    profiles: tuple[ModelProfile, ...] = field(
        Seq(Nested(ModelProfile, pick=profile_class)), ()
    )

    def _check(self) -> None:
        if (self.name is None) == (not self.modules):
            raise ValueError(
                "an app spec needs exactly one of: a registered name, or "
                "inline modules"
            )
        if self.modules and self.slo is None:
            raise ValueError("an inline pipeline requires an explicit slo")

    @classmethod
    def _read(cls, data: Any) -> Any:
        if not isinstance(data, Mapping) or "chain" not in data:
            return data
        if data.get("name") or data.get("modules"):
            raise ValueError("'chain' is exclusive with 'name' and 'modules'")
        data = dict(data)
        models = Seq(Str()).load(data.pop("chain"), "app chain")
        pipeline = data.get("pipeline", "custom")
        data["modules"] = chain(pipeline, list(models)).modules
        return data

    @classmethod
    def chained(
        cls,
        models: Sequence[str],
        slo: float,
        pipeline: str = "custom",
        profiles: Sequence[ModelProfile] = (),
    ) -> "AppSpec":
        """Convenience: a linear pipeline from an ordered model list."""
        spec = chain(pipeline, list(models))
        return cls(
            modules=tuple(spec.modules), pipeline=pipeline, slo=slo,
            profiles=tuple(profiles),
        )

    def build(self) -> Application:
        """Resolve to a live :class:`Application`."""
        if self.name is not None:
            if self.name not in APPLICATIONS:
                raise KeyError(
                    f"unknown application {self.name!r}; "
                    f"known: {sorted(APPLICATIONS)}"
                )
            app = get_application(self.name)
            if self.slo is not None:
                app = Application(spec=app.spec, slo=self.slo)
            return app
        spec = PipelineSpec(name=self.pipeline, modules=list(self.modules))
        return Application(spec=spec, slo=self.slo)

    def build_registry(self) -> ProfileRegistry:
        """Default profiles with this app's extras layered on top."""
        if not self.profiles:
            return DEFAULT_PROFILES
        merged = {
            name: DEFAULT_PROFILES.get(name) for name in DEFAULT_PROFILES.names()
        }
        for profile in self.profiles:
            merged[profile.name] = profile
        return ProfileRegistry(list(merged.values()))


@dataclass(frozen=True)
class ScalingSpec(Spec):
    """Reactive-scaler configuration (replaces the old bare bool knob)."""

    _section, _prefix = "scaling", "scaling "

    enabled: bool = field(Bool(), False)
    # interval=0 would flood the event queue with same-timestamp ticks and
    # hang the simulation.
    interval: float = field(Num("> 0"), 2.0)
    cold_start: float = field(Num(">= 0"), 8.0)
    headroom: float = field(Num("> 0"), 1.1)
    min_workers: int = field(Int(">= 1"), 1)
    max_workers: int = field(Int(">= 1"), 16)
    scale_in_patience: int = field(Int(">= 1"), 4)
    graceful_scale_in: bool = field(Bool(), False)

    def _check(self) -> None:
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"scaling max_workers must be >= min_workers, got "
                f"{self.max_workers} < {self.min_workers}"
            )


@dataclass(frozen=True)
class RouterSpec(Spec):
    """Declarative fork routing for DAG pipelines.

    ``kind="static"`` keeps the default fan-out-to-all semantics;
    ``kind="probabilistic"`` picks exactly one successor per request at
    every fork, weighted by ``weights`` (successor module id -> weight,
    unlisted successors default to 1.0).  ``seed=None`` inherits the
    scenario seed, so sweeping a scenario over seeds re-seeds its branch
    choices too.  This is the serializable form of
    :class:`~repro.simulation.routing.ProbabilisticRouter` — the paper's
    request-specific dynamic paths (agentic RAG's retrieve -> rerank |
    generate_direct split) declared as data.
    """

    _section, _prefix = "router", "router "

    kind: str = field(Str(("static", "probabilistic")), "static")
    weights: tuple = field(  # frozen (module id, weight) pairs
        Map(Num("> 0"), frozen=True, item="router weight for {key!r}"), ()
    )
    seed: int | None = field(Opt(Int(">= 0")), None)

    def _check(self) -> None:
        if self.weights and self.kind == "static":
            raise ValueError("a static router takes no weights")

    def build(self, default_seed: int = 0) -> PathRouter:
        """Resolve to a live :class:`~repro.simulation.routing.PathRouter`."""
        if self.kind == "static":
            return StaticRouter()
        seed = self.seed if self.seed is not None else default_seed
        return ProbabilisticRouter(dict(self.weights) or None, seed=seed)


@dataclass(frozen=True)
class Scenario(Spec):
    """One serializable spec from workload to failure injection.

    The unit of experiment declaration: runnable in-process via
    :func:`repro.experiments.runner.run_scenario`, shippable to sweep
    workers (it pickles), cacheable on disk (it fingerprints), and
    storable as JSON next to the figures it produces.  Nested sections
    also take their dict forms — ``Scenario(app={"name": "tm"})`` is the
    natural Python transcription of the JSON shape — and a policy its bare
    registered name.
    """

    _section = "scenario"

    app: AppSpec = field(Nested(AppSpec), AppSpec(name="lv"))
    trace: TraceSpec = field(Nested(TraceSpec), TraceSpec())
    policy: PolicySpec = field(Policy(PolicySpec), "PARD")
    seed: int = field(Int(">= 0"), 0)
    workers: int | dict[str, int] | None = field(_COUNTS, None)
    utilization: float | None = field(Opt(Num("> 0")), None)
    provision_rate: float | None = field(Opt(Num("> 0")), None)
    provision_headroom: float = field(Num("> 0"), 1.0)
    # A zero interval floods the event queue with same-timestamp ticks
    # and the simulation never advances.
    sync_interval: float = field(Num("> 0"), 1.0)
    stats_window: float = field(Num("> 0"), 5.0)
    drain: float = field(Num(">= 0"), 5.0)
    scaling: ScalingSpec = field(Nested(ScalingSpec), ScalingSpec())
    failures: tuple[FailureEvent, ...] = field(Seq(Nested(FailureEvent)), ())
    name: str = field(Str(), "")
    #: Token-level SLO constraints (TTFT/TPOT/e2e); when any is declared
    #: the run also produces a :class:`~repro.metrics.goodput.GoodputReport`.
    goodput: GoodputSpec | None = field(Opt(Nested(GoodputSpec)), None)
    #: Fork routing (None = static fan-out-to-all).
    router: RouterSpec | None = field(Opt(Nested(RouterSpec)), None)
    #: Per-hop resilience policies, as sorted (module_id, HopResilience)
    #: pairs (a module-keyed mapping of hop dicts coerces).  Empty — the
    #: default — keeps every module on its resilience-free fast path and
    #: the serialized form key-free, so all pre-existing fingerprints are
    #: unchanged.
    resilience: tuple = field(
        Map(Nested(HopResilience), frozen=True), (), omit_default=True
    )

    def _check(self) -> None:
        # Fail fast on mistargeted failures/workers: a bad module id in a
        # hand-authored spec should raise here, not as a KeyError minutes
        # into a run.  Apps referencing a not-yet-registered name stay lazy
        # (validate() is the authoritative pass), and the app is only
        # resolved when there are targets to check — grid expansion builds
        # thousands of these.
        for event in self.failures:
            if event.time >= self.trace.duration:
                raise ValueError(
                    f"failure event at t={event.time} falls outside the "
                    f"trace duration {self.trace.duration}"
                )
        for mid, hop in self.resilience:
            # While a kill leaves the module no worker, every parked
            # request's watchdog re-arms each ``timeout``.  Scaling never
            # removes the last worker, so outages end by the last kill's
            # recovery; a timeout of at least the clock's resolution there
            # moves the clock on every re-arm before it.
            end = max((e.time + e.downtime for e in self.failures
                       if e.kind == "kill" and e.module_id == mid),
                      default=None)
            if (end is not None and hop.timeout is not None
                    and hop.timeout < math.ulp(end)):
                raise ValueError(
                    f"resilience {mid} timeout {hop.timeout!r} is below the "
                    f"clock's resolution {math.ulp(end)!r} at t={end}, when "
                    f"{mid}'s last kill recovers"
                )
        if self.failures or self.resilience or isinstance(self.workers, dict):
            module_ids = self._known_module_ids()
            if module_ids is not None:
                self._check_targets(module_ids)

    def _known_module_ids(self) -> frozenset[str] | None:
        """Module ids when resolvable without running (else ``None``).

        Inline pipelines carry their modules; named apps resolve iff the
        name is already registered, once per registered factory.
        """
        if self.app.modules:
            return frozenset(m.id for m in self.app.modules)
        name = self.app.name
        factory = APPLICATIONS.get(name)
        if factory is None:
            return None
        ids = _APP_MODULE_IDS.get((name, factory))
        if ids is None:
            try:
                ids = frozenset(self.app.build().spec.module_ids)
            except (KeyError, ValueError):
                return None
            _APP_MODULE_IDS[(name, factory)] = ids
        return ids

    def _check_targets(self, module_ids: AbstractSet[str]) -> None:
        _check_provision_targets(
            self.workers, self.failures, module_ids, "module"
        )
        for event in self.failures:
            if event.dst is not None and event.dst not in module_ids:
                raise ValueError(
                    f"link fault targets unknown module {event.dst!r}"
                )
        for mid, hop in self.resilience:
            if mid not in module_ids:
                raise ValueError(
                    f"resilience spec targets unknown module {mid!r}"
                )
            if hop.fallback is not None and hop.fallback not in module_ids:
                raise ValueError(
                    f"resilience fallback for {mid!r} targets unknown "
                    f"module {hop.fallback!r}"
                )

    def label(self) -> str:
        """Short identifier used by sweep progress and result tables."""
        base = self.name or f"{self.app.name or self.app.pipeline}-{self.trace.name}"
        return f"{base}-{self.policy.label()}-s{self.seed}"

    def validate(self) -> "Scenario":
        """Resolve every registry reference now instead of at run time.

        The constructors validate structure; names (policy, trace,
        application, model profiles, module ids) are checked lazily so
        registration order stays flexible.  Callers that load
        user-authored files (the CLI) call this to surface a broken
        reference as one clean error up front.  Returns ``self``.
        """
        self.policy.validate()
        if self.utilization is not None and self.trace.base_rate is not None:
            raise ValueError(
                "utilization and trace base_rate are mutually exclusive: "
                "calibration would silently override the explicit rate"
            )
        if self.utilization is not None and self.provision_rate is not None:
            raise ValueError(
                "utilization and provision_rate are mutually exclusive: "
                "calibration sizes workers itself, so the explicit rate "
                "would be silently ignored"
            )
        if self.trace.path is not None:
            # File-backed workload: the name is a label, not a registry
            # key, and calibration has no generator to pilot against.
            if self.utilization is not None:
                raise ValueError(
                    "utilization calibration requires a generator trace; "
                    "a file-backed trace fixes its own arrivals — set "
                    "workers or provision_rate instead"
                )
        else:
            if self.trace.name not in TRACES:
                raise ValueError(
                    f"unknown trace {self.trace.name!r}; "
                    f"known: {sorted(TRACES)}"
                )
            generator = TRACES[self.trace.name]
            parameters = inspect.signature(generator).parameters
            if not any(
                p.kind is p.VAR_KEYWORD for p in parameters.values()
            ):
                unknown_args = (
                    {key for key, _ in self.trace.args} - set(parameters)
                )
                if unknown_args:
                    raise ValueError(
                        f"trace {self.trace.name!r} does not accept args: "
                        f"{sorted(unknown_args)}"
                    )
        try:
            app = self.build_application()
            registry = self.build_registry()
            for module in app.spec.modules:
                registry.get(module.model)
        except KeyError as exc:
            raise ValueError(str(exc).strip('"')) from None
        # Target checks may already have run at construction when the app
        # was resolvable then; this pass is authoritative (the app resolved
        # two lines up, so module ids are definitely known here).
        self._check_targets(set(app.spec.module_ids))
        for mid, hop in self.resilience:
            if hop.fallback is None:
                continue
            from ..simulation.resilience import descendants

            if hop.fallback in descendants(app.spec, mid):
                raise ValueError(
                    f"module {mid!r} cannot fall back to its downstream "
                    f"module {hop.fallback!r}; valid targets are off-path "
                    "branches (e.g. a router-skipped sibling)"
                )
        if self.router is not None:
            unknown = (
                {k for k, _ in self.router.weights} - set(app.spec.module_ids)
            )
            if unknown:
                raise ValueError(
                    f"router weights reference unknown modules: "
                    f"{sorted(unknown)}"
                )
        return self

    # -- resolution --------------------------------------------------------

    def build_application(self) -> Application:
        return self.app.build()

    def build_registry(self) -> ProfileRegistry:
        return self.app.build_registry()

    def build_trace(self, base_rate: float) -> Trace:
        """The composed workload, materialized (what ``run_scenario``
        replays at the same base rate)."""
        return self.trace.build_source(
            base_rate, default_seed=self.seed
        ).materialize()

    def resilience_map(self) -> dict[str, HopResilience] | None:
        """Runtime form for :class:`Cluster` (``None`` = fast path)."""
        if not self.resilience:
            return None
        return dict(self.resilience)


@dataclass(frozen=True)
class TenantSpec(Spec):
    """One weighted tenant of a shared-cluster scenario.

    ``weight`` scales the tenant's trace rate, so a two-tenant spec with
    weights 2.0 and 1.0 declares a 2:1 traffic split without re-authoring
    either tenant's trace.  The wrapped :class:`Scenario` contributes the
    app, trace shape, policy and seed; cluster-level knobs (workers,
    scaling, failures, calibration) live on the enclosing
    :class:`MultiScenario` and are rejected on tenants.

    ``quota`` caps how many workers of a shared pool this tenant may
    dispatch to: an int applies to every pool the tenant is a member of,
    a ``{pool key: n}`` dict caps per pool (unlisted pools stay
    uncapped).  A quota larger than a pool is a no-op — it bounds the
    tenant, it does not reserve capacity.  This is the intra-pool
    isolation knob interference studies sweep.
    """

    _section, _prefix = "tenant", "tenant "

    # Keyword-only, so ``scenario`` stays the first positional argument
    # while ``weight`` keeps its place first in the dict form.
    weight: float = field(Num("> 0"), 1.0, kw_only=True)
    scenario: Scenario = field(Nested(Scenario))
    # Emitted only when set, so pre-quota specs keep their serialized form
    # — and therefore their cache fingerprints.
    quota: int | dict[str, int] | None = field(_COUNTS, None, omit_default=True)

    def _check(self) -> None:
        if self.quota == {}:
            raise ValueError(
                "a tenant quota mapping needs at least one pool entry"
            )

    def label(self) -> str:
        """The tenant's identity inside the shared cluster."""
        s = self.scenario
        return s.name or s.app.name or s.app.pipeline


@dataclass(frozen=True)
class MultiScenario(Spec):
    """A shared cluster serving several weighted tenant scenarios.

    The multi-tenant unit of declaration: N tenants (each a full
    :class:`Scenario` minus the cluster-level knobs) contending for one
    set of shared, name-keyed worker pools (see
    :func:`repro.simulation.tenancy.assign_pools`).  ``workers`` and
    ``failures`` are keyed by *pool* id (normally the model name), and one
    :class:`ScalingSpec` governs every pool.  Like :class:`Scenario` it is
    plain data end to end: dict/JSON round-trips, pickles into sweep
    workers and fingerprints into the disk cache.
    """

    _section = "multi scenario"

    tenants: tuple[TenantSpec, ...] = field(
        Seq(Nested(TenantSpec), item="tenant"), ()
    )
    workers: int | dict[str, int] | None = field(_COUNTS, None)  # by pool id
    scaling: ScalingSpec = field(Nested(ScalingSpec), ScalingSpec())
    # module_id is a pool id
    failures: tuple[FailureEvent, ...] = field(Seq(Nested(FailureEvent)), ())
    provision_headroom: float = field(Num("> 0"), 1.0)
    sync_interval: float = field(Num("> 0"), 1.0)
    stats_window: float = field(Num("> 0"), 5.0)
    drain: float = field(Num(">= 0"), 5.0)
    seed: int = field(Int(">= 0"), 0)
    name: str = field(Str(), "")
    #: Cross-app fairness policy on the admission seam (None = tenants'
    #: own policies only); resolved via the admission registry
    #: (:func:`repro.policies.registry.register_admission`).
    admission: PolicySpec | None = field(Opt(Policy(PolicySpec)), None)

    def _check(self) -> None:
        # Fail fast on structural mistakes (same contract as Scenario):
        # duplicate tenant labels, out-of-range failure times and —
        # whenever every tenant app resolves now — mistargeted pool
        # references.  Apps awaiting registration defer to validate().
        self._check_labels()
        duration = self.duration()
        for event in self.failures:
            if event.time >= duration:
                raise ValueError(
                    f"failure event at t={event.time} falls outside the "
                    f"longest trace duration {duration}"
                )
            if event.kind == "link":
                # Pool-keyed faults address capacity, not topology: edges
                # belong to per-tenant DAGs, so link cuts are
                # single-cluster only.
                raise ValueError(
                    "link faults are single-cluster only; shared-cluster "
                    "failures target pools (kill/degrade)"
                )
        if self.failures or isinstance(self.workers, dict):
            pools = self._known_pools()
            if pools is not None:
                self._check_pool_targets(pools)

    def _check_labels(self) -> None:
        labels = [t.label() for t in self.tenants]
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        if dupes:
            raise ValueError(
                f"tenant labels must be unique, got duplicates: {dupes}; "
                "give tenants distinct scenario names"
            )

    def _known_pools(self) -> frozenset[str] | None:
        """The pool keys when every tenant app resolves now, else None;
        resolved once per tenant set (see ``_POOL_KEYS``)."""
        key = tuple(
            (t.label(), t.scenario.app, APPLICATIONS.get(t.scenario.app.name))
            for t in self.tenants
        )
        pools = _POOL_KEYS.get(key)
        if pools is None:
            try:
                pools = frozenset(self.pool_layout()[0])
            except (KeyError, ValueError):
                return None
            _POOL_KEYS[key] = pools
        return pools

    def _check_pool_targets(self, pools: AbstractSet[str]) -> None:
        _check_provision_targets(
            self.workers, self.failures, set(pools), "pool",
            suffix=f"; pools: {sorted(pools)}",
        )

    def label(self) -> str:
        base = self.name or "+".join(t.label() for t in self.tenants)
        return f"{base}-s{self.seed}"

    def tenant_names(self) -> list[str]:
        return [t.label() for t in self.tenants]

    def tenant_seed(self, tenant: TenantSpec) -> int:
        """Effective seed of one tenant: its own, shifted by the shared seed.

        Sweeping the multi scenario over seeds re-seeds every tenant
        together while preserving their declared offsets.
        """
        return tenant.scenario.seed + self.seed

    def duration(self) -> float:
        """Shared-cluster run length: the longest tenant trace."""
        return max(t.scenario.trace.duration for t in self.tenants)

    # -- resolution --------------------------------------------------------

    def pool_layout(self):
        """(pools by key, pool key by (tenant label, module id)).

        Resolves every tenant application; raises on broken references.
        """
        from ..simulation.tenancy import assign_pools

        return assign_pools(
            [(t.label(), t.scenario.build_application()) for t in self.tenants]
        )

    def build_registry(self) -> ProfileRegistry:
        """One registry for the whole cluster: defaults + every tenant's
        extras (conflicting redefinitions are rejected by validate())."""
        merged = {
            name: DEFAULT_PROFILES.get(name) for name in DEFAULT_PROFILES.names()
        }
        for tenant in self.tenants:
            for profile in tenant.scenario.app.profiles:
                merged[profile.name] = profile
        return ProfileRegistry(list(merged.values()))

    def validate(self) -> "MultiScenario":
        """Resolve every reference and cross-tenant constraint up front."""
        self._check_labels()
        for tenant in self.tenants:
            s = tenant.scenario
            where = f"tenant {tenant.label()!r}"
            if s.workers is not None:
                raise ValueError(
                    f"{where} sets workers; provisioning is cluster-level "
                    "on a shared cluster (set MultiScenario.workers)"
                )
            if s.scaling.enabled:
                raise ValueError(
                    f"{where} enables scaling; the shared cluster scales "
                    "pools (set MultiScenario.scaling)"
                )
            if s.failures:
                raise ValueError(
                    f"{where} declares failures; shared-cluster failures "
                    "are pool-keyed (set MultiScenario.failures)"
                )
            if s.resilience:
                raise ValueError(
                    f"{where} declares resilience; shared-cluster hops are "
                    "pool-backed and per-hop resilience is single-cluster "
                    "only"
                )
            if s.utilization is not None or s.provision_rate is not None:
                raise ValueError(
                    f"{where} sets utilization/provision_rate; calibration "
                    "is ambiguous across tenants — give the trace an "
                    "explicit base_rate instead"
                )
            s.validate()
        seen: dict[str, object] = {}
        for tenant in self.tenants:
            for profile in tenant.scenario.app.profiles:
                other = seen.get(profile.name)
                if other is not None and other != profile:
                    raise ValueError(
                        f"conflicting definitions of model profile "
                        f"{profile.name!r} across tenants"
                    )
                seen[profile.name] = profile
        if self.admission is not None:
            self.admission.validate(kind="admission")
        # Authoritative pool-target pass (construction already checked when
        # every app name was registered at that point).
        pools, by_member = self.pool_layout()
        self._check_pool_targets(pools.keys())
        for tenant in self.tenants:
            if not isinstance(tenant.quota, dict):
                continue
            label = tenant.label()
            member_pools = {
                key for (tname, _), key in by_member.items() if tname == label
            }
            unknown = set(tenant.quota) - member_pools
            if unknown:
                raise ValueError(
                    f"tenant {label!r} quota references pools it is not a "
                    f"member of: {sorted(unknown)}; its pools: "
                    f"{sorted(member_pools)}"
                )
        return self


def scenario_from_dict(data: dict) -> "Scenario | MultiScenario | SweepSpec":
    """Parse any scenario-file schema, auto-detected.

    A mapping with a ``base`` key is a :class:`SweepSpec` (a scenario plus
    sweep axes), one with a ``tenants`` key is a :class:`MultiScenario`,
    anything else is a single-app :class:`Scenario`.  The CLI and loaders
    use this so one ``--file`` flag serves all three shapes.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"scenario file must hold a JSON object, got {type(data).__name__}"
        )
    if "base" in data or "axes" in data:
        return SweepSpec.from_dict(data)
    return scenario_class(data).from_dict(data)


def scenario_class(data: Mapping) -> type:
    """The class a scenario dict parses as: multi when it has tenants.

    A sweep dict (a ``base`` or ``axes`` key) is refused, so a sweep or
    study ``base`` cannot itself be a sweep.
    """
    if "base" in data or "axes" in data:
        raise ValueError("sweep specs do not nest")
    return MultiScenario if "tenants" in data else Scenario


def load_scenario_file(path: str | Path) -> "Scenario | MultiScenario | SweepSpec":
    """Load a scenario file of any schema (see :func:`scenario_from_dict`)."""
    return scenario_from_dict(json.loads(Path(path).read_text()))


def apply_axis(
    spec: "Scenario | MultiScenario", axis: str, value: Any
) -> "Scenario | MultiScenario":
    """One cell of a sweep grid: ``spec`` with ``axis`` set to ``value``.

    Axes address the spec by dotted path: a bare field name
    (``seed``, ``drain``, ``workers``), a nested section field
    (``trace.base_rate``, ``scaling.cold_start``), a whole policy
    (``policy``) or one policy parameter (``policy.lam``,
    ``admission.rate``).  On a :class:`MultiScenario`, policy and
    ``trace.*`` axes apply to *every* tenant — the grid compares
    configurations, not tenant mixes — while ``tenant.<label>.<rest>``
    addresses one tenant: its ``weight`` or ``quota``, or any
    single-scenario axis of its wrapped scenario
    (``tenant.burst.trace.base_rate``).
    """
    if isinstance(spec, MultiScenario):
        if axis == "policy" or axis.startswith(("policy.", "trace.")):
            return replace(spec, tenants=tuple(
                replace(t, scenario=apply_axis(t.scenario, axis, value))
                for t in spec.tenants
            ))
        if axis.startswith("tenant."):
            _, _, tail = axis.partition(".")
            label, _, rest = tail.partition(".")
            if not label or not rest:
                raise ValueError(
                    f"tenant axis {axis!r} must be 'tenant.<label>.<field>'"
                )
            labels = [t.label() for t in spec.tenants]
            if label not in labels:
                raise ValueError(
                    f"axis {axis!r} references unknown tenant {label!r}; "
                    f"tenants: {labels}"
                )
            def _bump(t: TenantSpec) -> TenantSpec:
                if t.label() != label:
                    return t
                if rest in ("weight", "quota"):
                    return replace(t, **{rest: value})
                return replace(t, scenario=apply_axis(t.scenario, rest, value))
            return replace(
                spec, tenants=tuple(_bump(t) for t in spec.tenants)
            )
        if axis.startswith("admission."):
            if spec.admission is None:
                raise ValueError(
                    f"axis {axis!r} requires the base spec to declare an "
                    "admission policy"
                )
            param = axis.split(".", 1)[1]
            return replace(
                spec, admission=spec.admission.with_params(**{param: value})
            )
        if axis in {f.name for f in fields(spec)}:
            return replace(spec, **{axis: value})
        raise ValueError(f"unknown multi-scenario sweep axis {axis!r}")
    if axis.startswith("policy."):
        param = axis.split(".", 1)[1]
        return replace(spec, policy=spec.policy.with_params(**{param: value}))
    head, _, rest = axis.partition(".")
    if head == "resilience" and rest:
        # resilience.<module>.<field>[.<subfield>] — e.g.
        # resilience.m1.timeout or resilience.m1.retry.max.  The module's
        # hop spec round-trips through its dict form so nested retry
        # fields stay one flat axis name.
        mid, _, path = rest.partition(".")
        if not mid or not path:
            raise ValueError(
                f"resilience axis {axis!r} must be "
                "'resilience.<module>.<field>'"
            )
        hops = dict(spec.resilience)
        if mid not in hops:
            raise ValueError(
                f"axis {axis!r} requires the base spec to declare "
                f"resilience for module {mid!r}"
            )
        data = hops[mid].to_dict()
        node, keys = data, path.split(".")
        for key in keys[:-1]:
            nxt = node.get(key)
            if not isinstance(nxt, dict):
                raise ValueError(f"unknown sweep axis {axis!r}")
            node = nxt
        node[keys[-1]] = value
        hops[mid] = HopResilience.from_dict(data)  # re-validates keys/ranges
        return replace(spec, resilience=hops)
    if rest:
        if head not in ("trace", "app", "scaling", "goodput"):
            raise ValueError(f"unknown sweep axis {axis!r}")
        section = getattr(spec, head)
        if section is None:
            # goodput is optional on the base spec; a goodput.* axis
            # starts from an all-unconstrained spec.
            section = GoodputSpec()
        if rest not in {f.name for f in fields(section)}:
            raise ValueError(f"unknown sweep axis {axis!r}")
        return replace(spec, **{head: replace(section, **{rest: value})})
    if axis in {f.name for f in fields(spec)}:
        return replace(spec, **{axis: value})
    raise ValueError(f"unknown scenario sweep axis {axis!r}")


def scenario_axes(
    base: "Scenario | MultiScenario",
    axes: "Mapping[str, Sequence] | Iterable[tuple[str, Sequence]]",
) -> "list[Scenario | MultiScenario]":
    """Expand a base spec over a cross product of declared axes.

    Covers any point set in scenario space: policies x seeds (the classic
    sweep unit, ``[("policy", [...]), ("seed", [...])]``), any section
    field, and policy parameters, so a Figure-11-style ablation grid
    (``{"policy.lam": [0.05, 0.1, 0.3]}``) sweeps, caches and parallelises
    like any other axis.  Axes expand in declaration order with the last
    axis varying fastest; every produced spec re-runs full construction
    validation.  No axes at all expands to ``[base]``.
    """
    items = list(axes.items()) if isinstance(axes, Mapping) else list(axes)
    out: "list[Scenario | MultiScenario]" = [base]
    for axis, values in items:
        values = list(values)
        if not values:
            raise ValueError(f"sweep axis {axis!r} has no values")
        out = [apply_axis(spec, str(axis), v) for spec in out for v in values]
    return out


@dataclass(frozen=True, kw_only=True)
class SweepSpec(Spec):
    """A declarative sweep: one base spec plus named axes, as one file.

    The serializable form of :func:`scenario_axes` — ``repro scenario
    sweep --file`` auto-detects it (a top-level ``base`` key), so a whole
    ablation study travels as a single JSON document::

        {"name": "fig11",
         "base": {"app": {"name": "tm"}, "policy": "PARD", ...},
         "axes": {"policy.lam": [0.05, 0.1, 0.3], "seed": [0, 1]}}

    Axis values are checked when the grid expands (``validate``), by the
    field each axis sets.
    """

    _section, _prefix = "sweep", "sweep "

    name: str = field(Str(), "")
    base: "Scenario | MultiScenario" = field(Nested(
        (Scenario, MultiScenario), pick=scenario_class,
        what="a scenario or multi scenario (sweep specs do not nest)",
    ))
    # ((axis, (value, ...)), ...) in declaration order
    axes: tuple = field(Axes(Policy(PolicySpec)), ())

    def expand(self) -> "list[Scenario | MultiScenario]":
        """The grid, in deterministic declaration order."""
        return scenario_axes(self.base, self.axes)

    def validate(self) -> "SweepSpec":
        """Validate the base and every expanded grid member up front."""
        for spec in self.expand():
            spec.validate()
        return self
