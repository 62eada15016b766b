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

import hashlib
import inspect
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..metrics.goodput import GoodputSpec
from ..pipeline.applications import APPLICATIONS, Application, get_application
from ..pipeline.llm_profiles import profile_from_dict, profile_to_dict
from ..pipeline.profiles import (
    DEFAULT_PROFILES, ModelProfile, ProfileRegistry, check_finite,
)
from ..pipeline.spec import ModuleSpec, PipelineSpec, chain
from ..policies.spec import PolicySpec
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
    "load_scenario_file",
    "scenario_axes",
    "scenario_from_dict",
]


def _freeze(value: Any) -> Any:
    """Recursively convert dicts/lists to sorted tuples (hashable, stable)."""
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for serialisation: tuples back to lists.

    Not an inverse for *nested* dicts (a frozen dict is indistinguishable
    from a list of pairs); :class:`TraceSpec` rejects those up front.
    """
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def _contains_mapping(value: Any) -> bool:
    """True when a (possibly nested) value holds a dict anywhere."""
    if isinstance(value, dict):
        return True
    if isinstance(value, (list, tuple)):
        return any(_contains_mapping(v) for v in value)
    return False


def freeze_trace_args(args: Any) -> tuple:
    """Validate and freeze generator kwargs into hashable sorted pairs.

    :class:`TraceSpec` freezes its ``args`` through this.  Nested mappings are
    rejected: freezing would mangle them into pair-lists that
    :func:`_thaw` cannot tell apart from genuine nested lists.  Keys that
    collide with the fixed :func:`~repro.workload.generators.get_trace`
    keywords are rejected too — they would crash with a TypeError at
    generation time.
    """
    raw = dict(args)
    clashes = {"name", "base_rate", "duration", "seed"} & set(raw)
    if clashes:
        raise ValueError(
            "trace args may not override reserved generator keywords: "
            f"{sorted(clashes)}"
        )
    for key, value in raw.items():
        if _contains_mapping(value):
            raise ValueError(
                f"trace arg {key!r} must not contain nested mappings; "
                "use scalars and (nested) lists"
            )
    return _freeze(raw)


def _canonical(value: Any) -> Any:
    """Normalise numeric spelling for fingerprinting.

    ``Scenario(duration=8)`` and its JSON round-trip (``8.0``) compare
    equal, so they must hash equal too — otherwise a spec authored in
    Python and the same spec re-loaded from a file would miss each
    other's cache entries.  Bools are checked first (bool is an int
    subclass); every other int becomes a float.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _check_keys(data: dict, allowed: set[str], what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(
            f"{what} section must be a mapping, got {type(data).__name__}"
        )
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def _check_provision_targets(
    workers: "int | dict[str, int] | None",
    failures: "tuple[FailureEvent, ...]",
    ids: set[str],
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
        bad = sorted(k for k, v in workers.items() if v < 1)
        if bad:
            raise ValueError(f"workers must be >= 1; got less for: {bad}")
    elif workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for event in failures:
        if event.module_id not in ids:
            raise ValueError(
                f"failure event at t={event.time} references unknown "
                f"{noun} {event.module_id!r}{suffix}"
            )


@dataclass(frozen=True)
class BurstSpec:
    """Rate overlay: multiply arrivals by ``factor`` over one window.

    Applied via :meth:`repro.workload.source.ArrivalSource.overlay_burst`;
    with ``factor > 1`` this is the "workload burst" the paper motivates
    proactive dropping with, declared instead of hand-built.
    """

    start: float
    length: float
    factor: float
    seed: int = 0

    def __post_init__(self) -> None:
        check_finite(self, ("start", "length", "factor"), "burst ")
        if self.start < 0:
            raise ValueError("burst start must be >= 0")
        if self.length <= 0:
            raise ValueError("burst length must be > 0")
        if self.factor <= 0:
            raise ValueError("burst factor must be > 0")

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "length": self.length,
            "factor": self.factor,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BurstSpec":
        _check_keys(data, {"start", "length", "factor", "seed"}, "burst")
        return cls(
            start=float(data["start"]),
            length=float(data["length"]),
            factor=float(data["factor"]),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class TraceSpec:
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

    name: str = "tweet"
    duration: float = 120.0
    base_rate: float | None = None
    seed: int | None = None
    args: tuple = ()
    scale: float = 1.0
    bursts: tuple[BurstSpec, ...] = ()
    path: str | None = None
    digest: str | None = None
    stream: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.duration < math.inf:
            raise ValueError(
                f"trace duration must be finite and > 0, got {self.duration!r}"
            )
        if self.base_rate is not None and not 0 < self.base_rate < math.inf:
            raise ValueError(
                "trace base_rate must be finite and > 0 (or null), got "
                f"{self.base_rate!r}"
            )
        if not 0 < self.scale <= 1.0:
            raise ValueError("trace scale must be in (0, 1] (thinning only)")
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
            if dict(self.args):
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
        object.__setattr__(self, "args", freeze_trace_args(self.args))
        object.__setattr__(
            self,
            "bursts",
            tuple(
                b if isinstance(b, BurstSpec) else BurstSpec.from_dict(b)
                for b in self.bursts
            ),
        )
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
            kwargs = {k: _thaw(v) for k, v in self.args}
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

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "duration": self.duration,
            "base_rate": self.base_rate,
            "seed": self.seed,
            "args": {k: _thaw(v) for k, v in self.args},
            "scale": self.scale,
            "bursts": [b.to_dict() for b in self.bursts],
        }
        # Emitted only when set: every pre-existing generator spec keeps
        # its serialized form — and therefore its cache fingerprint.
        if self.path is not None:
            out["path"] = self.path
        if self.digest is not None:
            out["digest"] = self.digest
        if self.stream:
            out["stream"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSpec":
        _check_keys(
            data,
            {
                "name", "duration", "base_rate", "seed", "args", "scale",
                "bursts", "path", "digest", "stream",
            },
            "trace",
        )
        return cls(
            name=str(data.get("name", "tweet")),
            duration=float(data.get("duration", 120.0)),
            base_rate=(
                None if data.get("base_rate") is None
                else float(data["base_rate"])
            ),
            seed=None if data.get("seed") is None else int(data["seed"]),
            args=dict(data.get("args", {})).items(),
            scale=float(data.get("scale", 1.0)),
            bursts=tuple(
                BurstSpec.from_dict(b) for b in data.get("bursts", [])
            ),
            path=None if data.get("path") is None else str(data["path"]),
            digest=(
                None if data.get("digest") is None else str(data["digest"])
            ),
            stream=bool(data.get("stream", False)),
        )


@dataclass(frozen=True)
class AppSpec:
    """An application declared by registered name or as an inline pipeline.

    Inline pipelines give ``modules`` (ids, models, DAG edges) plus a
    required ``slo`` and any :class:`~repro.pipeline.profiles.ModelProfile`
    entries their models need beyond the defaults — the serializable form
    of a custom pipeline, so it pickles and fingerprints like the rest of
    the scenario.
    """

    name: str | None = None
    modules: tuple[ModuleSpec, ...] = ()
    pipeline: str = "custom"
    slo: float | None = None
    profiles: tuple[ModelProfile, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "modules",
            tuple(
                m if isinstance(m, ModuleSpec) else self._module_from_dict(m)
                for m in self.modules
            ),
        )
        object.__setattr__(
            self,
            "profiles",
            tuple(
                p if isinstance(p, ModelProfile) else profile_from_dict(p)
                for p in self.profiles
            ),
        )
        if (self.name is None) == (not self.modules):
            raise ValueError(
                "an app spec needs exactly one of: a registered name, or "
                "inline modules"
            )
        if self.modules and self.slo is None:
            raise ValueError("an inline pipeline requires an explicit slo")
        check_finite(self, ("slo",), "app ")
        if self.slo is not None and self.slo <= 0:
            raise ValueError("slo must be > 0")

    @staticmethod
    def _module_from_dict(data: dict) -> ModuleSpec:
        _check_keys(data, {"id", "model", "pres", "subs"}, "module")
        return ModuleSpec(
            id=str(data["id"]),
            model=str(data["model"]),
            pres=tuple(str(p) for p in data.get("pres", ())),
            subs=tuple(str(s) for s in data.get("subs", ())),
        )

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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pipeline": self.pipeline,
            "modules": [
                {
                    "id": m.id, "model": m.model,
                    "pres": list(m.pres), "subs": list(m.subs),
                }
                for m in self.modules
            ],
            "slo": self.slo,
            # Either profile flavour: plain fixed-duration dicts or "llm"
            # token-cost dicts (see repro.pipeline.llm_profiles).
            "profiles": [profile_to_dict(p) for p in self.profiles],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AppSpec":
        _check_keys(
            data,
            {"name", "pipeline", "modules", "chain", "slo", "profiles"},
            "app",
        )
        profiles = tuple(
            profile_from_dict(p) for p in data.get("profiles", [])
        )
        slo = None if data.get("slo") is None else float(data["slo"])
        if "chain" in data:
            if data.get("name") or data.get("modules"):
                raise ValueError(
                    "'chain' is exclusive with 'name' and 'modules'"
                )
            return cls.chained(
                [str(m) for m in data["chain"]], slo=slo,
                pipeline=str(data.get("pipeline", "custom")),
                profiles=profiles,
            )
        return cls(
            name=None if data.get("name") is None else str(data["name"]),
            modules=tuple(data.get("modules", ())),
            pipeline=str(data.get("pipeline", "custom")),
            slo=slo,
            profiles=profiles,
        )


@dataclass(frozen=True)
class ScalingSpec:
    """Reactive-scaler configuration (replaces the old bare bool knob)."""

    enabled: bool = False
    interval: float = 2.0
    cold_start: float = 8.0
    headroom: float = 1.1
    min_workers: int = 1
    max_workers: int = 16
    scale_in_patience: int = 4
    graceful_scale_in: bool = False

    def __post_init__(self) -> None:
        check_finite(self, ("interval", "cold_start", "headroom"), "scaling ")
        if self.interval <= 0:
            # interval=0 would flood the event queue with same-timestamp
            # ticks and hang the simulation.
            raise ValueError("scaling interval must be > 0")
        if self.cold_start < 0:
            raise ValueError("scaling cold_start must be >= 0")
        if self.headroom <= 0:
            raise ValueError("scaling headroom must be > 0")
        if self.min_workers < 1:
            raise ValueError("scaling min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValueError("scaling max_workers must be >= min_workers")
        if self.scale_in_patience < 1:
            raise ValueError("scaling scale_in_patience must be >= 1")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScalingSpec":
        allowed = {f.name for f in fields(cls)}
        _check_keys(data, allowed, "scaling")
        # Coerce like every sibling from_dict: JSON authors write `8`
        # where Python holds 8.0, and an uncoerced int would change the
        # fingerprint of an otherwise-equal scenario.
        bool_keys = {"enabled", "graceful_scale_in"}
        int_keys = {"min_workers", "max_workers", "scale_in_patience"}
        kwargs: dict = {}
        for key, value in data.items():
            if key in bool_keys:
                if not isinstance(value, bool):
                    raise ValueError(f"scaling {key} must be true/false")
                kwargs[key] = value
            elif key in int_keys:
                if int(value) != value:
                    raise ValueError(
                        f"scaling {key} must be an integer, got {value}"
                    )
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        return cls(**kwargs)


@dataclass(frozen=True)
class RouterSpec:
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

    kind: str = "static"
    weights: tuple = ()  # frozen (module id, weight) pairs
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("static", "probabilistic"):
            raise ValueError(
                f"router kind must be 'static' or 'probabilistic', "
                f"got {self.kind!r}"
            )
        raw = dict(self.weights)
        if raw and self.kind == "static":
            raise ValueError("a static router takes no weights")
        for key, value in raw.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(
                    f"router weight for {key!r} must be finite, got {value!r}"
                )
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(
                    f"router weight for {key!r} must be > 0, got {value}"
                )
        object.__setattr__(self, "weights", _freeze(raw))

    def build(self, default_seed: int = 0) -> PathRouter:
        """Resolve to a live :class:`~repro.simulation.routing.PathRouter`."""
        if self.kind == "static":
            return StaticRouter()
        seed = self.seed if self.seed is not None else default_seed
        weights = {str(k): float(v) for k, v in self.weights}
        return ProbabilisticRouter(weights or None, seed=seed)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "weights": {k: v for k, v in self.weights},
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RouterSpec":
        _check_keys(data, {"kind", "weights", "seed"}, "router")
        return cls(
            kind=str(data.get("kind", "static")),
            weights=tuple(dict(data.get("weights", {})).items()),
            seed=None if data.get("seed") is None else int(data["seed"]),
        )


@dataclass(frozen=True)
class Scenario:
    """One serializable spec from workload to failure injection.

    The unit of experiment declaration: runnable in-process via
    :func:`repro.experiments.runner.run_scenario`, shippable to sweep
    workers (it pickles), cacheable on disk (it fingerprints), and
    storable as JSON next to the figures it produces.
    """

    app: AppSpec = field(default_factory=lambda: AppSpec(name="lv"))
    trace: TraceSpec = field(default_factory=TraceSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    seed: int = 0
    workers: int | dict[str, int] | None = None
    utilization: float | None = None
    provision_rate: float | None = None
    provision_headroom: float = 1.0
    sync_interval: float = 1.0
    stats_window: float = 5.0
    drain: float = 5.0
    scaling: ScalingSpec = field(default_factory=ScalingSpec)
    failures: tuple[FailureEvent, ...] = ()
    name: str = ""
    #: Token-level SLO constraints (TTFT/TPOT/e2e); when any is declared
    #: the run also produces a :class:`~repro.metrics.goodput.GoodputReport`.
    goodput: GoodputSpec | None = None
    #: Fork routing (None = static fan-out-to-all).
    router: RouterSpec | None = None
    #: Per-hop resilience policies, as (module_id, HopResilience) pairs
    #: (dicts coerce).  Empty — the default — keeps every module on its
    #: resilience-free fast path and the serialized form key-free, so all
    #: pre-existing fingerprints are unchanged.
    resilience: tuple = ()

    def __post_init__(self) -> None:
        # Accept dict forms for the nested specs too, mirroring how
        # failures/bursts/modules coerce — Scenario(app={"name": "tm"})
        # is the natural Python transcription of the JSON shape.
        if isinstance(self.app, dict):
            object.__setattr__(self, "app", AppSpec.from_dict(self.app))
        if isinstance(self.trace, dict):
            object.__setattr__(self, "trace", TraceSpec.from_dict(self.trace))
        if not isinstance(self.policy, PolicySpec):
            # Bare names are the legacy spelling every pre-PolicySpec file
            # (and test) uses; mappings are the parameterized form.
            object.__setattr__(self, "policy", PolicySpec.coerce(self.policy))
        if isinstance(self.scaling, dict):
            object.__setattr__(
                self, "scaling", ScalingSpec.from_dict(self.scaling)
            )
        if isinstance(self.goodput, dict):
            object.__setattr__(
                self, "goodput", GoodputSpec.from_dict(self.goodput)
            )
        if isinstance(self.router, dict):
            object.__setattr__(
                self, "router", RouterSpec.from_dict(self.router)
            )
        if isinstance(self.workers, dict):
            for key, value in self.workers.items():
                if int(value) != value:
                    raise ValueError(
                        f"workers[{key!r}] must be an integer, got {value}"
                    )
            object.__setattr__(
                self,
                "workers",
                {str(k): int(v) for k, v in self.workers.items()},
            )
        elif self.workers is not None:
            if int(self.workers) != self.workers:
                raise ValueError(
                    f"workers must be an integer, got {self.workers}"
                )
            object.__setattr__(self, "workers", int(self.workers))
        check_finite(self, (
            "utilization", "provision_rate", "provision_headroom",
            "sync_interval", "stats_window", "drain",
        ))
        if self.sync_interval <= 0:
            # A zero interval floods the event queue with same-timestamp
            # ticks and the simulation never advances.
            raise ValueError("sync_interval must be > 0")
        if self.stats_window <= 0:
            raise ValueError("stats_window must be > 0")
        if self.drain < 0:
            raise ValueError("drain must be >= 0")
        if self.utilization is not None and self.utilization <= 0:
            raise ValueError("utilization must be > 0 (or null)")
        if self.provision_rate is not None and self.provision_rate <= 0:
            raise ValueError("provision_rate must be > 0 (or null)")
        if self.provision_headroom <= 0:
            raise ValueError("provision_headroom must be > 0")
        object.__setattr__(
            self,
            "failures",
            tuple(
                e if isinstance(e, FailureEvent) else FailureEvent.from_dict(e)
                for e in self.failures
            ),
        )
        pairs = (
            self.resilience.items()
            if isinstance(self.resilience, dict)
            else self.resilience
        )
        object.__setattr__(
            self,
            "resilience",
            tuple(sorted(
                (
                    (
                        str(mid),
                        hop if isinstance(hop, HopResilience)
                        else HopResilience.from_dict(hop),
                    )
                    for mid, hop in pairs
                ),
                key=lambda pair: pair[0],
            )),
        )
        seen_hops = [mid for mid, _ in self.resilience]
        if len(set(seen_hops)) != len(seen_hops):
            raise ValueError("duplicate module id in resilience spec")
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
        if self.failures or self.resilience or isinstance(self.workers, dict):
            module_ids = self._known_module_ids()
            if module_ids is not None:
                self._check_targets(module_ids)
        if not isinstance(self.workers, dict) and (
            self.workers is not None and self.workers < 1
        ):
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def _known_module_ids(self) -> set[str] | None:
        """Module ids when resolvable without running (else ``None``).

        Inline pipelines carry their modules; named apps resolve iff the
        name is already registered.
        """
        if self.app.modules:
            return {m.id for m in self.app.modules}
        if self.app.name in APPLICATIONS:
            try:
                return set(self.app.build().spec.module_ids)
            except (KeyError, ValueError):
                return None
        return None

    def _check_targets(self, module_ids: set[str]) -> None:
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

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "app": self.app.to_dict(),
            "trace": self.trace.to_dict(),
            # Compact: a param-less policy stays the legacy bare string, so
            # old files and old fingerprints survive the PolicySpec move.
            "policy": self.policy.to_compact(),
            "seed": self.seed,
            "workers": (
                dict(self.workers) if isinstance(self.workers, dict)
                else self.workers
            ),
            "utilization": self.utilization,
            "provision_rate": self.provision_rate,
            "provision_headroom": self.provision_headroom,
            "sync_interval": self.sync_interval,
            "stats_window": self.stats_window,
            "drain": self.drain,
            "scaling": self.scaling.to_dict(),
            "failures": [e.to_dict() for e in self.failures],
            "name": self.name,
            "goodput": None if self.goodput is None else self.goodput.to_dict(),
            "router": None if self.router is None else self.router.to_dict(),
        }
        if self.resilience:
            # Only-when-set (the TenantSpec.quota pattern): resilience-free
            # scenarios keep their pre-existing fingerprints byte-identical.
            out["resilience"] = {
                mid: hop.to_dict() for mid, hop in self.resilience
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        _check_keys(
            data,
            {
                "app", "trace", "policy", "seed", "workers", "utilization",
                "provision_rate", "provision_headroom", "sync_interval",
                "stats_window", "drain", "scaling", "failures", "name",
                "goodput", "router", "resilience",
            },
            "scenario",
        )
        # Both workers forms are normalized/validated by __post_init__.
        workers = data.get("workers")
        return cls(
            app=AppSpec.from_dict(data.get("app", {"name": "lv"})),
            trace=TraceSpec.from_dict(data.get("trace", {})),
            # A bare name (legacy) or a {"name", "params"} mapping; the
            # constructor coerces either into a PolicySpec.
            policy=PolicySpec.from_dict(data.get("policy", "PARD")),
            seed=int(data.get("seed", 0)),
            workers=workers,
            utilization=(
                None if data.get("utilization") is None
                else float(data["utilization"])
            ),
            provision_rate=(
                None if data.get("provision_rate") is None
                else float(data["provision_rate"])
            ),
            provision_headroom=float(data.get("provision_headroom", 1.0)),
            sync_interval=float(data.get("sync_interval", 1.0)),
            stats_window=float(data.get("stats_window", 5.0)),
            drain=float(data.get("drain", 5.0)),
            scaling=ScalingSpec.from_dict(data.get("scaling", {})),
            failures=tuple(
                FailureEvent.from_dict(e) for e in data.get("failures", [])
            ),
            name=str(data.get("name", "")),
            goodput=(
                None if data.get("goodput") is None
                else GoodputSpec.from_dict(data["goodput"])
            ),
            router=(
                None if data.get("router") is None
                else RouterSpec.from_dict(data["router"])
            ),
            resilience=data.get("resilience", ()),
        )

    def resilience_map(self) -> dict[str, HopResilience] | None:
        """Runtime form for :class:`Cluster` (``None`` = fast path)."""
        if not self.resilience:
            return None
        return dict(self.resilience)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def fingerprint(self) -> str:
        """Stable hex digest of the full spec (cache identity).

        Canonical over numeric spelling: equal scenarios fingerprint
        equally whether fields were authored as ints or floats, in Python
        or in JSON.
        """
        blob = json.dumps(_canonical(self.to_dict()), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TenantSpec:
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

    scenario: Scenario
    weight: float = 1.0
    quota: int | dict[str, int] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.scenario, dict):
            object.__setattr__(
                self, "scenario", Scenario.from_dict(self.scenario)
            )
        check_finite(self, ("weight",), "tenant ")
        if self.weight <= 0:
            raise ValueError("tenant weight must be > 0")
        if isinstance(self.quota, dict):
            cleaned = {}
            for key, value in self.quota.items():
                if int(value) != value:
                    raise ValueError(
                        f"tenant quota[{key!r}] must be an integer, "
                        f"got {value}"
                    )
                if value < 1:
                    raise ValueError(
                        f"tenant quota[{key!r}] must be >= 1, got {value}"
                    )
                cleaned[str(key)] = int(value)
            if not cleaned:
                raise ValueError(
                    "a tenant quota mapping needs at least one pool entry"
                )
            object.__setattr__(self, "quota", cleaned)
        elif self.quota is not None:
            if int(self.quota) != self.quota:
                raise ValueError(
                    f"tenant quota must be an integer, got {self.quota}"
                )
            if self.quota < 1:
                raise ValueError(
                    f"tenant quota must be >= 1, got {self.quota}"
                )
            object.__setattr__(self, "quota", int(self.quota))

    def label(self) -> str:
        """The tenant's identity inside the shared cluster."""
        s = self.scenario
        return s.name or s.app.name or s.app.pipeline

    def to_dict(self) -> dict:
        out = {"weight": self.weight, "scenario": self.scenario.to_dict()}
        # Emitted only when set, so pre-quota specs keep their serialized
        # form — and therefore their cache fingerprints.
        if self.quota is not None:
            out["quota"] = (
                dict(self.quota) if isinstance(self.quota, dict)
                else self.quota
            )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        _check_keys(data, {"weight", "scenario", "quota"}, "tenant")
        if "scenario" not in data:
            raise ValueError("tenant entry missing required key 'scenario'")
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            weight=float(data.get("weight", 1.0)),
            quota=data.get("quota"),
        )


@dataclass(frozen=True)
class MultiScenario:
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

    tenants: tuple[TenantSpec, ...] = ()
    workers: int | dict[str, int] | None = None  # keyed by pool id
    scaling: ScalingSpec = field(default_factory=ScalingSpec)
    failures: tuple[FailureEvent, ...] = ()  # module_id is a pool id
    provision_headroom: float = 1.0
    sync_interval: float = 1.0
    stats_window: float = 5.0
    drain: float = 5.0
    seed: int = 0
    name: str = ""
    #: Cross-app fairness policy on the admission seam (None = tenants'
    #: own policies only); resolved via the admission registry
    #: (:func:`repro.policies.registry.register_admission`).
    admission: PolicySpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "tenants",
            tuple(
                t if isinstance(t, TenantSpec) else TenantSpec.from_dict(t)
                for t in self.tenants
            ),
        )
        if not self.tenants:
            raise ValueError("a multi scenario needs at least one tenant")
        if isinstance(self.workers, dict):
            for key, value in self.workers.items():
                if int(value) != value:
                    raise ValueError(
                        f"workers[{key!r}] must be an integer, got {value}"
                    )
            object.__setattr__(
                self,
                "workers",
                {str(k): int(v) for k, v in self.workers.items()},
            )
        elif self.workers is not None:
            if int(self.workers) != self.workers:
                raise ValueError(
                    f"workers must be an integer, got {self.workers}"
                )
            object.__setattr__(self, "workers", int(self.workers))
        if isinstance(self.scaling, dict):
            object.__setattr__(
                self, "scaling", ScalingSpec.from_dict(self.scaling)
            )
        object.__setattr__(
            self,
            "failures",
            tuple(
                e if isinstance(e, FailureEvent) else FailureEvent.from_dict(e)
                for e in self.failures
            ),
        )
        check_finite(self, (
            "provision_headroom", "sync_interval", "stats_window", "drain",
        ))
        if self.provision_headroom <= 0:
            raise ValueError("provision_headroom must be > 0")
        if self.sync_interval <= 0:
            raise ValueError("sync_interval must be > 0")
        if self.stats_window <= 0:
            raise ValueError("stats_window must be > 0")
        if self.drain < 0:
            raise ValueError("drain must be >= 0")
        if self.admission is not None and not isinstance(
            self.admission, PolicySpec
        ):
            object.__setattr__(
                self, "admission", PolicySpec.coerce(self.admission)
            )
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
        elif self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def _check_labels(self) -> None:
        labels = [t.label() for t in self.tenants]
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        if dupes:
            raise ValueError(
                f"tenant labels must be unique, got duplicates: {dupes}; "
                "give tenants distinct scenario names"
            )

    def _known_pools(self) -> "dict | None":
        """The pool layout when every tenant app resolves now, else None."""
        try:
            pools, _ = self.pool_layout()
        except (KeyError, ValueError):
            return None
        return pools

    def _check_pool_targets(self, pools: dict) -> None:
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
        self._check_pool_targets(pools)
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

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "tenants": [t.to_dict() for t in self.tenants],
            "workers": (
                dict(self.workers) if isinstance(self.workers, dict)
                else self.workers
            ),
            "scaling": self.scaling.to_dict(),
            "failures": [e.to_dict() for e in self.failures],
            "provision_headroom": self.provision_headroom,
            "sync_interval": self.sync_interval,
            "stats_window": self.stats_window,
            "drain": self.drain,
            "seed": self.seed,
            "name": self.name,
            "admission": (
                None if self.admission is None else self.admission.to_compact()
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MultiScenario":
        _check_keys(
            data,
            {
                "tenants", "workers", "scaling", "failures",
                "provision_headroom", "sync_interval", "stats_window",
                "drain", "seed", "name", "admission",
            },
            "multi scenario",
        )
        return cls(
            tenants=tuple(
                TenantSpec.from_dict(t) for t in data.get("tenants", [])
            ),
            workers=data.get("workers"),
            scaling=ScalingSpec.from_dict(data.get("scaling", {})),
            failures=tuple(
                FailureEvent.from_dict(e) for e in data.get("failures", [])
            ),
            provision_headroom=float(data.get("provision_headroom", 1.0)),
            sync_interval=float(data.get("sync_interval", 1.0)),
            stats_window=float(data.get("stats_window", 5.0)),
            drain=float(data.get("drain", 5.0)),
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "")),
            admission=(
                None if data.get("admission") is None
                else PolicySpec.from_dict(data["admission"])
            ),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MultiScenario":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "MultiScenario":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def fingerprint(self) -> str:
        """Stable hex digest of the full spec (cache identity)."""
        blob = json.dumps(_canonical(self.to_dict()), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
    if "tenants" in data:
        return MultiScenario.from_dict(data)
    return Scenario.from_dict(data)


def load_scenario_file(path: str | Path) -> "Scenario | MultiScenario | SweepSpec":
    """Load a scenario file of any schema (see :func:`scenario_from_dict`)."""
    return scenario_from_dict(json.loads(Path(path).read_text()))


def _apply_axis(
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
                replace(t, scenario=_apply_axis(t.scenario, axis, value))
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
                return replace(t, scenario=_apply_axis(t.scenario, rest, value))
            return replace(
                spec, tenants=tuple(_bump(t) for t in spec.tenants)
            )
        if axis == "admission":
            return replace(spec, admission=PolicySpec.coerce(value))
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
    if axis == "policy":
        return replace(spec, policy=PolicySpec.coerce(value))
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
        return replace(spec, resilience=tuple(sorted(hops.items())))
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
        out = [_apply_axis(spec, str(axis), v) for spec in out for v in values]
    return out


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: one base spec plus named axes, as one file.

    The serializable form of :func:`scenario_axes` — ``repro scenario
    sweep --file`` auto-detects it (a top-level ``base`` key), so a whole
    ablation study travels as a single JSON document::

        {"name": "fig11",
         "base": {"app": {"name": "tm"}, "policy": "PARD", ...},
         "axes": {"policy.lam": [0.05, 0.1, 0.3], "seed": [0, 1]}}
    """

    base: "Scenario | MultiScenario"
    axes: tuple = ()  # ((axis, (value, ...)), ...) in declaration order
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.base, dict):
            object.__setattr__(self, "base", scenario_from_dict(self.base))
        if isinstance(self.base, SweepSpec):
            raise ValueError("sweep specs do not nest")
        raw = (
            self.axes.items() if isinstance(self.axes, Mapping) else self.axes
        )
        frozen: list[tuple[str, tuple]] = []
        for axis, values in raw:
            axis = str(axis)
            values = list(values)
            if not values:
                raise ValueError(f"sweep axis {axis!r} has no values")
            if axis in ("policy", "admission"):
                values = [PolicySpec.coerce(v) for v in values]
            else:
                bad = [v for v in values if isinstance(v, (dict, list, tuple))]
                if bad:
                    raise ValueError(
                        f"sweep axis {axis!r} values must be scalars"
                    )
            frozen.append((axis, tuple(values)))
        object.__setattr__(self, "axes", tuple(frozen))

    def expand(self) -> "list[Scenario | MultiScenario]":
        """The grid, in deterministic declaration order."""
        return scenario_axes(self.base, self.axes)

    def validate(self) -> "SweepSpec":
        """Validate the base and every expanded grid member up front."""
        for spec in self.expand():
            spec.validate()
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": {
                axis: [
                    v.to_compact() if isinstance(v, PolicySpec) else v
                    for v in values
                ]
                for axis, values in self.axes
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        _check_keys(data, {"base", "axes", "name"}, "sweep")
        if "base" not in data:
            raise ValueError("a sweep file requires a 'base' scenario")
        axes = data.get("axes", {})
        if not isinstance(axes, dict):
            raise ValueError("sweep 'axes' must be a mapping of axis -> values")
        return cls(
            base=scenario_from_dict(data["base"]),
            axes=tuple(axes.items()),
            name=str(data.get("name", "")),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))
