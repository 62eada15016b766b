"""Declarative study specs: interference grids and capacity planning.

A *study* is the paper-deliverable layer above scenarios and sweeps: one
frozen, JSON-round-tripping spec that names the question ("how much does
an aggressor tenant hurt the victim's goodput?", "how many replicas hold
the SLO at X req/s?") and compiles down to the existing cached sweep
machinery.  Study files are auto-detected by their top-level ``study``
key, so they coexist with scenario/sweep files under one loader
convention.

Two kinds:

* :class:`InterferenceStudy` — a victim/aggressor pair on a shared
  cluster (:class:`~repro.experiments.scenario.MultiScenario`), swept
  over aggressor load (``loads`` sets the aggressor tenant's
  ``trace.base_rate``) crossed with any extra configuration axes
  (``admission.rate``, ``admission.slack``, ``tenant.<label>.quota``, …
  — the same dotted-path axis language as
  :func:`~repro.experiments.scenario.scenario_axes`).
* :class:`CapacityStudy` — bisects over uniform worker counts to find
  the smallest provisioning whose goodput fraction meets ``target`` at
  each offered rate.  Every probe is one sweep cell, so the search runs
  over the on-disk :class:`~repro.experiments.sweep.SweepCache` and
  re-planning never re-simulates a cached cell.
* :class:`ChaosStudy` — seeded random fault schedules (worker kills,
  link cuts, degraded workers) injected into a single-cluster base
  scenario, crossed with resilience-policy axes
  (``resilience.<module>.timeout``, ``resilience.<module>.retry.max``,
  …).  Each schedule is a pure function of its fault seed, so the whole
  artifact — availability, time-to-recover, retry/hedge amplification —
  is reproducible from the spec alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from ..experiments.scenario import (
    MultiScenario,
    Scenario,
    apply_axis,
    scenario_class,
)
from ..policies.spec import PolicySpec
from ..schema import Axes, Int, Nested, Num, Pair, Policy, Seq, Spec, Str, field
from ..simulation.failures import FAULT_KINDS, FailureEvent
from ..simulation.rng import RngStreams

__all__ = [
    "CapacityStudy",
    "ChaosStudy",
    "InterferenceStudy",
    "load_study_file",
    "study_from_dict",
]

#: The configuration axes a study crosses with its own grid dimension.
_AXES = Axes(Policy(PolicySpec))


@dataclass(frozen=True, kw_only=True)
class InterferenceStudy(Spec):
    """Victim goodput vs aggressor load on one shared cluster.

    The grid is ``axes`` (declaration order, extra configuration knobs)
    crossed with ``loads`` (varying fastest): each cell is the base
    :class:`MultiScenario` with the aggressor tenant's ``trace.base_rate``
    replaced by one load value.  Per-tenant worker quotas belong in the
    base spec (``TenantSpec.quota``) or on a ``tenant.<label>.quota``
    axis.
    """

    kind = "interference"
    _section, _prefix = "interference study", "interference "
    _tag = ("study", kind)

    name: str = field(Str(), "")
    victim: str = field(Str())
    aggressor: str = field(Str())
    loads: tuple[float, ...] = field(
        Seq(Num("> 0"), item="aggressor load"), ()
    )
    axes: tuple = field(_AXES, ())
    base: MultiScenario = field(Nested(
        MultiScenario,
        what="a multi-tenant base scenario (a 'tenants' spec)",
    ))

    def _check(self) -> None:
        labels = self.base.tenant_names()
        for role, label in (("victim", self.victim),
                            ("aggressor", self.aggressor)):
            if label not in labels:
                raise ValueError(
                    f"{role} {label!r} is not a tenant of the base scenario; "
                    f"tenants: {labels}"
                )
        if self.victim == self.aggressor:
            raise ValueError("victim and aggressor must be distinct tenants")

    def axis_names(self) -> list[str]:
        """Grid column names in expansion order (loads vary fastest)."""
        return [axis for axis, _ in self.axes] + ["aggressor_rate"]

    def expand(self) -> list[tuple[dict, MultiScenario]]:
        """The grid as ``(axis values, concrete spec)`` pairs, in order."""
        points: list[tuple[dict, MultiScenario]] = [({}, self.base)]
        load_axis = f"tenant.{self.aggressor}.trace.base_rate"
        for axis, values in (*self.axes,
                             (load_axis, self.loads)):
            column = "aggressor_rate" if axis == load_axis else axis
            points = [
                ({**vals, column: v}, apply_axis(spec, axis, v))
                for vals, spec in points
                for v in values
            ]
        return points

    def validate(self) -> "InterferenceStudy":
        """Resolve every reference in every grid member up front."""
        for _, spec in self.expand():
            spec.validate()
        return self


@dataclass(frozen=True, kw_only=True)
class CapacityStudy(Spec):
    """How many workers hold the goodput target at each offered rate?

    For every rate in ``rates`` the planner sets each tenant's (or the
    single app's) ``trace.base_rate`` to that rate and searches uniform
    worker counts in ``[min_workers, max_workers]`` for the smallest one
    whose goodput fraction reaches ``target``.  The goodput fraction is
    the declared-constraints ``good_fraction`` when the spec carries a
    :class:`~repro.metrics.goodput.GoodputSpec`, else the SLO-based
    ``good / total`` share from the run summary.
    """

    kind = "capacity"
    _section, _prefix = "capacity study", "capacity "
    _tag = ("study", kind)

    name: str = field(Str(), "")
    rates: tuple[float, ...] = field(Seq(Num("> 0"), item="offered rate"), ())
    target: float = field(Num("(0, 1]"), 0.95)
    min_workers: int = field(Int(">= 1"), 1)
    max_workers: int = field(Int(">= 1"), 16)
    base: "Scenario | MultiScenario" = field(Nested(
        (Scenario, MultiScenario), pick=scenario_class,
        what="a scenario or multi-scenario base",
    ))

    def _check(self) -> None:
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"capacity max_workers must be >= min_workers, got "
                f"{self.max_workers} < {self.min_workers}"
            )
        scenarios = (
            [t.scenario for t in self.base.tenants]
            if isinstance(self.base, MultiScenario) else [self.base]
        )
        for s in scenarios:
            if s.trace.path is not None:
                raise ValueError(
                    "capacity studies need generator traces: a file-backed "
                    "trace fixes its own arrival rate"
                )
            if s.utilization is not None or s.provision_rate is not None:
                raise ValueError(
                    "capacity studies size workers themselves; drop "
                    "utilization/provision_rate from the base scenario"
                )

    def spec_at(
        self, rate: float, workers: int
    ) -> "Scenario | MultiScenario":
        """One probe: the base at ``rate`` req/s with uniform ``workers``."""
        spec = apply_axis(self.base, "trace.base_rate", rate)
        return replace(spec, workers=workers)

    def validate(self) -> "CapacityStudy":
        """Resolve references on one representative probe per rate."""
        for rate in self.rates:
            self.spec_at(rate, self.min_workers).validate()
        return self


@dataclass(frozen=True, kw_only=True)
class ChaosStudy(Spec):
    """Availability under seeded random fault schedules x resilience axes.

    Each cell replaces the base scenario's ``failures`` with a schedule
    drawn from one fault seed: ``faults`` events with kinds from
    ``kinds``, injection times uniform in ``start`` (fractions of the
    trace duration), outage lengths uniform in ``downtime`` seconds and
    degrade slowdowns uniform in ``factor``.  Link cuts pick a random
    DAG edge (apps without edges fall back to a kill).  Schedules are
    drawn from a named :class:`~repro.simulation.rng.RngStreams` stream,
    so they are a pure, platform-stable function of the seed — the study
    artifact depends on nothing but this spec.

    ``axes`` crosses the schedules with configuration knobs — typically
    the dotted resilience axes (``resilience.<module>.timeout``,
    ``resilience.<module>.retry.max``) over a base that declares
    :class:`~repro.simulation.resilience.HopResilience` hops.
    ``window``/``target`` parameterize the availability columns: the
    per-window good fraction and the time for windowed goodput to climb
    back to ``target`` after the first fault.
    """

    kind = "chaos"
    _section, _prefix = "chaos study", "chaos "
    _tag = ("study", kind)

    name: str = field(Str(), "")
    seeds: tuple[int, ...] = field(Seq(Int(">= 0"), item="fault seed"), (0,))
    faults: int = field(Int(">= 1"), 2)
    kinds: tuple[str, ...] = field(
        Seq(Str(FAULT_KINDS), item="fault kind"), FAULT_KINDS
    )
    # Injection times, as fractions of the trace duration.
    start: tuple[float, float] = field(Pair("[0, 1)"), (0.2, 0.6))
    downtime: tuple[float, float] = field(Pair("> 0"), (1.0, 5.0))
    # Degrade slowdowns.
    factor: tuple[float, float] = field(Pair("> 1"), (1.5, 3.0))
    window: float = field(Num("> 0"), 1.0)
    target: float = field(Num("(0, 1]"), 0.9)
    axes: tuple = field(_AXES, ())
    base: Scenario = field(Nested(
        Scenario,
        what="a single-cluster scenario base (link faults have no "
             "shared-cluster form)",
    ))

    def schedule(self, seed: int) -> tuple[FailureEvent, ...]:
        """The fault schedule for one seed — pure and platform-stable."""
        app = self.base.build_application()
        modules = list(app.spec.module_ids)
        edges = [
            (m.id, sub) for m in app.spec.modules for sub in m.subs
        ]
        rng = RngStreams(seed=int(seed)).stream("chaos")
        duration = self.base.trace.duration
        events = []
        for _ in range(self.faults):
            kind = self.kinds[int(rng.integers(len(self.kinds)))]
            if kind == "link" and not edges:
                kind = "kill"  # single-module app: no edge to cut
            time = round(float(rng.uniform(*self.start)) * duration, 6)
            downtime = round(float(rng.uniform(*self.downtime)), 6)
            if kind == "link":
                src, dst = edges[int(rng.integers(len(edges)))]
                events.append(FailureEvent(
                    time=time, module_id=src, kind="link", dst=dst,
                    downtime=downtime,
                ))
            elif kind == "degrade":
                mid = modules[int(rng.integers(len(modules)))]
                events.append(FailureEvent(
                    time=time, module_id=mid, kind="degrade",
                    downtime=downtime,
                    factor=round(float(rng.uniform(*self.factor)), 6),
                ))
            else:
                mid = modules[int(rng.integers(len(modules)))]
                events.append(FailureEvent(
                    time=time, module_id=mid, downtime=downtime,
                ))
        return tuple(events)

    def axis_names(self) -> list[str]:
        """Grid column names in expansion order (seeds vary fastest)."""
        return [axis for axis, _ in self.axes] + ["fault_seed"]

    def expand(self) -> list[tuple[dict, Scenario]]:
        """The grid as ``(axis values, concrete spec)`` pairs, in order."""
        points: list[tuple[dict, Scenario]] = [({}, self.base)]
        for axis, values in self.axes:
            points = [
                ({**vals, axis: v}, apply_axis(spec, axis, v))
                for vals, spec in points
                for v in values
            ]
        return [
            (
                {**vals, "fault_seed": seed},
                replace(spec, failures=self.schedule(seed)),
            )
            for vals, spec in points
            for seed in self.seeds
        ]

    def validate(self) -> "ChaosStudy":
        """Resolve every reference in every grid member up front."""
        for _, spec in self.expand():
            spec.validate()
        return self


_STUDY_KINDS = {
    "interference": InterferenceStudy,
    "capacity": CapacityStudy,
    "chaos": ChaosStudy,
}


def study_from_dict(data: Any) -> "InterferenceStudy | CapacityStudy":
    """Parse a study file body, dispatched on its ``study`` kind key."""
    if not isinstance(data, dict):
        raise ValueError(
            f"study file must hold a JSON object, got {type(data).__name__}"
        )
    kind = data.get("study")
    if kind not in _STUDY_KINDS:
        raise ValueError(
            f"unknown study kind {kind!r}; expected one of "
            f"{sorted(_STUDY_KINDS)}"
        )
    return _STUDY_KINDS[kind].from_dict(data)


def load_study_file(path: "str | Path") -> "InterferenceStudy | CapacityStudy":
    """Load and parse one study JSON file."""
    return study_from_dict(json.loads(Path(path).read_text()))
