"""Scenario timeline rendering: declared load vs failures vs goodput.

``repro scenario render`` answers "what did this spec *declare*, and what
actually happened?" in one windowed table: the declared rate envelope
(base rate x thinning x active burst factors, summed over tenants), the
failure schedule, and the measured arrival/goodput/drop series from one
run.  The table exports through :mod:`repro.metrics.export`, so the same
timeline renders as console text, markdown, CSV or a JSON artifact.
"""

from __future__ import annotations

import numpy as np

from ..experiments.runner import (
    ExperimentConfig,
    run_multi_scenario,
    run_scenario,
)
from ..experiments.scenario import MultiScenario, Scenario
from ..metrics.analysis import merge_collectors
from ..metrics.export import Artifact, TableData

__all__ = ["render_timeline"]


def _declared_rate(scenario: Scenario, weight: float, t: float) -> float:
    """The declared arrival intensity of one tenant at time ``t``.

    Base rate (calibrated when the spec asks for it) x weight x thinning,
    multiplied by every burst overlay active at ``t``.  Zero past the
    trace's declared end.  File-backed traces have no declared envelope —
    the file *is* the realization — so they contribute only their bursts
    over a NaN base, which we report as 0 (the measured arrival column
    carries the information instead).
    """
    trace = scenario.trace
    if t >= trace.duration:
        return 0.0
    if trace.path is not None:
        return 0.0
    rate = ExperimentConfig(scenario).resolve_base_rate() * weight * trace.scale
    for burst in trace.bursts:
        if burst.start <= t < burst.start + burst.length:
            rate *= burst.factor
    return rate


def render_timeline(
    spec: "Scenario | MultiScenario", window: float = 1.0
) -> Artifact:
    """Run ``spec`` once and tabulate its timeline in ``window``-s bins.

    Columns per window: the declared rate envelope, the measured arrival
    rate, the measured goodput (SLO-met completions / s), the good and
    dropped fractions of the window's arrivals, and any failure events
    scheduled inside the window (``pool@t-n``, comma-joined).
    """
    if window <= 0:
        raise ValueError("window must be > 0")
    if isinstance(spec, MultiScenario):
        result = run_multi_scenario(spec)
        collector = merge_collectors(result.collectors)
        duration = spec.duration()
        failures = spec.failures
        tenant_rates = [
            (t.scenario, t.weight) for t in spec.tenants
        ]
        name = spec.name or "+".join(spec.tenant_names())
    elif isinstance(spec, Scenario):
        result = run_scenario(spec)
        collector = result.collector
        duration = spec.trace.duration
        failures = spec.failures
        tenant_rates = [(spec, 1.0)]
        name = spec.name or spec.app.name or spec.app.pipeline
    else:
        raise TypeError(
            "render_timeline takes a Scenario or MultiScenario, got "
            f"{type(spec).__name__}"
        )

    edges = np.arange(0.0, duration + window, window)
    records = collector.records
    sent = np.array([r.sent_at for r in records])
    good = np.array([r.met_slo for r in records], dtype=bool)
    dropped = np.array([r.counts_as_dropped for r in records], dtype=bool)
    if len(records):
        arrivals, _ = np.histogram(sent, bins=edges)
        goods, _ = np.histogram(sent[good], bins=edges)
        drops, _ = np.histogram(sent[dropped], bins=edges)
    else:
        zero = np.zeros(len(edges) - 1, dtype=int)
        arrivals = goods = drops = zero

    rows = []
    for i, start in enumerate(edges[:-1]):
        start = float(start)
        mid = start + window / 2
        declared = sum(
            _declared_rate(s, w, mid) for s, w in tenant_rates
        )
        n = int(arrivals[i])
        events = ", ".join(
            f"{e.module_id}@{e.time:g}-{e.workers}"
            for e in failures
            if start <= e.time < start + window
        )
        rows.append((
            start,
            declared,
            n / window,
            int(goods[i]) / window,
            (int(goods[i]) / n) if n else None,
            (int(drops[i]) / n) if n else None,
            events,
        ))
    table = TableData(
        name="timeline",
        columns=("t", "declared_rate", "arrival_rate", "goodput",
                 "good_fraction", "drop_fraction", "failures"),
        rows=tuple(rows),
        formats=(".1f", ".2f", ".2f", ".2f", ".2%", ".2%", None),
    )
    return Artifact(
        name=name or "timeline",
        tables=(table,),
        meta={
            "window": window,
            "duration": duration,
            "fingerprint": spec.fingerprint(),
        },
    )
