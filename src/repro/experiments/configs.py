"""Named experiment scenarios matching the paper's evaluation.

The paper evaluates 12 workloads — the cross product of four applications
(lv, tm, gm, da) and three traces (wiki, tweet, azure) — on a 64-GPU
cluster at hundreds of requests/second.  ``standard_scenario`` scales this
to a simulation that runs in seconds while preserving the load regime: the
cluster is provisioned for roughly the trace's mean rate, so workload
swings push modules in and out of overload exactly as in the paper.
"""

from __future__ import annotations

from ..pipeline.applications import known_applications
from ..policies.registry import SYSTEM_FACTORIES, known_policies, make_policy
from ..policies.spec import PolicySpec
from ..workload.generators import known_traces
from .scenario import AppSpec, Scenario, ScalingSpec, TraceSpec

#: The paper's own evaluation grid (the cross product is its 12 workloads).
#: Registries may hold more — ``standard_scenario`` accepts anything
#: registered; these tuples stay the canonical paper sets.
APPS = ("lv", "tm", "gm", "da")
TRACES = ("wiki", "tweet", "azure")

__all__ = [
    "APPS",
    "SYSTEM_FACTORIES",
    "TRACES",
    "known_policies",
    "make_policy",
    "standard_scenario",
]


def standard_scenario(
    app: str,
    trace: str,
    policy: str | PolicySpec = "PARD",
    *,
    seed: int = 0,
    duration: float = 120.0,
    utilization: float | None = 0.9,
    scaling: bool = True,
    slo: float | None = None,
    base_rate: float | None = None,
    **fields,
) -> Scenario:
    """The scaled-down equivalent of one of the paper's 12 workloads.

    Provisioning targets the mean trace rate, so bursts (tweet's 2x step,
    azure's spikes) genuinely exceed capacity — the regime where dropping
    policies differentiate.  ``slo`` overrides the application SLO,
    ``base_rate`` pins the trace rate (with ``utilization=None``), and
    ``fields`` are any other :class:`Scenario` fields (``workers``,
    ``stats_window``, ...).
    """
    if app not in known_applications():
        raise ValueError(
            f"unknown app {app!r}; expected one of {known_applications()}"
        )
    if trace not in known_traces():
        raise ValueError(
            f"unknown trace {trace!r}; expected one of {known_traces()}"
        )
    return Scenario(
        app=AppSpec(name=app, slo=slo),
        trace=TraceSpec(name=trace, duration=duration, base_rate=base_rate),
        policy=policy,
        seed=seed,
        utilization=utilization,
        # The paper's testbed scales workers with the request rate (§5.1);
        # cold starts during bursts are part of the regime being reproduced.
        scaling=ScalingSpec(enabled=scaling),
        **fields,
    )
