"""Time dilation: scaling every time-valued input scales every output time.

Multiply every duration, time and window of a scenario by ``k`` and divide
every rate by ``k``.  A simulator with no hidden time scale then makes the
same decisions, so every counter and status is unchanged and every record
time is exactly ``k`` times the original.  Powers of two keep that exact
in IEEE arithmetic.

The scenario is a two-module chain under overload: Poisson arrivals with
a burst, so the drop policies decide many requests and the observed batch
sizes (PARD's d_k) move during the run.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario

POLICIES = ["PARD", "PARD-split", "PARD-WCL", "Nexus", "Naive", "Clipper++"]
FACTORS = [2.0, 0.5, 0.25]


def chain_scenario(policy: str, k: float = 1.0) -> Scenario:
    """The chain scenario with every time-valued field scaled by ``k``."""
    return Scenario.from_dict({
        "name": "dilation",
        "app": {
            "modules": [
                {"id": "m1", "model": "dil_a", "subs": ["m2"]},
                {"id": "m2", "model": "dil_b", "pres": ["m1"]},
            ],
            "slo": 0.3 * k,
            "profiles": [
                {"name": "dil_a", "base": 0.02 * k, "per_item": 0.008 * k,
                 "max_batch": 16},
                {"name": "dil_b", "base": 0.015 * k, "per_item": 0.006 * k,
                 "max_batch": 16},
            ],
        },
        "trace": {
            "name": "poisson", "base_rate": 400 / k, "duration": 20 * k,
            "bursts": [{"start": 6 * k, "length": 3 * k, "factor": 2.5}],
        },
        "policy": policy,
        "seed": 5,
        "workers": 2,
        "sync_interval": 1.0 * k,
        "stats_window": 5.0 * k,
        "drain": 5.0 * k,
        "scaling": {"enabled": False, "interval": 2.0 * k,
                    "cold_start": 8.0 * k},
    })


def outcome(result):
    """Every record's time-free fields, and its times."""
    records = result.collector.records
    fates = [(r.rid, r.status, r.met_slo, r.dropped_at_module, r.drop_reason,
              tuple((v.module_id, v.batch_size) for v in r.visits))
             for r in records]
    times = [(r.sent_at, r.finished_at) for r in records]
    return fates, times


@pytest.mark.parametrize("policy", POLICIES)
def test_dilation_scales_every_time_exactly(policy):
    base = run_scenario(chain_scenario(policy))
    fates, times = outcome(base)
    assert base.summary.dropped > 0  # overloaded: decisions matter
    for k in FACTORS:
        scaled = run_scenario(chain_scenario(policy, k))
        assert (scaled.summary.total, scaled.summary.good,
                scaled.summary.dropped) == (
            base.summary.total, base.summary.good, base.summary.dropped
        ), f"k={k}"
        scaled_fates, scaled_times = outcome(scaled)
        assert scaled_fates == fates, f"k={k}"
        assert scaled_times == [(s * k, f * k) for s, f in times], f"k={k}"
