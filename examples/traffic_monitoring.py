#!/usr/bin/env python
"""Traffic monitoring under a flash-crowd burst.

The ``tm`` pipeline (object detection -> face recognition -> text
recognition, 400 ms SLO) is hit by a Twitter-like trace whose rate doubles
abruptly mid-run — the paper's motivating scenario for proactive dropping.
The example prints where each policy drops requests along the pipeline
(the drop-too-late effect of Figure 2c) and the transient drop-rate peak.

Run:  python examples/traffic_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import run_scenario, standard_scenario
from repro.metrics import drop_rate_series, drops_per_module


def main() -> None:
    print("tm x tweet with a 2x mid-run burst\n")
    for policy in ({"name": "PARD", "params": {"samples": 10_000}}, "Nexus"):
        result = run_scenario(standard_scenario(
            "tm", "tweet", policy, duration=90.0, seed=3, utilization=0.9
        ))
        s = result.summary
        shares = drops_per_module(result.collector, result.module_ids)
        times, rates = drop_rate_series(result.collector, window=5.0)
        peak = float(np.max(rates)) if len(rates) else 0.0
        print(f"{result.policy_name}")
        print(f"  goodput          {s.goodput:7.1f}/s")
        print(f"  avg drop rate    {s.drop_rate:8.2%}")
        print(f"  peak 5s drop     {peak:8.2%}")
        print(f"  wasted GPU time  {s.invalid_rate:8.2%}")
        bars = "  drops by module  "
        for mid in result.module_ids:
            bars += f"{mid}:{shares[mid]:>6.1%}  "
        print(bars)
        early = sum(shares[m] for m in result.module_ids[:2])
        print(f"  dropped in first two modules: {early:.1%}\n")


if __name__ == "__main__":
    main()
