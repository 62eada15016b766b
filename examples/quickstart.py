#!/usr/bin/env python
"""Quickstart: serve the live-video pipeline under four dropping policies.

Builds the paper's ``lv`` application (5 cascaded models, 500 ms SLO),
replays a bursty Twitter-like trace at ~90% of provisioned capacity, and
compares PARD against Nexus, Clipper++ and a no-dropping baseline.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import run_scenario, standard_scenario


def main() -> None:
    policies = [
        # PardPolicy's research-grade sampler size, not the registry's 2000.
        {"name": "PARD", "params": {"samples": 10_000}},
        "Nexus",
        "Clipper++",
        "Naive",
    ]
    results = [
        run_scenario(standard_scenario(
            "lv", "tweet", policy, duration=60.0, seed=7, utilization=0.9
        ))
        for policy in policies
    ]
    print(f"workload: lv x tweet, base rate ~{results[0].base_rate:.0f} req/s")
    print(f"{'policy':12s} {'goodput':>9s} {'drop rate':>10s} {'invalid rate':>13s}")
    for result in results:
        s = result.summary
        print(
            f"{result.policy_name:12s} {s.goodput:7.1f}/s "
            f"{s.drop_rate:10.2%} {s.invalid_rate:13.2%}"
        )


if __name__ == "__main__":
    main()
