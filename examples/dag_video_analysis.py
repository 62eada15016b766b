#!/usr/bin/env python
"""DAG-style live video analysis (the paper's ``da`` application).

Person detection fans out to pose recognition and face recognition in
parallel; expression recognition joins the branches.  PARD estimates the
end-to-end latency as the maximum over DAG paths, and a drop on either
branch invalidates the sibling branch's computation — this example
measures that cross-branch waste.

Run:  python examples/dag_video_analysis.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import run_scenario, standard_scenario
from repro.simulation.request import RequestStatus


def main() -> None:
    scenario = standard_scenario(
        "da", "azure", duration=90.0, seed=11, utilization=0.85
    )
    app = scenario.build_application()
    print("da pipeline structure:")
    for m in app.spec.modules:
        arrow = f" -> {list(m.subs)}" if m.subs else " (exit)"
        print(f"  {m.id} [{m.model}]{arrow}")
    print(f"SLO: {app.slo * 1000:.0f} ms\n")

    for policy in ({"name": "PARD", "params": {"samples": 10_000}}, "Nexus"):
        result = run_scenario(replace(scenario, policy=policy))
        s = result.summary
        # Wasted cross-branch work: GPU time burnt by requests that were
        # dropped after executing at least one module.
        partial = [
            r
            for r in result.collector.records
            if r.status is RequestStatus.DROPPED and r.visits
        ]
        wasted = sum(r.gpu_time for r in partial)
        print(f"{result.policy_name}")
        print(f"  goodput                {s.goodput:7.1f}/s")
        print(f"  drop rate              {s.drop_rate:8.2%}")
        print(f"  invalid rate           {s.invalid_rate:8.2%}")
        print(f"  partially-executed drops: {len(partial)} "
              f"({wasted:.2f}s GPU wasted)\n")


if __name__ == "__main__":
    main()
