#!/usr/bin/env python
"""Machine failure and recovery under different dropping policies.

The paper motivates request dropping with "unpredictable events such as
workload bursts or machine failure" (§1): a failed machine removes
capacity instantly, and the backlog it leaves behind poisons subsequent
requests unless the system sheds load. This example kills one of two
workers of the live-video pipeline's entry module for six seconds and
compares how PARD, Nexus and Naive weather the outage.

The whole experiment is one declarative :class:`~repro.Scenario` — the
workload, the worker plan and the failure schedule are plain data, so the
same spec could be saved as JSON (``scenario.save("outage.json")``), run
via ``repro scenario run --file outage.json`` or swept over seeds in a
process pool.

Run:  python examples/failure_recovery.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import Scenario, run_scenario
from repro.experiments import AppSpec, TraceSpec
from repro.metrics import drop_rate_series
from repro.metrics.export import fault_table, render_console
from repro.simulation import FailureEvent

SCENARIO = Scenario(
    name="lv-outage",
    app=AppSpec(name="lv"),
    trace=TraceSpec(name="poisson", base_rate=130.0, duration=45.0, seed=2),
    workers={"m1": 2, "m2": 2, "m3": 1, "m4": 1, "m5": 2},
    seed=2,
    failures=(
        FailureEvent(time=15.0, module_id="m1", workers=1, downtime=6.0),
    ),
)


def main() -> None:
    print("lv pipeline, 130 req/s, worker failure at t=15s for 6s\n")
    for policy in ("PARD", "Nexus", "Naive"):
        result = run_scenario(replace(SCENARIO, policy=policy))
        summary = result.summary
        times, rates = drop_rate_series(result.collector, window=3.0)
        outage = [r for t, r in zip(times, rates) if 15.0 <= t < 24.0]
        after = [r for t, r in zip(times, rates) if 27.0 <= t < 42.0]
        print(f"{result.policy_name}")
        print(f"  goodput            {summary.goodput:7.1f}/s")
        print(f"  wasted GPU time    {summary.invalid_rate:8.2%}")
        print(f"  drops during outage  {max(outage):8.2%} (peak 3s window)")
        print(f"  drops after recovery {max(after):8.2%} (peak 3s window)")
        print(render_console([fault_table(result.fault_records)]))
        print()


if __name__ == "__main__":
    main()
