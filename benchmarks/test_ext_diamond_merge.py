"""Extension benchmark: token-flow joins on a re-merging diamond DAG.

The programmatic twin of ``examples/scenarios/diamond_merge.json``: two
diamonds in sequence (m1 -> {a, b} -> j1 -> {c, d} -> j2).  Path-counting
join accounting deadlocked on this shape — it demanded three tokens at j2
when only two can ever arrive — so the whole workload is a regression
gate for the token-flow lifecycle: every submitted request must reach a
terminal state under every system, with each join executing exactly once
per completed request, statically and under per-request dynamic routing.
"""

from __future__ import annotations

from collections import Counter

from repro.experiments import AppSpec, Scenario, build_cluster, run_scenario
from repro.metrics import summarize
from repro.pipeline.spec import ModuleSpec
from repro.simulation.request import RequestStatus
from repro.simulation.routing import ProbabilisticRouter
from repro.workload.replay import replay

from .conftest import BENCH_SEED

SYSTEMS = ("PARD", "Clipper++", "Nexus", "Naive")


def diamond_app(slo: float = 0.5) -> AppSpec:
    return AppSpec(
        pipeline="diamond-of-diamonds",
        slo=slo,
        modules=(
            ModuleSpec("m1", "object_detection", subs=("a", "b")),
            ModuleSpec("a", "face_recognition", pres=("m1",), subs=("j1",)),
            ModuleSpec("b", "text_recognition", pres=("m1",), subs=("j1",)),
            ModuleSpec("j1", "person_detection", pres=("a", "b"),
                       subs=("c", "d")),
            ModuleSpec("c", "expression_recognition", pres=("j1",),
                       subs=("j2",)),
            ModuleSpec("d", "pose_recognition", pres=("j1",), subs=("j2",)),
            ModuleSpec("j2", "eye_tracking", pres=("c", "d")),
        ),
    )


def _scenario(system: str, seed: int = BENCH_SEED) -> Scenario:
    return Scenario(
        app=diamond_app(),
        trace={"name": "tweet", "base_rate": 40.0, "duration": 30.0},
        policy=system, seed=seed, workers=1,
    )


def _check_token_invariants(collector) -> None:
    """Every request terminal exactly once; joins fire once per completion."""
    rids = [r.rid for r in collector.records]
    assert len(rids) == len(set(rids))
    for record in collector.records:
        assert record.status is not RequestStatus.IN_FLIGHT
        visited = Counter(v.module_id for v in record.visits)
        assert all(n == 1 for n in visited.values())
        if record.status is RequestStatus.COMPLETED:
            # A completed request merged at both joins, exactly once each.
            assert visited["j1"] == 1 and visited["j2"] == 1


def test_diamond_merge_systems(benchmark):
    def sweep():
        return {
            system: run_scenario(_scenario(system))
            for system in SYSTEMS
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nDiamond-of-diamonds (tweet): goodput / drop / invalid")
    for system, result in results.items():
        s = result.summary
        print(f"  {system:10s} goodput={s.goodput:6.1f}/s "
              f"drop={s.drop_rate:6.2%} invalid={s.invalid_rate:6.2%}")
        _check_token_invariants(result.collector)
        # The join deadlock starved completion entirely; even in this
        # overloaded regime a healthy lifecycle completes a solid share
        # and accounts for the rest as explicit drops.
        explicit_drops = sum(
            1 for r in result.collector.records
            if r.status is RequestStatus.DROPPED
        )
        assert s.completed + explicit_drops == s.total
        assert s.completed > 0.25 * s.total
        # No token state may outlive the run.
        cluster = result.cluster
        assert not cluster._join_arrived
        assert not cluster._join_expected


def test_diamond_merge_dynamic_paths():
    """Per-request single-branch routing at both forks stays accounted."""
    cluster, trace = build_cluster(_scenario("Naive"))
    cluster.router = ProbabilisticRouter(seed=BENCH_SEED)
    replay(trace, cluster)
    summary = summarize(cluster.metrics, duration=trace.duration)
    assert summary.total == trace.count()
    _check_token_invariants(cluster.metrics)
    assert not cluster._join_arrived
    assert not cluster._join_expected
