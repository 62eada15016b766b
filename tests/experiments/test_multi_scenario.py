"""Tests for the declarative shared-cluster MultiScenario surface."""

from __future__ import annotations

import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.runner import run_multi_scenario, run_scenario
from repro.experiments.scenario import (
    AppSpec,
    BurstSpec,
    MultiScenario,
    Scenario,
    ScalingSpec,
    TenantSpec,
    TraceSpec,
    load_scenario_file,
    scenario_axes,
    scenario_from_dict,
)
from repro.experiments.sweep import (
    SweepCell,
    cell_fingerprint,
    run_sweep,
    scenario_cells,
)
from repro.pipeline.applications import APPLICATIONS
from repro.pipeline.profiles import ModelProfile
from repro.simulation.failures import FailureEvent


def victim_scenario(**overrides) -> Scenario:
    """A small two-module inline pipeline on private model profiles."""
    defaults = dict(
        name="victim",
        app=AppSpec.chained(
            ["vic_a", "vic_b"],
            slo=0.35,
            pipeline="victim-pipe",
            profiles=[
                ModelProfile("vic_a", base=0.020, per_item=0.006, max_batch=16),
                ModelProfile("vic_b", base=0.012, per_item=0.004, max_batch=16),
            ],
        ),
        trace=TraceSpec(name="poisson", duration=8.0, base_rate=50.0),
        policy="PARD",
        seed=3,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def aggressor_scenario(**overrides) -> Scenario:
    """A one-module pipeline on its own profile, driven into overload."""
    defaults = dict(
        name="aggressor",
        app=AppSpec.chained(
            ["agg_a"],
            slo=0.25,
            pipeline="aggressor-pipe",
            profiles=[
                ModelProfile("agg_a", base=0.030, per_item=0.01, max_batch=8),
            ],
        ),
        trace=TraceSpec(name="poisson", duration=8.0, base_rate=300.0),
        policy="Naive",
        seed=5,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def full_multi(**overrides) -> MultiScenario:
    defaults = dict(
        name="pair",
        tenants=(
            TenantSpec(scenario=victim_scenario()),
            TenantSpec(scenario=aggressor_scenario(), weight=2.0),
        ),
        workers={"vic_a": 2, "vic_b": 2, "agg_a": 1},
        seed=0,
    )
    defaults.update(overrides)
    return MultiScenario(**defaults)


class TestRoundTrip:
    def test_dict_round_trip(self):
        ms = full_multi()
        assert MultiScenario.from_dict(ms.to_dict()) == ms

    def test_json_round_trip(self):
        ms = full_multi()
        assert MultiScenario.from_json(ms.to_json()) == ms

    def test_file_round_trip_and_auto_detection(self, tmp_path):
        ms = full_multi()
        path = tmp_path / "multi.json"
        ms.save(path)
        loaded = load_scenario_file(path)
        assert isinstance(loaded, MultiScenario)
        assert loaded == ms
        # A single scenario file detects as Scenario through the same door.
        single = victim_scenario()
        spath = tmp_path / "single.json"
        single.save(spath)
        assert load_scenario_file(spath) == single

    def test_pickles(self):
        ms = full_multi()
        assert pickle.loads(pickle.dumps(ms)) == ms

    def test_dict_forms_coerced_at_construction(self):
        ms = MultiScenario(
            tenants=(
                {"scenario": {"app": {"name": "tm"},
                              "trace": {"base_rate": 20, "duration": 4}}},
                {"weight": 2,
                 "scenario": {"name": "b", "app": {"name": "lv"},
                              "trace": {"base_rate": 10, "duration": 4}}},
            ),
            scaling={"enabled": True},
        )
        assert isinstance(ms.tenants[0], TenantSpec)
        assert isinstance(ms.scaling, ScalingSpec)
        assert ms.tenants[1].weight == pytest.approx(2.0)

    def test_schema_detection_from_dict(self):
        assert isinstance(
            scenario_from_dict(full_multi().to_dict()), MultiScenario
        )
        assert isinstance(
            scenario_from_dict({"app": {"name": "tm"}}), Scenario
        )


class TestFingerprint:
    def test_stable(self):
        assert full_multi().fingerprint() == full_multi().fingerprint()

    def test_canonical_over_numeric_spelling(self):
        ms = full_multi()
        again = MultiScenario.from_dict(ms.to_dict())
        assert again.fingerprint() == ms.fingerprint()

    def test_sensitive_to_spec_changes(self):
        base = full_multi()
        assert base.fingerprint() != replace(base, seed=9).fingerprint()
        heavier = replace(
            base,
            tenants=(base.tenants[0],
                     replace(base.tenants[1], weight=3.0)),
        )
        assert base.fingerprint() != heavier.fingerprint()
        other_policy = replace(
            base,
            tenants=(
                replace(base.tenants[0],
                        scenario=replace(base.tenants[0].scenario,
                                         policy="Naive")),
                base.tenants[1],
            ),
        )
        assert base.fingerprint() != other_policy.fingerprint()


class TestValidation:
    def test_needs_at_least_one_tenant(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            MultiScenario(tenants=())

    def test_duplicate_tenant_labels_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unique"):
            full_multi(
                tenants=(
                    TenantSpec(scenario=victim_scenario()),
                    TenantSpec(scenario=victim_scenario(seed=9)),
                ),
            )

    def test_tenant_workers_rejected(self):
        ms = full_multi(
            tenants=(
                TenantSpec(scenario=victim_scenario(workers=2)),
                TenantSpec(scenario=aggressor_scenario()),
            ),
        )
        with pytest.raises(ValueError, match="cluster-level"):
            ms.validate()

    def test_tenant_scaling_rejected(self):
        ms = full_multi(
            tenants=(
                TenantSpec(scenario=victim_scenario(
                    scaling=ScalingSpec(enabled=True))),
                TenantSpec(scenario=aggressor_scenario()),
            ),
        )
        with pytest.raises(ValueError, match="shared cluster scales"):
            ms.validate()

    def test_tenant_failures_rejected(self):
        ms = full_multi(
            tenants=(
                TenantSpec(scenario=victim_scenario(
                    failures=(FailureEvent(time=1.0, module_id="m1"),))),
                TenantSpec(scenario=aggressor_scenario()),
            ),
        )
        with pytest.raises(ValueError, match="pool-keyed"):
            ms.validate()

    def test_link_faults_rejected_for_shared_clusters(self):
        # Shared-cluster failures target worker pools; a link is an edge
        # of one tenant's DAG, which has no pool-keyed form.
        with pytest.raises(ValueError, match="single-cluster only"):
            full_multi(
                failures=(
                    FailureEvent(time=1.0, module_id="vic_a", kind="link",
                                 dst="vic_b"),
                ),
            )

    def test_tenant_resilience_rejected(self):
        ms = full_multi(
            tenants=(
                TenantSpec(scenario=victim_scenario(
                    resilience={"m1": {"timeout": 0.2}})),
                TenantSpec(scenario=aggressor_scenario()),
            ),
        )
        with pytest.raises(ValueError, match="per-hop resilience"):
            ms.validate()

    def test_tenant_utilization_rejected(self):
        ms = full_multi(
            tenants=(
                TenantSpec(scenario=victim_scenario(
                    utilization=0.9,
                    trace=TraceSpec(name="poisson", duration=8.0))),
                TenantSpec(scenario=aggressor_scenario()),
            ),
        )
        with pytest.raises(ValueError, match="ambiguous"):
            ms.validate()

    def test_workers_must_cover_every_pool(self):
        # Inline tenant apps resolve at construction, so mistargeted pool
        # references fail fast there instead of as a mid-run KeyError.
        with pytest.raises(ValueError, match="missing"):
            full_multi(workers={"vic_a": 2, "vic_b": 2})

    def test_workers_unknown_pool_rejected(self):
        with pytest.raises(ValueError, match="unknown pools"):
            full_multi(
                workers={"vic_a": 2, "vic_b": 2, "agg_a": 1, "bogus": 3}
            )

    def test_failure_unknown_pool_rejected(self):
        with pytest.raises(ValueError, match="unknown pool"):
            full_multi(
                failures=(FailureEvent(time=1.0, module_id="nosuch"),)
            )

    def test_failure_beyond_longest_trace_rejected(self):
        with pytest.raises(ValueError, match="outside the longest"):
            full_multi(
                failures=(FailureEvent(time=100.0, module_id="vic_a"),)
            )

    def test_conflicting_profiles_rejected(self):
        clashing = aggressor_scenario(
            app=AppSpec.chained(
                ["vic_a"],
                slo=0.25,
                pipeline="aggressor-pipe",
                profiles=[
                    ModelProfile("vic_a", base=0.9, per_item=0.5, max_batch=4),
                ],
            ),
        )
        ms = full_multi(
            tenants=(
                TenantSpec(scenario=victim_scenario()),
                TenantSpec(scenario=clashing),
            ),
            workers=None,
        )
        with pytest.raises(ValueError, match="conflicting definitions"):
            ms.validate()

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            TenantSpec(scenario=victim_scenario(), weight=0.0)

    def test_valid_spec_passes_and_chains(self):
        ms = full_multi()
        assert ms.validate() is ms


class TestGrid:
    def test_policies_apply_to_every_tenant(self):
        grid = scenario_axes(full_multi(), [("policy", ["PARD", "Naive"]),
                                            ("seed", [0, 1, 2])])
        assert len(grid) == 6
        for ms in grid:
            policies = {t.scenario.policy for t in ms.tenants}
            assert len(policies) == 1
        assert {ms.seed for ms in grid} == {0, 1, 2}

    def test_empty_axes_fall_back_to_base(self):
        base = full_multi()
        assert scenario_axes(base, []) == [base]

    def test_grid_cells_lay_out_the_pools_once(self, monkeypatch):
        # Every construction of a spec with failures checks their pool
        # targets; a grid must not build every tenant app once per cell.
        tm = APPLICATIONS["tm"]
        monkeypatch.setitem(APPLICATIONS, "tm", lambda: tm())  # memo miss
        calls = []
        layout = MultiScenario.pool_layout

        def counting_layout(self):
            calls.append(1)
            return layout(self)

        monkeypatch.setattr(MultiScenario, "pool_layout", counting_layout)
        base = load_scenario_file(
            Path(__file__).resolve().parents[2]
            / "examples" / "scenarios" / "shared_cluster.json"
        )
        cells = [replace(base, seed=s) for s in range(100)]
        assert len(cells) == 100 and len(calls) == 1
        with pytest.raises(ValueError, match="unknown pool"):
            replace(base, failures=(FailureEvent(time=1.0, module_id="nosuch"),))

    def test_reregistered_app_factory_misses_the_pool_memo(self, monkeypatch):
        def one_tenant() -> MultiScenario:
            tenant = Scenario(name="t", app=AppSpec(name="tm"))
            return MultiScenario(
                tenants=(TenantSpec(scenario=tenant),),
                failures=(FailureEvent(time=1.0, module_id="icon_recognition"),),
            )

        with pytest.raises(ValueError, match="unknown pool"):
            one_tenant()
        # A new factory under the same name (here: gm, which has an
        # icon_recognition module) is laid out afresh.
        monkeypatch.setitem(APPLICATIONS, "tm", APPLICATIONS["gm"])
        assert one_tenant().failures


class TestExecution:
    def test_runs_end_to_end_with_per_app_books(self):
        result = run_multi_scenario(full_multi())
        assert set(result.summaries) == {"victim", "aggressor"}
        for name, trace in result.traces.items():
            assert result.summaries[name].total == trace.count()
        total = sum(s.total for s in result.summaries.values())
        assert result.aggregate.total == total
        assert set(result.pool_ids) == {"vic_a", "vic_b", "agg_a"}

    def test_weight_scales_tenant_traffic(self):
        light = full_multi()
        heavy = full_multi(
            tenants=(light.tenants[0],
                     replace(light.tenants[1], weight=4.0)),
        )
        r_light = run_multi_scenario(light)
        r_heavy = run_multi_scenario(heavy)
        assert (r_heavy.summaries["aggressor"].total
                > 1.5 * r_light.summaries["aggressor"].total)
        # weight=2.0 -> base 300*2; weight=4.0 -> 300*4.

    def test_auto_provisioning_covers_all_pools(self):
        ms = full_multi(workers=None)
        result = run_multi_scenario(ms)
        assert all(
            pool.n_workers >= 1 for pool in result.cluster.pools.values()
        )
        # The aggressor pool carries 2x the victim rate and a slower
        # model, so it must be provisioned wider than one worker.
        assert result.cluster.pools["agg_a"].n_workers > 1

    def test_shared_pool_contention_hurts_and_failures_fire(self):
        shared_victim = victim_scenario(
            app=AppSpec.chained(
                ["shared_m"],
                slo=0.3,
                pipeline="victim-pipe",
                profiles=[ModelProfile("shared_m", base=0.02,
                                       per_item=0.005, max_batch=8)],
            ),
        )
        shared_aggr = aggressor_scenario(
            app=AppSpec.chained(
                ["shared_m"],
                slo=0.3,
                pipeline="aggressor-pipe",
                profiles=[ModelProfile("shared_m", base=0.02,
                                       per_item=0.005, max_batch=8)],
            ),
            policy="Naive",
        )
        ms = MultiScenario(
            name="contended",
            tenants=(
                TenantSpec(scenario=shared_victim),
                TenantSpec(scenario=shared_aggr),
            ),
            workers={"shared_m": 2},
            failures=(FailureEvent(time=2.0, module_id="shared_m",
                                   workers=1, downtime=2.0),),
        )
        result = run_multi_scenario(ms)
        assert len(result.pool_ids) == 1  # both apps on one pool
        assert ("fail", "shared_m") in [
            (r.kind, r.target) for r in result.fault_records
        ]
        # The overloaded shared pool cannot serve the victim cleanly.
        assert result.summaries["victim"].drop_rate > 0.05

    def test_scaling_spec_applies_to_pools(self):
        ms = full_multi(
            workers=1,
            scaling=ScalingSpec(enabled=True, interval=1.0, cold_start=1.0,
                                max_workers=6),
        )
        result = run_multi_scenario(ms)
        assert result.aggregate.total == sum(
            t.count() for t in result.traces.values()
        )


class TestPerAppIsolation:
    """The satellite acceptance test: two tenants on disjoint pools, one
    overloaded — the victim's books must be identical to running it alone
    at the same per-pool capacity."""

    def test_victim_summary_unchanged_by_noisy_neighbor(self):
        victim = victim_scenario()
        solo = run_scenario(
            replace(victim, workers={"m1": 2, "m2": 2})
        )
        shared = run_multi_scenario(full_multi())
        assert shared.summaries["victim"] == solo.summary

    def test_victim_records_match_request_for_request(self):
        victim = victim_scenario()
        solo = run_scenario(replace(victim, workers={"m1": 2, "m2": 2}))
        shared = run_multi_scenario(full_multi())
        solo_recs = solo.collector.records
        shared_recs = shared.collectors["victim"].records
        assert len(solo_recs) == len(shared_recs)
        for a, b in zip(solo_recs, shared_recs):
            assert a.sent_at == b.sent_at
            assert a.finished_at == b.finished_at
            assert a.status == b.status
            assert a.gpu_time == pytest.approx(b.gpu_time)


class TestSweepIntegration:
    def test_serial_and_pooled_identical(self):
        cells = scenario_cells(
            scenario_axes(full_multi(), [("seed", [0, 1, 2, 3])])
        )
        serial = run_sweep(cells, workers=1)
        pooled = run_sweep(cells, workers=4)
        assert all(r.ok for r in serial + pooled), [
            r.error for r in serial + pooled if not r.ok
        ]
        for a, b in zip(serial, pooled):
            assert a.summary == b.summary
            assert a.per_app == b.per_app

    def test_multi_cells_are_cacheable(self, tmp_path):
        cells = scenario_cells([full_multi()])
        assert cell_fingerprint(cells[0]) is not None
        first = run_sweep(cells, workers=1, cache_dir=tmp_path)
        second = run_sweep(cells, workers=1, cache_dir=tmp_path)
        assert not first[0].cached
        assert second[0].cached
        assert first[0].summary == second[0].summary
        assert first[0].per_app == second[0].per_app

    def test_cell_label_and_policy_join(self):
        cell = scenario_cells([full_multi()])[0]
        assert cell.label() == "pair-s0"
        assert cell.policy == "PARD+Naive"

    def test_cell_rejects_conflicting_policy(self):
        with pytest.raises(ValueError, match="conflicts"):
            SweepCell(multi=full_multi(), policy="Nexus")

    def test_cell_needs_exactly_one_form(self):
        with pytest.raises(ValueError, match="exactly one"):
            SweepCell(scenario=victim_scenario(), multi=full_multi())

    def test_external_tenant_components_not_cached(self):
        from repro.workload.generators import TRACES, register_trace
        from repro.workload.trace import Trace

        name = "test-multi-external-trace"

        @register_trace(name)
        def _gen(base_rate, duration, seed=0, name=name):
            import numpy as np

            return Trace(name=name,
                         arrivals=np.arange(0, duration, 1.0 / base_rate),
                         duration=duration)

        try:
            ms = full_multi(
                tenants=(
                    TenantSpec(scenario=victim_scenario(
                        trace=TraceSpec(name=name, duration=4.0,
                                        base_rate=20.0))),
                    TenantSpec(scenario=aggressor_scenario()),
                ),
            )
            assert cell_fingerprint(scenario_cells([ms])[0]) is None
        finally:
            del TRACES[name]
