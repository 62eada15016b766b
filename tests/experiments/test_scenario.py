"""Tests for the declarative Scenario API and the name-keyed registries."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentConfig, run_scenario
from repro.experiments.scenario import (
    AppSpec,
    BurstSpec,
    Scenario,
    ScalingSpec,
    TraceSpec,
    scenario_axes,
    scenario_from_dict,
)
from repro.experiments.sweep import (
    cell_fingerprint,
    run_sweep,
    scenario_cells,
)
from repro.pipeline.applications import (
    APPLICATIONS,
    Application,
    register_application,
)
from repro.pipeline.profiles import ModelProfile
from repro.pipeline.spec import chain
from repro.policies.registry import SYSTEM_FACTORIES, register_policy
from repro.simulation.failures import FailureEvent
from repro.workload.generators import TRACES, register_trace
from repro.workload.trace import Trace


def full_scenario(**overrides) -> Scenario:
    """The acceptance scenario: a custom chained pipeline, a burst-overlaid
    trace and two failure events — entirely plain data."""
    defaults = dict(
        name="accept",
        app=AppSpec.chained(
            ["probe_a", "probe_b"],
            slo=0.35,
            pipeline="probe",
            profiles=[
                ModelProfile("probe_a", base=0.020, per_item=0.006, max_batch=16),
                ModelProfile("probe_b", base=0.012, per_item=0.004, max_batch=16),
            ],
        ),
        trace=TraceSpec(
            name="poisson",
            duration=8.0,
            base_rate=60.0,
            bursts=(BurstSpec(start=3.0, length=2.0, factor=2.5),),
        ),
        policy="Naive",
        seed=3,
        workers=2,
        failures=(
            FailureEvent(time=2.0, module_id="m1", workers=1, downtime=1.5),
            FailureEvent(time=5.0, module_id="m2", workers=1, downtime=1.0),
        ),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestRoundTrip:
    def test_dict_round_trip(self):
        s = full_scenario()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_round_trip(self):
        s = full_scenario()
        assert Scenario.from_json(s.to_json()) == s

    def test_file_round_trip(self, tmp_path):
        s = full_scenario()
        path = tmp_path / "scenario.json"
        s.save(path)
        assert Scenario.from_file(path) == s

    def test_pickles(self):
        s = full_scenario()
        assert pickle.loads(pickle.dumps(s)) == s

    def test_named_app_round_trip(self):
        s = Scenario(
            app=AppSpec(name="tm", slo=0.3),
            trace=TraceSpec(name="tweet", duration=10.0,
                            args={"burst_at": 5.0}),
            scaling=ScalingSpec(enabled=True, cold_start=4.0),
        )
        again = Scenario.from_dict(s.to_dict())
        assert again == s
        assert again.trace.args == s.trace.args

    def test_to_dict_detached_from_frozen_spec(self):
        """Mutating the serialized form must not reach into the frozen
        scenario (or its fingerprint)."""
        s = full_scenario(workers={"m1": 2, "m2": 2})
        before = s.fingerprint()
        d = s.to_dict()
        d["workers"]["m1"] = 8
        assert s.workers["m1"] == 2
        assert s.fingerprint() == before

    def test_minimal_dict_fills_defaults(self):
        s = Scenario.from_dict({"app": {"name": "lv"}})
        assert s.policy.name == "PARD" and not s.policy.params
        assert s.trace.name == "tweet"
        assert not s.scaling.enabled


class TestFingerprint:
    def test_stable(self):
        assert full_scenario().fingerprint() == full_scenario().fingerprint()

    def test_canonical_over_numeric_spelling(self):
        """int-authored and float-authored (JSON round-trip) equal specs
        must share one cache identity."""
        ints = Scenario(app=AppSpec(name="tm"),
                        trace=TraceSpec(name="tweet", duration=8,
                                        args={"burst_at": 5}),
                        workers=2)
        floats = Scenario.from_dict(ints.to_dict())
        assert floats == ints
        assert floats.fingerprint() == ints.fingerprint()

    def test_sensitive_to_spec_changes(self):
        base = full_scenario()
        assert base.fingerprint() != replace(base, seed=4).fingerprint()
        assert base.fingerprint() != replace(base, policy="Nexus").fingerprint()
        burst = replace(
            base,
            trace=replace(base.trace, bursts=(BurstSpec(3.0, 2.0, 3.0),)),
        )
        assert base.fingerprint() != burst.fingerprint()
        assert base.fingerprint() != replace(base, failures=()).fingerprint()


def _single(**fields) -> dict:
    return {"app": {"name": "tm"}, **fields}


def _shared(**fields) -> dict:
    tenant = {"scenario": {"app": {"name": "tm"},
                           "trace": {"name": "poisson", "base_rate": 10.0}}}
    return {"tenants": [tenant], **fields}


_PLAIN_PROFILE = {"name": "probe", "base": 0.01, "per_item": 0.002}
_LLM_PROFILE = {
    "kind": "llm", "name": "gen", "max_batch": 4,
    "prompt_dist": {"kind": "uniform", "low": 8, "high": 16},
    "output_dist": {"kind": "lognormal", "mean": 12, "sigma": 0.5},
}


def _profiled(profile: dict, **fields) -> dict:
    """A one-module chain over ``profile`` with ``fields`` overridden."""
    for key, value in fields.items():
        if "." in key:  # a token distribution field, "prompt_dist.mean"
            dist, name = key.split(".")
            profile = {**profile, dist: {**profile[dist], name: value}}
        else:
            profile = {**profile, key: value}
    return {"app": {"chain": [profile["name"]], "slo": 5.0,
                    "profiles": [profile]}}


#: field -> (scenario dict with the field set to a value, field in errors).
NON_FINITE_CASES = {
    "drain": (lambda v: _single(drain=v), "drain"),
    "sync_interval": (lambda v: _single(sync_interval=v), "sync_interval"),
    "stats_window": (lambda v: _single(stats_window=v), "stats_window"),
    "utilization": (lambda v: _single(utilization=v), "utilization"),
    "provision_rate": (lambda v: _single(provision_rate=v), "provision_rate"),
    "provision_headroom": (
        lambda v: _single(provision_headroom=v), "provision_headroom"),
    "scaling.interval": (
        lambda v: _single(scaling={"interval": v}), "scaling interval"),
    "scaling.cold_start": (
        lambda v: _single(scaling={"cold_start": v}), "scaling cold_start"),
    "scaling.headroom": (
        lambda v: _single(scaling={"headroom": v}), "scaling headroom"),
    "failures.time": (
        lambda v: _single(failures=[{"time": v, "module_id": "m1"}]),
        "failure time"),
    "failures.downtime": (
        lambda v: _single(failures=[{"time": 1.0, "module_id": "m1",
                                     "downtime": v}]),
        "failure downtime"),
    "failures.factor": (
        lambda v: _single(failures=[{"time": 1.0, "module_id": "m1",
                                     "kind": "degrade", "factor": v}]),
        "failure factor"),
    **{
        f"goodput.{name}": (
            lambda v, name=name: _single(goodput={name: v}),
            f"goodput constraint {name}")
        for name in ("ttft", "tpot", "e2e")
    },
    "resilience.timeout": (
        lambda v: _single(resilience={"m1": {"timeout": v}}),
        "resilience timeout"),
    "resilience.hedge": (
        lambda v: _single(resilience={"m1": {"hedge": v}}),
        "resilience hedge"),
    **{
        f"resilience.retry.{name}": (
            lambda v, name=name: _single(
                resilience={"m1": {"timeout": 1.0, "retry": {name: v}}}),
            f"resilience retry.{name}")
        for name in ("base", "jitter")
    },
    "multi.drain": (lambda v: _shared(drain=v), "drain"),
    "multi.sync_interval": (lambda v: _shared(sync_interval=v), "sync_interval"),
    "multi.stats_window": (lambda v: _shared(stats_window=v), "stats_window"),
    "multi.provision_headroom": (
        lambda v: _shared(provision_headroom=v), "provision_headroom"),
    "multi.scaling.headroom": (
        lambda v: _shared(scaling={"headroom": v}), "scaling headroom"),
    "multi.tenant.weight": (
        lambda v: {"tenants": [{"weight": v,
                                "scenario": {"app": {"name": "tm"}}}]},
        "tenant weight"),
    **{
        f"profile.{name}": (
            lambda v, name=name: _profiled(_PLAIN_PROFILE, **{name: v}),
            f"profile 'probe': {name}")
        for name in ("base", "per_item")
    },
    **{
        f"llm_profile.{name}": (
            lambda v, name=name: _profiled(_LLM_PROFILE, **{name: v}),
            f"profile 'gen': {name}")
        for name in ("prefill_base", "prefill_per_token", "decode_base",
                     "decode_per_token", "kv_capacity")
    },
    **{
        f"llm_profile.{dist}.{name}": (
            lambda v, key=f"{dist}.{name}": _profiled(_LLM_PROFILE, **{key: v}),
            f"profile 'gen': {dist}: token distribution {name}")
        for dist in ("prompt_dist", "output_dist")
        for name in ("mean", "low", "high", "sigma")
    },
}


class TestValidation:
    def test_unknown_policy_rejected_by_validate(self):
        # Name resolution is lazy (construction succeeds, so plugins can
        # register after the spec is built); validate() resolves eagerly.
        scenario = full_scenario(policy="NoSuchPolicy")
        with pytest.raises(ValueError, match="unknown policy"):
            scenario.validate()

    def test_unknown_trace_rejected_by_validate(self):
        scenario = full_scenario(trace=TraceSpec(name="nosuch"))
        with pytest.raises(ValueError, match="unknown trace"):
            scenario.validate()

    def test_unknown_worker_module_rejected_at_construction(self):
        # Inline pipelines carry their module ids, so a mistargeted worker
        # map fails when the spec is built — not as a mid-run KeyError.
        with pytest.raises(ValueError, match="unknown modules"):
            full_scenario(workers={"m1": 2, "bogus": 2})

    def test_unknown_failure_module_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown module 'm9'"):
            full_scenario(failures=(FailureEvent(time=1.0, module_id="m9"),))

    def test_unresolvable_app_defers_target_checks_to_validate(self):
        # A named app that is not registered yet cannot be resolved at
        # construction; the bad failure target surfaces at validate().
        scenario = Scenario(
            app=AppSpec(name="not-registered-yet"),
            failures=(FailureEvent(time=1.0, module_id="m9"),),
        )
        with pytest.raises(ValueError, match="unknown application"):
            scenario.validate()

    def test_validate_passes_and_chains(self):
        scenario = full_scenario()
        assert scenario.validate() is scenario

    def test_unknown_generator_arg_rejected_by_validate(self):
        scenario = full_scenario(
            trace=TraceSpec(name="tweet", args={"bogus_arg": 1})
        )
        with pytest.raises(ValueError, match="does not accept args"):
            scenario.validate()

    def test_known_generator_args_pass_validate(self):
        scenario = full_scenario(
            trace=TraceSpec(name="tweet", args={"burst_at": 3.0}),
            workers=2,
        )
        assert scenario.validate() is scenario

    def test_burst_outside_duration_rejected(self):
        with pytest.raises(ValueError, match="outside trace duration"):
            TraceSpec(duration=10.0,
                      bursts=(BurstSpec(start=20.0, length=2.0, factor=2.0),))

    def test_partial_workers_dict_rejected_at_construction(self):
        with pytest.raises(ValueError, match="missing"):
            full_scenario(workers={"m1": 2})

    def test_nonpositive_workers_rejected_by_validate(self):
        with pytest.raises(ValueError, match=">= 1"):
            full_scenario(workers=0).validate()
        with pytest.raises(ValueError, match=">= 1"):
            full_scenario(workers={"m1": 2, "m2": 0}).validate()

    def test_failure_after_trace_end_rejected_at_construction(self):
        with pytest.raises(ValueError, match="outside the trace duration"):
            full_scenario(failures=(FailureEvent(time=600.0, module_id="m1"),))

    def test_reserved_trace_args_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            TraceSpec(name="poisson", args={"seed": 7})
        # The JSON form enforces the same rule at construction.
        with pytest.raises(ValueError, match="reserved"):
            Scenario.from_dict({"trace": {"name": "tweet",
                                          "args": {"base_rate": 10.0}}})

    def test_dict_valued_trace_args_rejected(self):
        with pytest.raises(ValueError, match="nested mappings"):
            TraceSpec(name="poisson", args={"levels": {"low": 1.0}})
        # Nested lists remain fine (the step trace's rates shape).
        spec = TraceSpec(name="step", args={"rates": [[0, 1.0], [5, 2.0]]})
        assert Scenario.from_dict(
            Scenario(app=AppSpec(name="tm"), trace=spec).to_dict()
        ).trace == spec

    def test_scaling_bool_keys_must_be_bool(self):
        with pytest.raises(ValueError, match="true/false"):
            ScalingSpec.from_dict({"enabled": "false"})

    def test_scaling_ranges_validated(self):
        # interval=0 would hang the simulation in an event-queue loop.
        with pytest.raises(ValueError, match="interval"):
            ScalingSpec(enabled=True, interval=0.0)
        with pytest.raises(ValueError, match="cold_start"):
            ScalingSpec(cold_start=-1.0)
        with pytest.raises(ValueError, match="max_workers"):
            ScalingSpec(min_workers=4, max_workers=2)

    def test_negative_failure_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            FailureEvent(time=-5.0, module_id="m1")

    def test_scaling_from_json_ints_fingerprint_like_floats(self):
        """JSON `8` and Python `8.0` must be the same cache identity."""
        from_json = Scenario.from_dict(
            {"app": {"name": "tm"},
             "scaling": {"enabled": True, "cold_start": 8}}
        )
        native = Scenario(app=AppSpec(name="tm"),
                          scaling=ScalingSpec(enabled=True, cold_start=8.0))
        assert from_json == native
        assert from_json.fingerprint() == native.fingerprint()

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            Scenario.from_dict({"app": {"name": "lv"}, "bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="unknown trace keys"):
            Scenario.from_dict({"app": {"name": "lv"},
                                "trace": {"nmae": "tweet"}})

    def test_unknown_module_key_rejected(self):
        # A typo'd DAG edge key must not silently change the pipeline.
        with pytest.raises(ValueError, match="unknown module keys"):
            AppSpec(modules=({"id": "m1", "model": "probe_a", "prev": ()},),
                    slo=0.3)

    def test_inline_pipeline_requires_slo(self):
        with pytest.raises(ValueError, match="slo"):
            AppSpec.chained(["probe_a"], slo=None)

    def test_app_name_and_modules_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            AppSpec(name="lv", modules=tuple(chain("x", ["probe_a"]).modules),
                    slo=0.3)
        with pytest.raises(ValueError, match="exactly one"):
            AppSpec()

    def test_burst_validation(self):
        with pytest.raises(ValueError):
            BurstSpec(start=-1.0, length=2.0, factor=2.0)
        with pytest.raises(ValueError):
            BurstSpec(start=0.0, length=0.0, factor=2.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["start", "length", "factor"])
    def test_burst_rejects_non_finite(self, field, value):
        burst = {"start": 2.0, "length": 1.0, "factor": 2.0, field: value}
        with pytest.raises(ValueError, match=f"burst {field} must be finite"):
            Scenario.from_dict({
                "app": {"name": "tm"},
                "trace": {"name": "poisson", "duration": 6, "base_rate": 30,
                          "bursts": [burst]},
                "policy": "PARD",
            })

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", sorted(NON_FINITE_CASES))
    def test_non_finite_numbers_rejected(self, field, value):
        """NaN/inf used to pass construction and then hang the run (an
        infinite drain) or fail deep inside it; construction now refuses
        them with one line naming the field."""
        path, what = NON_FINITE_CASES[field]
        with pytest.raises(ValueError, match=f"^{what} must be finite") as err:
            scenario_from_dict(path(value))
        assert "\n" not in str(err.value)

    def test_fractional_kv_capacity_rejected(self):
        with pytest.raises(
            ValueError,
            match=r"^profile 'gen': kv_capacity must be an integer, got 100.5$",
        ):
            scenario_from_dict(_profiled(_LLM_PROFILE, kv_capacity=100.5))

    def test_trace_scale_thinning_only(self):
        with pytest.raises(ValueError, match="scale"):
            TraceSpec(scale=2.0)

    def test_nonpositive_base_rate_rejected(self):
        with pytest.raises(ValueError, match="base_rate"):
            TraceSpec(name="poisson", base_rate=-5.0)

    def test_scenario_scalar_fields_validated(self):
        with pytest.raises(ValueError, match="sync_interval"):
            full_scenario(sync_interval=0.0)
        with pytest.raises(ValueError, match="utilization"):
            full_scenario(utilization=-0.9,
                          trace=TraceSpec(name="poisson"))
        with pytest.raises(ValueError, match="drain"):
            full_scenario(drain=-1.0)

    def test_utilization_and_base_rate_mutually_exclusive(self):
        scenario = full_scenario(utilization=0.9)  # trace sets base_rate
        with pytest.raises(ValueError, match="mutually exclusive"):
            scenario.validate()

    def test_utilization_and_provision_rate_mutually_exclusive(self):
        scenario = full_scenario(utilization=0.9, provision_rate=200.0,
                                 workers=None,
                                 trace=TraceSpec(name="poisson"))
        with pytest.raises(ValueError, match="mutually exclusive"):
            scenario.validate()

    def test_non_integral_workers_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            Scenario.from_dict({"app": {"name": "tm"}, "workers": 2.7})
        with pytest.raises(ValueError, match="integer"):
            full_scenario(workers={"m1": 2.7, "m2": 2})
        with pytest.raises(ValueError, match="integer"):
            full_scenario(workers=2.5)  # scalar Python form, same rule
        with pytest.raises(ValueError, match="integer"):
            ScalingSpec.from_dict({"min_workers": 2.7})
        # Whole-number floats (the JSON round-trip form) are fine.
        assert Scenario.from_dict(
            {"app": {"name": "tm"}, "workers": 2.0}
        ).workers == 2

    def test_failure_event_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing required keys"):
            Scenario.from_dict({"app": {"name": "tm"},
                                "failures": [{"module_id": "m1"}]})

    def test_config_trace_args_reject_nested_mappings(self):
        with pytest.raises(ValueError, match="nested mappings"):
            Scenario.from_dict({"trace": {"name": "step",
                                          "args": {"opts": {"a": 1}}}})

    def test_dict_forms_coerced_at_construction(self):
        s = Scenario(app={"name": "tm"},
                     trace={"name": "poisson", "base_rate": 20,
                            "duration": 4},
                     scaling={"enabled": True})
        assert isinstance(s.app, AppSpec)
        assert isinstance(s.trace, TraceSpec)
        assert isinstance(s.scaling, ScalingSpec)
        assert s.validate() is s


class TestResilienceSpec:
    def resilient(self, **overrides) -> Scenario:
        return full_scenario(
            resilience={
                "m1": {"timeout": 0.2,
                       "retry": {"max": 2, "base": 0.05, "jitter": 0.0}},
            },
            **overrides,
        )

    def test_dict_round_trip(self):
        s = self.resilient()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_round_trip(self):
        s = self.resilient()
        assert Scenario.from_json(s.to_json()) == s

    def test_legacy_scenarios_serialize_without_a_resilience_key(self):
        """Pre-existing scenario files must keep their serialized form
        (and therefore their cache fingerprints) byte for byte."""
        assert "resilience" not in full_scenario().to_dict()

    def test_fingerprint_sensitive_to_resilience(self):
        assert self.resilient().fingerprint() != full_scenario().fingerprint()

    def test_resilience_map_builds_hop_objects(self):
        from repro.simulation.resilience import HopResilience

        hops = self.resilient().resilience_map()
        assert set(hops) == {"m1"}
        assert hops["m1"] == HopResilience(timeout=0.2, retry_max=2,
                                           backoff_base=0.05)
        assert full_scenario().resilience_map() is None  # fast path

    def test_unknown_module_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown module"):
            full_scenario(resilience={"nope": {"timeout": 0.2}})

    def test_unknown_fallback_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown module"):
            full_scenario(
                resilience={"m1": {"timeout": 0.2, "fallback": "zz"}},
            )

    def test_downstream_fallback_rejected_by_validate(self):
        s = full_scenario(
            resilience={"m1": {"timeout": 0.2, "fallback": "m2"}},
        )
        with pytest.raises(
            ValueError, match="cannot fall back to its downstream"
        ):
            s.validate()

    def test_duplicate_modules_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            full_scenario(
                resilience=(
                    ("m1", {"timeout": 0.2}),
                    ("m1", {"timeout": 0.3}),
                ),
            )


class TestResolution:
    def test_inline_pipeline_builds(self):
        app = full_scenario().build_application()
        assert isinstance(app, Application)
        assert app.spec.module_ids == ["m1", "m2"]
        assert app.slo == pytest.approx(0.35)

    def test_inline_profiles_layer_over_defaults(self):
        registry = full_scenario().build_registry()
        assert "probe_a" in registry
        assert "object_detection" in registry  # defaults still present

    def test_named_app_slo_override(self):
        s = Scenario(app=AppSpec(name="lv", slo=0.25))
        assert s.build_application().slo == pytest.approx(0.25)
        assert ExperimentConfig(s).app.slo == pytest.approx(0.25)

    def test_burst_overlay_raises_windowed_rate(self):
        s = full_scenario()
        trace = s.build_trace(60.0)
        starts, rates = trace.rate_series(window=1.0)
        in_burst = rates[(starts >= 3.0) & (starts < 5.0)].mean()
        outside = rates[(starts < 3.0)].mean()
        assert in_burst > 1.6 * outside

    def test_trace_scale_thins(self):
        s = full_scenario()
        thinned = replace(s, trace=replace(s.trace, scale=0.5))
        assert len(thinned.build_trace(60.0)) < 0.75 * len(s.build_trace(60.0))

    def test_calibration_accounts_for_trace_args(self):
        """A shape-changing generator arg (step multipliers) must reach
        the calibration pilot, or utilization lands far off target."""
        flat = Scenario(app=AppSpec(name="tm"),
                        trace=TraceSpec(name="step", duration=10.0),
                        utilization=0.9)
        stepped = Scenario(
            app=AppSpec(name="tm"),
            trace=TraceSpec(name="step", duration=10.0,
                            args={"rates": [[0, 1], [5, 4]]}),
            utilization=0.9,
        )
        flat_rate = ExperimentConfig(flat).resolve_base_rate()
        stepped_rate = ExperimentConfig(stepped).resolve_base_rate()
        # Mean multiplier of the step shape is 2.5x, so the calibrated
        # base rate must drop accordingly.
        assert stepped_rate == pytest.approx(flat_rate / 2.5, rel=0.15)

    def test_calibration_accounts_for_trace_scale(self):
        """Thinning halves the realized rate, so the calibrated base rate
        must double to keep utilization on target."""
        full = Scenario(app=AppSpec(name="tm"),
                        trace=TraceSpec(name="poisson", duration=10.0),
                        utilization=0.9)
        half = Scenario(app=AppSpec(name="tm"),
                        trace=TraceSpec(name="poisson", duration=10.0,
                                        scale=0.5),
                        utilization=0.9)
        full_rate = ExperimentConfig(full).resolve_base_rate()
        half_rate = ExperimentConfig(half).resolve_base_rate()
        assert half_rate == pytest.approx(2 * full_rate, rel=0.05)

    def test_scenario_config_shim(self):
        """The runner's calibration step resolves app, registry and batch
        plan once, from the scenario's plain data."""
        config = ExperimentConfig(full_scenario())
        assert config.app.spec.module_ids == ["m1", "m2"]
        assert "probe_a" in config.registry
        assert set(config.plan) == {"m1", "m2"}
        assert config.resolve_base_rate() == 60.0

    def test_pinned_trace_seed_drives_calibration(self):
        """The pilot must measure the workload actually replayed: a
        pinned TraceSpec.seed calibrates like a scenario seeded the same
        way, regardless of the scenario's own seed."""
        pinned = Scenario(app=AppSpec(name="tm"),
                          trace=TraceSpec(name="tweet", duration=20.0,
                                          seed=7),
                          utilization=0.9, seed=0)
        direct = Scenario(app=AppSpec(name="tm"),
                          trace=TraceSpec(name="tweet", duration=20.0),
                          utilization=0.9, seed=7)
        assert (ExperimentConfig(pinned).resolve_base_rate()
                == ExperimentConfig(direct).resolve_base_rate())


class TestExecution:
    def test_build_trace_matches_replayed_trace(self):
        """Scenario.build_trace at the calibrated rate materializes exactly
        the workload run_scenario replays."""
        s = full_scenario()
        result = run_scenario(s)
        spec_trace = s.build_trace(result.base_rate)
        replayed = result.trace.materialize()
        assert replayed.arrivals.tobytes() == spec_trace.arrivals.tobytes()
        assert replayed.name == spec_trace.name

    def test_run_scenario_executes_failures(self):
        result = run_scenario(full_scenario())
        assert result.summary.total == result.trace.count()
        assert len(result.failure_log) == 4  # two fails + two recoveries
        assert any("fail m1" in line for line in result.failure_log)
        assert any("recover m2" in line for line in result.failure_log)

    def test_scaling_spec_defaults_match_reactive_scaler(self):
        """ScalingSpec mirrors ReactiveScaler's knobs; a drifting default
        would silently split the scenario and direct-use paths."""
        from dataclasses import MISSING, fields

        from repro.simulation.scaling import ReactiveScaler

        scaler_defaults = {
            f.name: f.default for f in fields(ReactiveScaler)
            if f.default is not MISSING
        }
        for f in fields(ScalingSpec):
            if f.name == "enabled":
                continue
            assert f.name in scaler_defaults
            assert f.default == scaler_defaults[f.name]

    def test_scaling_spec_applies(self):
        s = full_scenario(
            scaling=ScalingSpec(enabled=True, interval=1.0, cold_start=2.0),
            failures=(),
        )
        result = run_scenario(s)
        assert result.summary.total == result.trace.count()

    def test_provisioning_follows_composed_trace(self):
        """Auto-provisioning must size workers for the trace actually
        replayed (after scale/burst overlays), not the named base trace."""
        base = full_scenario(workers=None, failures=())
        fast = replace(base.trace, base_rate=250.0, bursts=())
        thin = replace(base, trace=replace(fast, scale=0.25))
        flat = replace(base, trace=fast)
        def count(result):
            return sum(m.n_workers for m in result.cluster.modules.values())

        assert count(run_scenario(thin)) < count(run_scenario(flat))

    def test_provisioning_ignores_burst_overlays(self):
        """Bursts are the unpredictable events provisioning must not see —
        otherwise the declared overload never happens."""
        calm = full_scenario(workers=None, failures=())
        calm = replace(calm, trace=replace(calm.trace, base_rate=250.0,
                                           bursts=()))
        bursty = replace(
            calm,
            trace=replace(calm.trace,
                          bursts=(BurstSpec(start=3.0, length=4.0,
                                            factor=4.0),)),
        )

        def count(result):
            return sum(m.n_workers for m in result.cluster.modules.values())

        assert count(run_scenario(bursty)) == count(run_scenario(calm))

    def test_grid_expands_policies_and_seeds(self):
        grid = scenario_axes(full_scenario(), [("policy", ["Naive", "Nexus"]),
                                               ("seed", [0, 1, 2])])
        assert len(grid) == 6
        assert {g.policy.name for g in grid} == {"Naive", "Nexus"}
        assert {g.seed for g in grid} == {0, 1, 2}

    def test_grid_empty_axes_fall_back_to_base(self):
        base = full_scenario()
        for grid in (scenario_axes(base, []), scenario_axes(base, {}),
                     scenario_axes(base, iter(()))):
            assert grid == [base]
        with pytest.raises(ValueError, match="no values"):
            scenario_axes(base, [("seed", iter(()))])


class TestSweepIntegration:
    """The acceptance criterion: identical in-process and pooled, cacheable."""

    def test_serial_pool_and_inprocess_identical(self):
        cells = scenario_cells(scenario_axes(full_scenario(),
                                             [("seed", [0, 1, 2, 3])]))
        serial = run_sweep(cells, workers=1)
        pooled = run_sweep(cells, workers=4)
        assert all(r.ok for r in serial + pooled), [
            r.error for r in serial + pooled if not r.ok
        ]
        for a, b in zip(serial, pooled):
            assert a.summary == b.summary
        inproc = run_scenario(cells[0].scenario)
        assert serial[0].summary == inproc.summary

    def test_scenario_cells_are_cacheable(self, tmp_path):
        cells = scenario_cells([full_scenario()])
        assert cell_fingerprint(cells[0]) is not None
        first = run_sweep(cells, workers=1, cache_dir=tmp_path)
        second = run_sweep(cells, workers=1, cache_dir=tmp_path)
        assert not first[0].cached
        assert second[0].cached
        assert first[0].summary == second[0].summary

    def test_third_party_registrations_not_cached(self):
        """Code the fingerprint cannot see (a downstream-registered trace)
        must never be served stale from the cache."""
        name = "test-external-trace"

        @register_trace(name)
        def _gen(base_rate, duration, seed=0, name=name):
            import numpy as np

            return Trace(name=name,
                         arrivals=np.arange(0, duration, 1.0 / base_rate),
                         duration=duration)

        try:
            cell = scenario_cells([
                full_scenario(trace=TraceSpec(name=name, duration=8.0,
                                              base_rate=20.0))
            ])[0]
            assert cell_fingerprint(cell) is None
        finally:
            del TRACES[name]
        cell = scenario_cells([full_scenario()])[0]
        assert cell.label() == "accept-Naive-s3"
        assert cell.policy == "Naive"


class TestRegistries:
    def test_register_trace_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_trace("wiki")(lambda **kw: None)

    def test_register_application_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_application("lv")(lambda: None)

    def test_register_policy_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy("PARD")(lambda seed: None)

    def test_registered_trace_visible_to_scenarios(self):
        name = "test-reg-trace"
        assert name not in TRACES

        @register_trace(name)
        def _gen(base_rate, duration, seed=0, name=name):
            import numpy as np

            return Trace(name=name,
                         arrivals=np.arange(0, duration, 1.0 / base_rate),
                         duration=duration)

        try:
            s = Scenario(app=AppSpec(name="tm"),
                         trace=TraceSpec(name=name, duration=2.0))
            assert len(s.build_trace(10.0)) == 20
        finally:
            del TRACES[name]

    def test_system_factories_still_the_four_systems(self):
        assert set(SYSTEM_FACTORIES) == {"PARD", "Nexus", "Clipper++", "Naive"}
        assert set(APPLICATIONS) == {
            "tm", "lv", "gm", "da", "llm-chat", "rag-agentic",
        }
