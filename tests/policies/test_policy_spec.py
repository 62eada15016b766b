"""Tests for PolicySpec: parameterized, serializable policy configuration."""

from __future__ import annotations

import pickle

import pytest

from repro.policies import (
    ADMISSIONS,
    POLICIES,
    ParamSpec,
    PolicySpec,
    admission_params,
    known_admissions,
    known_policies,
    make_policy,
    policy_params,
)
from repro.core.policy import PardPolicy


class TestConstruction:
    def test_bare_name(self):
        spec = PolicySpec("Naive")
        assert spec.name == "Naive" and spec.params == ()
        assert spec.label() == "Naive"

    def test_params_sorted_and_hashable(self):
        a = PolicySpec("PARD", {"samples": 500, "lam": 0.3})
        b = PolicySpec("PARD", {"lam": 0.3, "samples": 500})
        assert a == b and hash(a) == hash(b)
        assert a.params == (("lam", 0.3), ("samples", 500))

    def test_label_includes_params(self):
        spec = PolicySpec("PARD", {"lam": 0.3, "budget_mode": "split"})
        assert spec.label() == "PARD(budget_mode=split, lam=0.3)"

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="does not accept params"):
            PolicySpec("PARD", {"bogus": 1})

    def test_bad_choice_rejected_at_construction(self):
        with pytest.raises(ValueError, match="must be one of"):
            PolicySpec("PARD", {"budget_mode": "nope"})

    def test_type_mismatch_rejected_at_construction(self):
        with pytest.raises(ValueError, match="true/false"):
            PolicySpec("Nexus", {"windowed": "yes"})
        with pytest.raises(ValueError, match="integer"):
            PolicySpec("PARD", {"samples": 10.5})
        with pytest.raises(ValueError, match="number"):
            PolicySpec("PARD", {"lam": "high"})

    def test_int_coerced_to_declared_float(self):
        # JSON authors write 1 where the schema says float; both spellings
        # must be the same spec (and therefore the same fingerprint).
        a = PolicySpec("PARD", {"lam": 1})
        b = PolicySpec("PARD", {"lam": 1.0})
        assert a == b and a.fingerprint() == b.fingerprint()

    def test_admission_bounds_rejected_at_construction(self):
        # Each bound mirrors the range check in the policy's constructor,
        # so a bad value fails when the spec is built, not inside a run.
        cases = [
            ("token-bucket", "rate", 0.0, "> 0"),
            ("token-bucket", "burst", -1.0, "> 0"),
            ("weighted-fair", "backlog", 0.0, "> 0"),
            ("weighted-fair", "window", 0.0, "> 0"),
            ("weighted-fair", "slack", 0.5, ">= 1"),
        ]
        for name, param, value, bound in cases:
            with pytest.raises(ValueError) as err:
                PolicySpec(name, {param: value})
            assert str(err.value) == (
                f"policy {name!r} param {param!r} must be {bound}, got {value!r}"
            )
        # Bounds are inclusive unless declared exclusive.
        assert PolicySpec("weighted-fair", {"slack": 1}).params
        assert PolicySpec("PARD", {"lam": 1.0, "samples": 1}).params

    def test_unregistered_name_stays_lazy(self):
        spec = PolicySpec("NotYetRegistered", {"k": 1})
        with pytest.raises(ValueError, match="unknown policy"):
            spec.validate()

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            PolicySpec("PARD", {"lam": [0.1, 0.2]})

    def test_with_params_merges(self):
        base = PolicySpec("PARD", {"samples": 500})
        varied = base.with_params(lam=0.4)
        assert varied.param_dict() == {"samples": 500, "lam": 0.4}
        assert base.param_dict() == {"samples": 500}  # unchanged


class TestSerialisation:
    def test_round_trip_full_form(self):
        spec = PolicySpec("PARD", {"lam": 0.3})
        assert PolicySpec.from_dict(spec.to_dict()) == spec

    def test_compact_form_is_legacy_string(self):
        assert PolicySpec("Naive").to_compact() == "Naive"
        assert PolicySpec.from_dict("Naive") == PolicySpec("Naive")

    def test_compact_and_bare_share_fingerprint(self):
        # A param-less spec and the legacy string must hit the same cache.
        via_dict = PolicySpec.from_dict({"name": "Naive", "params": {}})
        assert via_dict.fingerprint() == PolicySpec("Naive").fingerprint()

    def test_distinct_params_distinct_fingerprints(self):
        prints = {
            PolicySpec("PARD", {"lam": v}).fingerprint()
            for v in (0.05, 0.1, 0.3)
        }
        assert len(prints) == 3

    def test_pickles(self):
        spec = PolicySpec("PARD", {"lam": 0.3})
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_coerce_accepts_all_spellings(self):
        spec = PolicySpec("PARD", {"lam": 0.3})
        assert PolicySpec.coerce(spec) is spec
        assert PolicySpec.coerce("PARD") == PolicySpec("PARD")
        assert PolicySpec.coerce({"name": "PARD", "params": {"lam": 0.3}}) == spec
        with pytest.raises(ValueError, match="policy must be"):
            PolicySpec.coerce(42)


class TestRegistryIntrospection:
    def test_every_policy_declares_a_schema(self):
        assert set(known_policies()) == set(POLICIES)
        for name in known_policies():
            for p in policy_params(name):
                assert isinstance(p, ParamSpec)
                assert p.type in ("float", "int", "str", "bool")

    def test_pard_declares_the_table1_knobs(self):
        names = {p.name for p in policy_params("PARD")}
        assert {"lam", "sub_mode", "wait_mode", "priority_mode",
                "budget_mode"} <= names

    def test_describe_shows_bounds(self):
        described = {p.name: p.describe() for p in policy_params("PARD-oc")}
        assert described == {"threshold": "threshold=0.02 (float > 0)",
                             "alpha": "alpha=0.4 (float in (0, 1))"}

    def test_admissions_registered(self):
        assert {"weighted-fair", "token-bucket"} <= set(known_admissions())
        assert {p.name for p in admission_params("token-bucket")} == {
            "rate", "burst"
        }
        assert set(ADMISSIONS) == set(known_admissions())

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            policy_params("NoSuch")
        with pytest.raises(ValueError, match="unknown admission"):
            admission_params("NoSuch")


class TestMakePolicy:
    def test_params_reach_the_policy(self):
        policy = make_policy(PolicySpec("PARD", {"lam": 0.35}), seed=1)
        assert isinstance(policy, PardPolicy)
        assert policy.planner.lam == 0.35

    def test_param_bearing_spec_renames_for_tables(self):
        policy = make_policy(PolicySpec("PARD", {"lam": 0.35}))
        assert policy.name == "PARD(lam=0.35)"
        assert "0.35" in policy.describe()

    def test_bare_name_keeps_canonical_name(self):
        assert make_policy("PARD").name == "PARD"
        assert make_policy(PolicySpec("PARD")).name == "PARD"

    def test_mode_knobs_construct_the_matching_ablation_config(self):
        policy = make_policy(PolicySpec("PARD", {"budget_mode": "split"}))
        assert policy.budget_mode == "split"
        policy = make_policy(PolicySpec("PARD", {"priority_mode": "fcfs"}))
        assert policy.priority.mode == "fcfs"

    def test_ablations_accept_passthrough_params(self):
        policy = make_policy(PolicySpec("PARD-back", {"lam": 0.2}))
        assert isinstance(policy, PardPolicy)
        assert policy.planner.lam == 0.2
        assert policy.broker.sub_mode == "none"  # the defining knob holds

    def test_oc_params(self):
        policy = make_policy(PolicySpec("PARD-oc", {"threshold": 0.05}))
        assert policy.threshold == 0.05

    def test_unknown_policy_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("NoSuchPolicy")


def test_unregistered_spec_fingerprint_canonical_over_numeric_spelling():
    # No schema coercion ran (the name is not registered), yet int- and
    # float-authored params must share one cache identity.
    a = PolicySpec("some-plugin-policy", {"k": 1})
    b = PolicySpec("some-plugin-policy", {"k": 1.0})
    assert a.fingerprint() == b.fingerprint()
