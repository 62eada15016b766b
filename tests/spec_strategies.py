"""Hypothesis strategies derived from the spec declarations.

Every spec class declares its fields once (:mod:`repro.schema`); this
helper turns each declared kind into a strategy of valid values
(:func:`values`), a spec class into a strategy of valid instances
(:func:`instances`) and a kind into the corruptions it must refuse
(:func:`corruptions`).  A field added to a spec is then generated,
round-tripped and corrupted without touching the tests.

Cross-field rules live in ``_check`` hooks, outside the declarations:
``OVERRIDES`` narrows the few fields they constrain (a fault kind, a
burst start inside the trace, module ids that exist), and whatever is
still invalid is filtered out at construction.
"""

from __future__ import annotations

import functools
import math
import string

from hypothesis import strategies as st

from repro import schema
from repro.experiments.scenario import (
    AppSpec,
    BurstSpec,
    MultiScenario,
    RouterSpec,
    ScalingSpec,
    Scenario,
    SweepSpec,
    TenantSpec,
    TraceSpec,
)
from repro.metrics.goodput import GoodputSpec
from repro.pipeline.llm_profiles import LLMProfile, TokenDist
from repro.pipeline.profiles import ModelProfile
from repro.pipeline.spec import ModuleSpec
from repro.policies.registry import ADMISSIONS, POLICIES
from repro.policies.spec import ParamSpec, PolicySpec
from repro.simulation.failures import FailureEvent
from repro.simulation.resilience import HopResilience
from repro.studies.spec import CapacityStudy, ChaosStudy, InterferenceStudy

#: Every declared spec class.
SPECS = (
    BurstSpec, TraceSpec, ModuleSpec, AppSpec, ScalingSpec, RouterSpec,
    Scenario, TenantSpec, MultiScenario, SweepSpec, FailureEvent,
    HopResilience, GoodputSpec, ModelProfile, LLMProfile, TokenDist,
    ParamSpec, PolicySpec, InterferenceStudy, CapacityStudy, ChaosStudy,
)

_NAMES = st.text(string.ascii_lowercase, min_size=1, max_size=6)
_SPAN = 100.0  # width of a generated range with one open end


def _numbers(kind: schema.Num) -> st.SearchStrategy:
    bound = kind.bound or schema.Bound(0.0)
    low = bound.low if bound.low is not None else bound.high - _SPAN
    high = bound.high if bound.high is not None else low + _SPAN
    if kind.integral:
        return st.integers(
            math.floor(low) + 1 if bound.low_open else math.ceil(low),
            math.ceil(high) - 1 if bound.high_open else math.floor(high),
        )
    return st.floats(low, high, exclude_min=bound.low_open,
                     exclude_max=bound.high_open)


def _policies(registry) -> st.SearchStrategy:
    """Registered policies, their params drawn from each declaration."""
    def point(name: str) -> st.SearchStrategy:
        params = {p.name: values(p._kind) for p in registry[name].params}
        return st.fixed_dictionaries({}, optional=params).map(
            lambda kw: PolicySpec(name, kw)
        )

    return st.sampled_from(sorted(registry)).flatmap(point)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats(-9, 9) | _NAMES,
    lambda inner: st.lists(inner, max_size=3), max_leaves=6,
)


def values(kind: schema.Kind) -> st.SearchStrategy:
    """Valid values of one declared kind, before cross-field rules."""
    if isinstance(kind, schema.Bool):
        return st.booleans()
    if isinstance(kind, schema.Num):
        return _numbers(kind)
    if isinstance(kind, schema.Str):
        if kind.choices:
            return st.sampled_from(kind.choices)
        return _NAMES if kind.nonempty else st.text(string.ascii_lowercase, max_size=6)
    if isinstance(kind, schema.Opt):
        return st.none() | values(kind.kind)
    if isinstance(kind, schema.Policy):
        return _policies(POLICIES)
    if isinstance(kind, schema.Nested):
        classes = kind.cls if isinstance(kind.cls, tuple) else (kind.cls,)
        if classes == (ModelProfile,):
            classes = (ModelProfile, LLMProfile)
        return st.one_of(*(instances(cls) for cls in classes))
    if isinstance(kind, schema.Seq):
        return st.lists(values(kind.kind), min_size=1 if kind.item else 0,
                        max_size=3)
    if isinstance(kind, schema.Map):
        return st.dictionaries(_NAMES, values(kind.kind), max_size=3)
    if isinstance(kind, schema.Either):
        return values(kind.scalar) | values(kind.mapping)
    if isinstance(kind, schema.Pair):
        return st.lists(_numbers(schema.Num(kind.bound)), min_size=2,
                        max_size=2).map(sorted)
    if isinstance(kind, schema.Json):
        return _JSON
    if isinstance(kind, schema.Axes):
        return st.dictionaries(
            st.sampled_from(["seed", "drain"]),
            st.lists(st.integers(0, 5), min_size=1, max_size=3), max_size=2,
        )
    return st.none() | st.integers(0, 9) | _NAMES  # Raw and Scalar


def _tenant_pair() -> st.SearchStrategy:
    """A two-tenant shared cluster with tenants named victim/aggressor."""
    def tenant(name: str) -> st.SearchStrategy:
        return st.builds(
            TenantSpec,
            scenario=instances(Scenario).map(
                lambda s: Scenario(app=s.app, trace=s.trace, policy=s.policy,
                                   seed=s.seed, name=name)
            ),
        )

    return st.tuples(tenant("victim"), tenant("aggressor")).map(
        lambda ts: MultiScenario(tenants=ts)
    )


#: Strategies for fields a cross-field rule constrains, by (class, field).
OVERRIDES = {
    (TraceSpec, "name"): st.sampled_from(["poisson", "tweet", "constant"]),
    (TraceSpec, "duration"): st.floats(1.0, 100.0),
    (TraceSpec, "path"): st.none(),
    (TraceSpec, "digest"): st.none(),
    (BurstSpec, "start"): st.floats(0.0, 0.99),
    (AppSpec, "name"): st.sampled_from(["tm", "lv", "gm", "da"]),
    (AppSpec, "modules"): st.just(()),
    (TokenDist, "mean"): st.floats(1.0, 500.0),
    (TokenDist, "low"): st.integers(1, 20).map(float),
    (TokenDist, "high"): st.integers(20, 40).map(float),
    (TokenDist, "sigma"): st.floats(0.01, 2.0),
    (FailureEvent, "time"): st.floats(0.0, 0.99),
    (FailureEvent, "module_id"): st.just("m1"),
    (FailureEvent, "kind"): st.sampled_from(["kill", "degrade"]),
    (FailureEvent, "dst"): st.none(),
    (FailureEvent, "factor"): st.floats(1.01, 5.0),
    (HopResilience, "hedge"): st.none() | st.floats(0.001, 1.0),
    (HopResilience, "fallback"): st.none(),
    (Scenario, "workers"): st.none() | st.integers(1, 4),
    (Scenario, "resilience"): st.dictionaries(
        st.just("m1"), st.deferred(lambda: instances(HopResilience)),
        max_size=1),
    (MultiScenario, "workers"): st.none() | st.integers(1, 4),
    (MultiScenario, "failures"): st.just(()),
    (MultiScenario, "tenants"): st.lists(
        st.deferred(lambda: instances(TenantSpec)), min_size=1, max_size=2),
    (MultiScenario, "admission"): st.none() | _policies(ADMISSIONS),
    (SweepSpec, "axes"): st.dictionaries(
        st.sampled_from(["seed", "drain", "policy"]),
        st.lists(st.integers(0, 5), min_size=1, max_size=2), max_size=2,
    ).map(lambda axes: {k: ["PARD", "Naive"][:len(v)] if k == "policy" else v
                        for k, v in axes.items()}),
    (InterferenceStudy, "base"): st.deferred(_tenant_pair),
    (InterferenceStudy, "victim"): st.just("victim"),
    (InterferenceStudy, "aggressor"): st.just("aggressor"),
    (InterferenceStudy, "axes"): st.just({}),
    (CapacityStudy, "base"): st.deferred(lambda: instances(Scenario)).filter(
        lambda s: s.utilization is None and s.provision_rate is None),
    (ChaosStudy, "axes"): st.just({}),
}


def keyed_fields(cls) -> list[tuple[str, schema.Kind, str]]:
    """(field name, kind, dict key) of every field in the dict form."""
    table = cls._declared()
    keys = {name: key for key, name in table.names.items()}
    return [(name, kind, keys[name]) for name, kind, _ in table.loads
            if name in keys]


def _build(cls, kwargs: dict):
    try:
        return cls(**kwargs)
    except ValueError:
        return None


@functools.lru_cache(maxsize=None)
def instances(cls) -> st.SearchStrategy:
    """Valid instances of ``cls``: each keyed field drawn from its kind
    (or its override), optional fields sometimes left at the default."""
    if cls is PolicySpec:
        return _policies(POLICIES)
    required = set(cls._declared().required)
    given, optional = {}, {}
    for name, kind, key in keyed_fields(cls):
        strategy = OVERRIDES.get((cls, name))
        if strategy is None:
            strategy = values(kind)
        (given if key in required else optional)[name] = strategy
    return st.fixed_dictionaries(given, optional=optional).map(
        functools.partial(_build, cls)
    ).filter(lambda spec: spec is not None)


def corruptions(kind: schema.Kind) -> list[tuple[str, object]]:
    """(what is wrong, value) pairs the kind must refuse."""
    if isinstance(kind, (schema.Opt,)):
        return corruptions(kind.kind)
    if isinstance(kind, schema.Either):
        return corruptions(kind.scalar)
    if isinstance(kind, schema.Bool):
        return [("wrong kind", "false"), ("wrong kind", 1)]
    if isinstance(kind, schema.Num):
        out = [("wrong kind", "1"), ("wrong kind", True),
               ("non-finite", float("nan")), ("non-finite", float("inf"))]
        if kind.integral:
            out.append(("wrong kind", 1.5))
        bound = kind.bound
        if bound is not None and bound.low is not None:
            out.append(("out of bound",
                        bound.low if bound.low_open else bound.low - 1))
        elif bound is not None:
            out.append(("out of bound",
                        bound.high if bound.high_open else bound.high + 1))
        return out
    if isinstance(kind, schema.Str):
        out = [("wrong kind", 5)]
        if kind.choices:
            out.append(("out of bound", "no-such-choice"))
        return out
    if isinstance(kind, schema.Policy):
        return [("wrong kind", 5)]  # any string names a policy (lazily)
    if isinstance(kind, (schema.Nested, schema.Map, schema.Axes)):
        return [("wrong kind", 5), ("wrong kind", "abc")]
    if isinstance(kind, (schema.Seq, schema.Pair)):
        out = [("wrong kind", "abc"), ("wrong kind", {"a": 1})]
        if isinstance(kind, schema.Seq) and kind.item:
            out.append(("out of bound", []))
        return out
    return []
