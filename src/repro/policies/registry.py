"""Name -> policy construction shared by the CLI, scenarios and sweep workers.

Policies are constructed from *specs* (:class:`~repro.policies.spec.
PolicySpec`: a registered name plus typed params) rather than passing
factory callables around because sweep worker processes receive their work
unit by pickle: plain data survives the trip, a closure does not.  Every
factory takes the experiment seed first, so a sweep cell is fully
determined by its scenario, policy spec and seed included.

Each registration *declares* its parameter schema (:class:`~repro.policies.
spec.ParamSpec`): the knobs the paper's Table-1 ablation study and
sensitivity figures sweep.  Declarations are introspectable (``repro list
--params``) and enforced when a :class:`PolicySpec` is built — not
mid-run.  Two registries share the machinery:

* ``POLICIES`` — drop policies (the four systems plus every ablation);
* ``ADMISSIONS`` — cross-app admission policies for the shared-cluster
  fairness seam (:class:`~repro.simulation.tenancy.SharedPolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..interfaces import DropPolicy
from .ablations import ABLATIONS
from .clipper import ClipperPlusPlusPolicy
from .naive import NaivePolicy
from .nexus import NexusPolicy
from .spec import ParamSpec, PolicySpec

__all__ = [
    "ADMISSIONS",
    "POLICIES",
    "PolicyInfo",
    "SYSTEM_FACTORIES",
    "admission_params",
    "known_admissions",
    "known_policies",
    "make_admission",
    "make_policy",
    "policy_params",
    "register_admission",
    "register_policy",
]


@dataclass(frozen=True)
class PolicyInfo:
    """One registry entry: factory plus its declared parameter schema."""

    name: str
    factory: Callable
    params: tuple[ParamSpec, ...] = ()
    kind: str = "system"  # "system" | "ablation" | "admission"


#: Every constructible drop policy (systems + ablations), by name.
POLICIES: dict[str, PolicyInfo] = {}

#: Cross-app admission (fairness) policies for shared clusters, by name.
ADMISSIONS: dict[str, PolicyInfo] = {}

#: The four systems compared throughout §5.2 (name -> seeded factory).
#: Kept alongside ``POLICIES`` because the CLI's default comparison set is
#: "the systems", not every ablation.
SYSTEM_FACTORIES: dict[str, Callable[[int], DropPolicy]] = {}


def register_policy(
    name: str,
    *,
    params: Sequence[ParamSpec] = (),
    kind: str = "system",
) -> Callable[[Callable], Callable]:
    """Decorator registering a seeded policy factory under ``name``.

    The factory is called as ``factory(seed, **authored_params)`` — only
    params the spec actually sets are passed, so factory defaults stay the
    single source of truth.  ``params`` declares the accepted schema.  The
    same name-keyed pattern as :func:`repro.pipeline.applications.
    register_application` and :func:`repro.workload.generators.
    register_trace`, so scenarios and sweep workers resolve policies from
    plain data.
    """

    def decorate(fn: Callable) -> Callable:
        if name in POLICIES:
            raise ValueError(f"policy {name!r} already registered")
        POLICIES[name] = PolicyInfo(
            name=name, factory=fn, params=tuple(params), kind=kind
        )
        if kind == "system":
            SYSTEM_FACTORIES[name] = fn
        return fn

    return decorate


def register_admission(
    name: str, *, params: Sequence[ParamSpec] = ()
) -> Callable[[Callable], Callable]:
    """Decorator registering a shared-cluster admission policy factory.

    The factory is called as ``factory(weights, seed, **authored_params)``
    where ``weights`` maps tenant label -> declared tenant weight — the
    fair-share vector every cross-app fairness policy needs.
    """

    def decorate(fn: Callable) -> Callable:
        if name in ADMISSIONS:
            raise ValueError(f"admission policy {name!r} already registered")
        ADMISSIONS[name] = PolicyInfo(
            name=name, factory=fn, params=tuple(params), kind="admission"
        )
        return fn

    return decorate


# -- the four systems ---------------------------------------------------------

_MODE_PARAMS = (
    ParamSpec("lam", "float", 0.1, low=0, high=1,
              help="batch-wait quantile lambda (Figure 14a)"),
    ParamSpec("samples", "int", 2000, low=1,
              help="Monte-Carlo samples for the wait distribution"),
    ParamSpec("sub_mode", "str", "full", choices=("full", "none", "durations"),
              help="forward-estimate content (PARD / -back / -sf)"),
    ParamSpec("wait_mode", "str", "quantile",
              choices=("quantile", "lower", "upper"),
              help="downstream batch-wait estimate"),
    ParamSpec("priority_mode", "str", "adaptive",
              choices=("adaptive", "instant", "hbf", "lbf", "fcfs"),
              help="queue ordering strategy"),
    ParamSpec("budget_mode", "str", "e2e", choices=("e2e", "split", "wcl"),
              help="budget the estimate is compared against"),
)


@register_policy("PARD", params=_MODE_PARAMS)
def _pard(seed: int, samples: int = 2000, **params) -> DropPolicy:
    from ..core.policy import PardPolicy

    # samples=2000 is the registered-system default (matches the historic
    # ablations.pard factory; PardPolicy's own 10_000 is the research-grade
    # setting) — the signature default here is the runtime source of truth
    # the ParamSpec declaration above documents.
    return PardPolicy(seed=seed, samples=samples, name="PARD", **params)


@register_policy("Nexus", params=(
    ParamSpec("windowed", "bool", False,
              help="use the paper's sliding-window queue scan"),
))
def _nexus(seed: int, **params) -> DropPolicy:
    return NexusPolicy(**params)


@register_policy("Clipper++")
def _clipper(seed: int) -> DropPolicy:
    return ClipperPlusPlusPolicy()


@register_policy("Naive")
def _naive(seed: int) -> DropPolicy:
    return NaivePolicy()


# -- the Table-1 ablations ----------------------------------------------------

#: Pass-through knobs every PardPolicy-based ablation still exposes (its
#: *defining* knob is fixed by the ablation itself and not re-exposed).
_ABLATION_PARAMS = (
    ParamSpec("lam", "float", 0.1, low=0, high=1,
              help="batch-wait quantile lambda (Figure 14a)"),
    ParamSpec("samples", "int", 10_000, low=1,
              help="Monte-Carlo samples for the wait distribution"),
)

_OC_PARAMS = (
    ParamSpec("threshold", "float", 0.020, low=0, exclusive=True,
              help="avg queueing delay marking a module overloaded (s)"),
    ParamSpec("alpha", "float", 0.4, low=0, high=1, exclusive=True,
              help="fraction of entry traffic shed while overloaded"),
)


def _register_ablations() -> None:
    """Fold every Table-1 ablation into the unified registry.

    ``PARD`` itself is already registered above (with the full knob set);
    each remaining ablation keeps its fixed defining knob and declares only
    the pass-through parameters its factory genuinely accepts.
    """
    for name, factory in ABLATIONS.items():
        if name in POLICIES:
            continue
        params = _OC_PARAMS if name == "PARD-oc" else _ABLATION_PARAMS
        register_policy(name, params=params, kind="ablation")(factory)


_register_ablations()


# -- construction -------------------------------------------------------------

def known_policies() -> list[str]:
    """All constructible drop-policy names (systems + ablations)."""
    return sorted(POLICIES)


def known_admissions() -> list[str]:
    """All registered shared-cluster admission policy names."""
    return sorted(ADMISSIONS)


def policy_params(name: str) -> tuple[ParamSpec, ...]:
    """The declared parameter schema of a drop policy (introspection)."""
    if name not in POLICIES:
        raise ValueError(
            f"unknown policy {name!r}; known: {', '.join(known_policies())}"
        )
    return POLICIES[name].params


def admission_params(name: str) -> tuple[ParamSpec, ...]:
    """The declared parameter schema of an admission policy."""
    if name not in ADMISSIONS:
        raise ValueError(
            f"unknown admission policy {name!r}; "
            f"known: {', '.join(known_admissions())}"
        )
    return ADMISSIONS[name].params


def make_policy(policy: PolicySpec | str, seed: int = 0) -> DropPolicy:
    """Construct the specified policy, seeded for deterministic replay.

    Accepts a bare name (the legacy form) or a full :class:`PolicySpec`.
    When the spec carries params, the constructed policy is renamed to the
    spec's :meth:`~repro.policies.spec.PolicySpec.label` so every result
    table distinguishes the variant from its default-configured sibling.
    """
    spec = PolicySpec.coerce(policy).validate()
    info = POLICIES[spec.name]
    built = info.factory(seed, **spec.param_dict())
    if spec.params:
        built.name = spec.label()
    return built


def make_admission(
    policy: PolicySpec | str,
    weights: Mapping[str, float],
    seed: int = 0,
):
    """Construct the specified cross-app admission policy.

    ``weights`` maps tenant label -> declared weight (the fair shares).
    The returned object is the :data:`~repro.simulation.tenancy.
    AdmissionHook` the shared cluster consults on every module entry.
    """
    spec = PolicySpec.coerce(policy).validate(kind="admission")
    info = ADMISSIONS[spec.name]
    built = info.factory(dict(weights), seed, **spec.param_dict())
    if spec.params:
        built.name = spec.label()
    return built
