"""PolicySpec: a policy as a point in configuration space.

The paper's evaluation is a study in policy *parameterization*: PARD and
its Table-1 ablations differ only in knobs (``lam``, ``sub_mode``,
``wait_mode``, ``priority_mode``, ``budget_mode``), and the baselines carry
tuning constants of their own.  A :class:`PolicySpec` names a registered
policy plus the knob values to construct it with — plain data that
round-trips through dict/JSON, pickles into sweep workers and fingerprints
into the disk cache, so "which system" becomes "which point in
policy-configuration space" and a Figure-11-style ablation grid is one
serializable axis.

Parameters are *declared* by the registry (:class:`ParamSpec`: name, type,
default, choices, bounds) and validated here at spec-construction time — a
typo'd knob, an out-of-range choice or value, or a NaN fails when the spec
is built, not minutes into a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..schema import (
    Bool, Bound, Int, Map, Num, Opt, Policy, Raw, Scalar, Seq, Spec, Str,
    digest, field,
)

__all__ = ["ParamSpec", "PolicySpec"]

#: The declared ``type`` names and the kind that checks each.
_KINDS = {"float": Num, "int": Int, "str": Str, "bool": Bool}


@dataclass(frozen=True)
class ParamSpec(Spec):
    """One declared, introspectable policy parameter.

    ``type`` is a type *name* ("float", "int", "str", "bool") rather than a
    Python type so the declaration itself serializes (``repro list
    --params`` prints it verbatim).  ``choices`` restricts the value to an
    enumerated set (mode knobs); ``default`` documents what the factory
    uses when the parameter is not given.  ``low``/``high`` bound a
    numeric value, inclusive unless ``exclusive`` makes both ends strict;
    a numeric value must also be finite.
    """

    _section, _prefix = "param", "param "

    name: str = field(Str(nonempty=True))
    type: str = field(Str(tuple(_KINDS)))
    default: Any = field(Raw())
    choices: tuple = field(Seq(Raw()), ())
    help: str = field(Str(), "")
    low: float | None = field(Opt(Num()), None)
    high: float | None = field(Opt(Num()), None)
    exclusive: bool = field(Bool(), False)

    def _check(self) -> None:
        bound = None
        if self.low is not None or self.high is not None:
            bound = Bound(self.low, self.high, low_open=self.exclusive,
                          high_open=self.exclusive)
        kind = _KINDS[self.type]
        kind = kind(choices=self.choices) if kind in (Bool, Str) else kind(
            bound, choices=self.choices
        )
        object.__setattr__(self, "_kind", kind)

    def coerce(self, value: Any, where: str) -> Any:
        """Validate ``value`` against this declaration; returns it coerced.

        Numeric spelling is normalised (JSON authors write ``8`` where
        Python holds ``8.0``) so equal specs fingerprint equally; genuine
        type mismatches raise with the offending policy/param named.
        """
        return self._kind.load(value, where)

    def _bounds(self) -> str:
        """The declared range as text: ``in [0, 1]``, ``> 0``, ``>= 1``;
        empty when the parameter is unbounded."""
        bound = getattr(self._kind, "bound", None)
        return "" if bound is None else str(bound)

    def describe(self) -> str:
        """One cell of ``repro list --params`` output."""
        if self.choices:
            kind = "|".join(str(c) for c in self.choices)
        else:
            kind = " ".join(filter(None, (self.type, self._bounds())))
        return f"{self.name}={self.default} ({kind})"


@dataclass(frozen=True)
class PolicySpec(Spec):
    """A registered policy name plus typed construction parameters.

    The first-class unit of policy configuration: scenarios carry one,
    sweep axes vary one parameter at a time (``with_params``), and the
    registry constructs the live policy from it
    (:func:`repro.policies.registry.make_policy`).  ``params`` holds only
    the *authored* knobs — unset parameters fall to the factory defaults,
    so a bare ``PolicySpec("PARD")`` is byte-identical to the legacy string
    form in serialized scenarios (see :meth:`to_compact`).
    """

    _section, _prefix = "policy", "policy "

    name: str = field(Str(nonempty=True), "PARD")
    params: tuple = field(  # sorted ((key, value), ...) pairs
        Map(Scalar(), frozen=True, item="policy param {key!r}"), ()
    )

    def _check(self) -> None:
        # Validate eagerly when the name is already registered (the normal
        # case); unregistered names stay lazy so registration order is
        # flexible, and validate() is the authoritative check.
        schema = self._schema()
        if schema is not None:
            object.__setattr__(self, "params", self._coerced(schema))

    @classmethod
    def _read(cls, data: Any) -> Any:
        # A bare name is the compact form (see to_compact).
        return {"name": data} if isinstance(data, str) else data

    # -- validation ---------------------------------------------------------

    def _schema(self) -> "tuple[ParamSpec, ...] | None":
        """The declared parameter schema, or None when not yet registered."""
        from .registry import ADMISSIONS, POLICIES

        info = POLICIES.get(self.name) or ADMISSIONS.get(self.name)
        return None if info is None else info.params

    def _coerced(self, schema: "tuple[ParamSpec, ...]") -> tuple:
        declared = {p.name: p for p in schema}
        unknown = [k for k, _ in self.params if k not in declared]
        if unknown:
            known = sorted(declared) or ["<none>"]
            raise ValueError(
                f"policy {self.name!r} does not accept params {unknown}; "
                f"declared: {', '.join(known)}"
            )
        return tuple(
            (k, declared[k].coerce(v, f"policy {self.name!r} param {k!r}"))
            for k, v in self.params
        )

    def validate(self, kind: str = "policy") -> "PolicySpec":
        """Resolve the name in the registry and re-check every param.

        ``kind`` selects the registry: ``"policy"`` for drop policies,
        ``"admission"`` for shared-cluster admission (fairness) policies.
        Returns ``self`` so callers can chain.
        """
        from .registry import ADMISSIONS, POLICIES, known_admissions, known_policies

        if kind == "admission":
            registry, known = ADMISSIONS, known_admissions()
        else:
            registry, known = POLICIES, known_policies()
        info = registry.get(self.name)
        if info is None:
            raise ValueError(
                f"unknown {kind} {self.name!r}; known: {', '.join(known)}"
            )
        self._coerced(info.params)
        return self

    # -- access -------------------------------------------------------------

    def param_dict(self) -> dict:
        return dict(self.params)

    def with_params(self, **overrides: Any) -> "PolicySpec":
        """A new spec with ``overrides`` merged over the current params.

        The sweep-axis primitive: ``spec.with_params(lam=0.3)`` is one cell
        of a ``policy.lam`` grid.
        """
        merged = self.param_dict()
        merged.update(overrides)
        return PolicySpec(name=self.name, params=merged)

    def label(self) -> str:
        """Display / cache label: the name, plus any authored params.

        Sweep tables and scenario labels use this, so two variants of one
        policy never collapse into the same row.
        """
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"

    # -- serialisation ------------------------------------------------------

    @classmethod
    def coerce(cls, value: "PolicySpec | str | dict") -> "PolicySpec":
        """Accept every spelling a policy may arrive as.

        Bare strings are the legacy form every existing scenario file uses;
        mappings are the explicit form; specs pass through.
        """
        return Policy(cls).load(value, "policy")

    def to_compact(self) -> "str | dict":
        """The serialized form scenarios embed.

        A param-less spec serializes back to the bare string, so legacy
        files round-trip byte-identically and the two spellings share one
        fingerprint.
        """
        if not self.params:
            return self.name
        return self.to_dict()

    def fingerprint(self) -> str:
        """Stable hex digest of the configured point (cache identity).

        Canonical over numeric spelling even when the name is not yet
        registered (schema coercion then never ran): ``lam=1`` and
        ``lam=1.0`` must share one cache identity either way.
        """
        return digest(self.to_compact())
