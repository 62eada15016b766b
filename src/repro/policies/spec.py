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

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

__all__ = ["ParamSpec", "PolicySpec"]

#: JSON-serializable scalar types a policy parameter may hold.
_SCALARS = (bool, int, float, str)


@dataclass(frozen=True)
class ParamSpec:
    """One declared, introspectable policy parameter.

    ``type`` is a type *name* ("float", "int", "str", "bool") rather than a
    Python type so the declaration itself serializes (``repro list
    --params`` prints it verbatim).  ``choices`` restricts the value to an
    enumerated set (mode knobs); ``default`` documents what the factory
    uses when the parameter is not given.  ``low``/``high`` bound a
    numeric value, inclusive unless ``exclusive`` makes both ends strict;
    a numeric value must also be finite.
    """

    name: str
    type: str
    default: Any
    choices: tuple = ()
    help: str = ""
    low: float | None = None
    high: float | None = None
    exclusive: bool = False

    def __post_init__(self) -> None:
        if self.type not in ("float", "int", "str", "bool"):
            raise ValueError(f"unknown param type {self.type!r}")
        object.__setattr__(self, "choices", tuple(self.choices))

    def coerce(self, value: Any, where: str) -> Any:
        """Validate ``value`` against this declaration; returns it coerced.

        Numeric spelling is normalised (JSON authors write ``8`` where
        Python holds ``8.0``) so equal specs fingerprint equally; genuine
        type mismatches raise with the offending policy/param named.
        """
        if self.type == "bool":
            if not isinstance(value, bool):
                raise ValueError(f"{where} must be true/false, got {value!r}")
            out: Any = value
        elif self.type in ("int", "float"):
            kind = "an integer" if self.type == "int" else "a number"
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{where} must be {kind}, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{where} must be finite, got {value!r}")
            if self.type == "int" and int(value) != value:
                raise ValueError(f"{where} must be an integer, got {value!r}")
            out = int(value) if self.type == "int" else float(value)
            if not self._in_bounds(out):
                raise ValueError(f"{where} must be {self._bounds()}, got {value!r}")
        else:
            if not isinstance(value, str):
                raise ValueError(f"{where} must be a string, got {value!r}")
            out = value
        if self.choices and out not in self.choices:
            raise ValueError(
                f"{where} must be one of {list(self.choices)}, got {value!r}"
            )
        return out

    def _in_bounds(self, value: float) -> bool:
        low, high = self.low, self.high
        if self.exclusive:
            return (low is None or value > low) and (high is None or value < high)
        return (low is None or value >= low) and (high is None or value <= high)

    def _bounds(self) -> str:
        """The declared range as text: ``in [0, 1]``, ``> 0``, ``>= 1``;
        empty when the parameter is unbounded."""
        low, high = self.low, self.high
        if low is not None and high is not None:
            left, right = "()" if self.exclusive else "[]"
            return f"in {left}{low:g}, {high:g}{right}"
        strict = "" if self.exclusive else "="
        if low is not None:
            return f">{strict} {low:g}"
        if high is not None:
            return f"<{strict} {high:g}"
        return ""

    def describe(self) -> str:
        """One cell of ``repro list --params`` output."""
        if self.choices:
            kind = "|".join(str(c) for c in self.choices)
        else:
            kind = " ".join(filter(None, (self.type, self._bounds())))
        return f"{self.name}={self.default} ({kind})"


@dataclass(frozen=True)
class PolicySpec:
    """A registered policy name plus typed construction parameters.

    The first-class unit of policy configuration: scenarios carry one,
    sweep axes vary one parameter at a time (``with_params``), and the
    registry constructs the live policy from it
    (:func:`repro.policies.registry.make_policy`).  ``params`` holds only
    the *authored* knobs — unset parameters fall to the factory defaults,
    so a bare ``PolicySpec("PARD")`` is byte-identical to the legacy string
    form in serialized scenarios (see :meth:`to_compact`).
    """

    name: str = "PARD"
    params: tuple = ()  # sorted ((key, value), ...) pairs

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"policy name must be a non-empty string, "
                             f"got {self.name!r}")
        raw: Iterable
        if isinstance(self.params, Mapping):
            raw = self.params.items()
        else:
            raw = self.params
        pairs = sorted((str(k), v) for k, v in raw)
        keys = [k for k, _ in pairs]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate params for policy {self.name!r}")
        for key, value in pairs:
            if not isinstance(value, _SCALARS):
                raise ValueError(
                    f"policy param {key!r} must be a scalar "
                    f"(bool/int/float/str), got {type(value).__name__}"
                )
        object.__setattr__(self, "params", tuple(pairs))
        # Validate eagerly when the name is already registered (the normal
        # case); unregistered names stay lazy so registration order is
        # flexible, and validate() is the authoritative check.
        schema = self._schema()
        if schema is not None:
            object.__setattr__(
                self, "params", self._coerced(schema)
            )

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
    def coerce(cls, value: "PolicySpec | str | Mapping") -> "PolicySpec":
        """Accept every spelling a policy may arrive as.

        Bare strings are the legacy form every existing scenario file uses;
        mappings are the explicit form; specs pass through.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            return cls.from_dict(dict(value))
        raise ValueError(
            f"policy must be a name, a mapping or a PolicySpec, "
            f"got {type(value).__name__}"
        )

    def to_dict(self) -> dict:
        return {"name": self.name, "params": self.param_dict()}

    def to_compact(self) -> "str | dict":
        """The serialized form scenarios embed.

        A param-less spec serializes back to the bare string, so legacy
        files round-trip byte-identically and the two spellings share one
        fingerprint.
        """
        if not self.params:
            return self.name
        return self.to_dict()

    @classmethod
    def from_dict(cls, data: "dict | str") -> "PolicySpec":
        if isinstance(data, str):
            return cls(name=data)
        unknown = set(data) - {"name", "params"}
        if unknown:
            raise ValueError(f"unknown policy keys: {sorted(unknown)}")
        if "name" not in data:
            raise ValueError("policy mapping requires a 'name'")
        return cls(name=str(data["name"]), params=dict(data.get("params", {})))

    def fingerprint(self) -> str:
        """Stable hex digest of the configured point (cache identity).

        Canonical over numeric spelling even when the name is not yet
        registered (schema coercion then never ran): ``lam=1`` and
        ``lam=1.0`` must share one cache identity either way.
        """

        def canonical(value):
            if isinstance(value, bool):
                return value
            if isinstance(value, int):
                return float(value)
            return value

        compact = self.to_compact()
        if isinstance(compact, dict):
            compact = dict(compact, params={
                k: canonical(v) for k, v in compact["params"].items()
            })
        blob = json.dumps(compact, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
