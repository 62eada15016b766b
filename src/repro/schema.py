"""Declared spec fields: one codec for coercion, bounds, errors and dict form.

Every spec — a scenario and each of its sections, a fault event, a
resilience hop, a model profile, a policy and the three study kinds — is a
frozen dataclass deriving from :class:`Spec`, and declares each field once
with :func:`field`::

    @dataclass(frozen=True)
    class BurstSpec(Spec):
        _section, _prefix = "burst", "burst "

        start: float = field(Num(">= 0"))
        seed: int = field(Int(">= 0"), 0)

A declaration gives the field's *kind*, its default, its bound (part of
the numeric kinds), its dict key (the field name unless ``key=`` says
otherwise; ``key=None`` keeps a derived field out of the dict form) and
whether the key is emitted only when set (``omit_default``).
:meth:`Spec.__post_init__` runs every kind on every construction path —
``from_dict``, Python keywords, ``dataclasses.replace`` and sweep axes —
so all of them coerce and reject alike.  The kinds:

* :class:`Bool` takes ``true``/``false`` only.
* :class:`Int` and :class:`Num` take numbers, never a bool.  A number must
  be finite, an ``Int`` integral, and both within the declared
  :class:`Bound` (``"> 0"``, ``">= 1"``, ``"[0, 1]"``, ``"(0, 1]"``…).
  ``Num`` stores a float, so ``8`` and ``8.0`` are one spec.
* :class:`Str` takes strings, optionally from fixed choices.
* :class:`Opt` also takes ``None``.
* :class:`Nested` takes a spec instance or its dict form, :class:`Policy`
  also a bare policy name; :class:`Seq` takes a list (never a string or a
  mapping) and stores a tuple; :class:`Map` takes a string-keyed mapping
  and stores a dict, or sorted pairs when ``frozen``; :class:`Either` is
  a scalar or a map of the same values (``workers``, ``quota``).
* :class:`Pair` is a ``(lo, hi)`` range, :class:`Axes` the sweep axes of a
  sweep or study, :class:`Json` generator arguments (scalars and nested
  lists), :class:`Scalar` one policy parameter and :class:`Raw` anything.

Every error is one line that names the field — ``<prefix><field> must be
…, got …`` with the class's ``_prefix`` (``scaling ``, ``failure ``,
``profile 'gen': ``…); unknown and missing dict keys raise ``unknown
<section> keys: […]`` and ``<section> missing required keys: […]``.

A field declared ``omit_default=True`` is left out of the dict form while
it holds its default.  Fields added after specs were first saved use it, so
an older spec keeps its JSON text — and so its :meth:`Spec.fingerprint`
— byte for byte.  What the declarations cannot say lives in three small
hooks per class: ``_check`` for cross-field rules, and ``_read``/
``_write`` for dict forms that are not one key per field (a compact
string, a nested sub-dict, a shorthand).

This module imports nothing from ``repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "Axes", "Bool", "Bound", "Either", "Int", "Json", "Map", "Nested", "Num",
    "Opt", "Pair", "Policy", "Raw", "Scalar", "Seq", "Spec", "Str", "digest",
    "field",
]


def show(value: Any) -> str:
    """A value as an error prints it: a spec by its class name, else repr."""
    return type(value).__name__ if isinstance(value, Spec) else repr(value)


def _is_list(value: Any) -> bool:
    return isinstance(value, (list, tuple))


def _is_mapping(value: Any) -> bool:
    # The exact-type test skips the slower abstract-class check for the
    # common case, a plain dict.
    return type(value) is dict or isinstance(value, Mapping)


def _is_pairs(value: Any) -> bool:
    return _is_list(value) and all(_is_list(p) and len(p) == 2 for p in value)


class Bound:
    """A numeric range; ``str()`` is the text that follows "must be".

    ``Bound.parse`` reads the same text back: ``"> 0"``, ``">= 1"``,
    ``"<= 1"`` or an interval ``"[0, 1]"``, ``"(0, 1]"``.
    """

    def __init__(self, low: float | None = None, high: float | None = None,
                 *, low_open: bool = False, high_open: bool = False) -> None:
        self.low, self.high = low, high
        self.low_open, self.high_open = low_open, high_open

    @classmethod
    def parse(cls, text: str) -> "Bound":
        if text[0] in "[(":
            low, high = text[1:-1].split(",")
            return cls(float(low), float(high),
                       low_open=text[0] == "(", high_open=text[-1] == ")")
        op, number = text.split()
        if op[0] == ">":
            return cls(float(number), low_open=op == ">")
        return cls(high=float(number), high_open=op == "<")

    def __contains__(self, value: float) -> bool:
        low, high = self.low, self.high
        return (
            (low is None or (value > low if self.low_open else value >= low))
            and (high is None
                 or (value < high if self.high_open else value <= high))
        )

    def __str__(self) -> str:
        low, high = self.low, self.high
        if low is not None and high is not None:
            return f"in {self.interval()}"
        if low is not None:
            return f">{'' if self.low_open else '='} {low:g}"
        return f"<{'' if self.high_open else '='} {high:g}"

    def interval(self) -> str:
        """Interval notation, open at an infinite end: ``(0, inf)``."""
        left = "(" if self.low is None or self.low_open else "["
        right = ")" if self.high is None or self.high_open else "]"
        low = "-inf" if self.low is None else f"{self.low:g}"
        high = "inf" if self.high is None else f"{self.high:g}"
        return f"{left}{low}, {high}{right}"


# -- kinds ----------------------------------------------------------------------


class Kind:
    """One field kind: ``load`` coerces a value or raises one line naming
    ``where``; ``dump`` gives the value's dict form.  ``load`` accepts its
    own output unchanged, because ``dataclasses.replace`` re-runs it."""

    def load(self, value: Any, where: str) -> Any:
        return value

    def dump(self, value: Any) -> Any:
        return value


class Raw(Kind):
    """Any value, unchecked (a declared policy parameter's default)."""


class _Choice(Kind):
    """A scalar kind whose coerced value may be limited to ``choices``."""

    def __init__(self, choices: tuple = ()) -> None:
        self.choices = tuple(choices)

    def load(self, value: Any, where: str) -> Any:
        out = self.coerce(value, where)
        if self.choices and out not in self.choices:
            raise ValueError(
                f"{where} must be one of {list(self.choices)}, got {show(value)}"
            )
        return out

    def coerce(self, value: Any, where: str) -> Any:
        raise NotImplementedError


class Bool(_Choice):
    def coerce(self, value: Any, where: str) -> bool:
        if value is True or value is False:
            return value
        raise ValueError(f"{where} must be true/false, got {show(value)}")


class Str(_Choice):
    def __init__(self, choices: tuple = (), *, nonempty: bool = False) -> None:
        super().__init__(choices)
        self.nonempty = nonempty

    def coerce(self, value: Any, where: str) -> str:
        if isinstance(value, str) and (value or not self.nonempty):
            return value
        what = "a non-empty string" if self.nonempty else "a string"
        raise ValueError(f"{where} must be {what}, got {show(value)}")


class Num(_Choice):
    """A finite float within ``bound`` (a :class:`Bound` or its text)."""

    integral = False

    def __init__(self, bound: "str | Bound | None" = None,
                 choices: tuple = ()) -> None:
        super().__init__(choices)
        self.bound = Bound.parse(bound) if isinstance(bound, str) else bound

    def coerce(self, value: Any, where: str) -> Any:
        exact = type(value)
        if exact is not float and exact is not int and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)
        ):
            what = "an integer" if self.integral else "a number"
            raise ValueError(f"{where} must be {what}, got {show(value)}")
        if self.integral and isinstance(value, numbers.Integral):
            out: Any = int(value)
        else:
            try:
                finite = math.isfinite(value)
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"{where} must be finite, got {value!r}")
            if not self.integral:
                out = float(value)
            elif value != int(value):
                raise ValueError(f"{where} must be an integer, got {value!r}")
            else:
                out = int(value)
        if self.bound is not None and out not in self.bound:
            raise ValueError(f"{where} must be {self.bound}, got {value!r}")
        return out


class Int(Num):
    """A finite integral number within ``bound``, stored as an int."""

    integral = True


class Scalar(Kind):
    """One policy parameter: a bool, string or number, as given (the
    registry's declaration of the parameter checks it further)."""

    def load(self, value: Any, where: str) -> Any:
        if isinstance(value, (bool, str, numbers.Real)):
            return value
        raise ValueError(
            f"{where} must be a scalar (bool/int/float/str), "
            f"got {type(value).__name__}"
        )


class Opt(Kind):
    """``None``, or a value of ``kind``."""

    def __init__(self, kind: Kind) -> None:
        self.kind = kind

    def load(self, value: Any, where: str) -> Any:
        return None if value is None else self.kind.load(value, where)

    def dump(self, value: Any) -> Any:
        return None if value is None else self.kind.dump(value)


class Nested(Kind):
    """A spec instance, or its dict form parsed by ``cls.from_dict``.

    ``cls`` may be a tuple of accepted classes, with ``pick`` choosing the
    class that parses a given dict.  ``what`` says what a non-mapping
    should have been; with ``wrap`` an error from inside the nested spec
    is prefixed with this field's name.
    """

    def __init__(self, cls: "type | tuple[type, ...]", *,
                 pick: Callable[[Mapping], type] | None = None,
                 what: str = "a mapping", wrap: bool = False) -> None:
        self.cls, self.pick, self.what, self.wrap = cls, pick, what, wrap

    def load(self, value: Any, where: str) -> Any:
        if isinstance(value, self.cls):
            return value
        if not _is_mapping(value):
            raise ValueError(f"{where} must be {self.what}, got {show(value)}")
        cls = self.pick(value) if self.pick is not None else self.cls
        if not self.wrap:
            return cls.from_dict(value)
        try:
            return cls.from_dict(value)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    def dump(self, value: Any) -> Any:
        return value.to_dict()


class Policy(Nested):
    """A policy spec, its dict form or a bare registered name; the dict
    form is the compact one (a bare name while no param is set)."""

    def __init__(self, cls: type) -> None:
        super().__init__(cls, what="a name or a mapping")

    def load(self, value: Any, where: str) -> Any:
        if isinstance(value, str):
            return self.cls.from_dict(value)
        return super().load(value, where)

    def dump(self, value: Any) -> Any:
        return value.to_compact()


class Seq(Kind):
    """A list of ``kind`` values, stored as a tuple.

    ``item`` names one element and makes an empty list an error.
    """

    def __init__(self, kind: Kind, *, item: str | None = None) -> None:
        self.kind, self.item = kind, item

    def load(self, value: Any, where: str) -> tuple:
        if not _is_list(value):
            raise ValueError(f"{where} must be a list, got {show(value)}")
        if self.item is not None and not value:
            raise ValueError(
                f"{where} must list at least one {self.item}, got []"
            )
        kind = self.kind
        return tuple(kind.load(v, f"{where}[{i}]") for i, v in enumerate(value))

    def dump(self, value: Any) -> list:
        return [self.kind.dump(v) for v in value]


class Map(Kind):
    """A string-keyed mapping of ``kind`` values.

    Stored as a dict, or — when ``frozen`` — as sorted ``(key, value)``
    pairs, which it also accepts back.  ``item`` words the name of one
    value in errors (``{where}`` and ``{key!r}`` are filled in).
    """

    def __init__(self, kind: Kind, *, frozen: bool = False,
                 item: str = "{where}[{key!r}]") -> None:
        self.kind, self.frozen, self.item = kind, frozen, item

    def load(self, value: Any, where: str) -> Any:
        if _is_mapping(value):
            pairs = value.items()
        elif self.frozen and _is_pairs(value):
            pairs = value
        else:
            raise ValueError(f"{where} must be a mapping, got {show(value)}")
        out: dict = {}
        for key, item in pairs:
            if not isinstance(key, str):
                raise ValueError(f"{where} keys must be strings, got {key!r}")
            if key in out:
                raise ValueError(f"{where} has duplicate key {key!r}")
            out[key] = self.kind.load(
                item, self.item.format(where=where, key=key)
            )
        return tuple(sorted(out.items())) if self.frozen else out

    def dump(self, value: Any) -> dict:
        items = value if self.frozen else value.items()
        return {k: self.kind.dump(v) for k, v in items}


class Either(Kind):
    """A ``scalar`` value, or a mapping loaded by ``mapping``."""

    def __init__(self, scalar: Kind, mapping: Map) -> None:
        self.scalar, self.mapping = scalar, mapping

    def _kind(self, value: Any) -> Kind:
        return self.mapping if _is_mapping(value) else self.scalar

    def load(self, value: Any, where: str) -> Any:
        return self._kind(value).load(value, where)

    def dump(self, value: Any) -> Any:
        return self._kind(value).dump(value)


class Pair(Kind):
    """A ``(lo, hi)`` range of numbers with ``lo <= hi``, inside ``bound``."""

    def __init__(self, bound: str) -> None:
        self.bound = Bound.parse(bound)
        self.number = Num()

    def load(self, value: Any, where: str) -> tuple:
        if not _is_list(value) or len(value) != 2:
            raise ValueError(
                f"{where} must be a (lo, hi) pair with lo <= hi, "
                f"got {show(value)}"
            )
        lo, hi = (self.number.load(v, where) for v in value)
        if lo > hi:
            raise ValueError(
                f"{where} must be a (lo, hi) pair with lo <= hi, "
                f"got {show(value)}"
            )
        if lo not in self.bound or hi not in self.bound:
            raise ValueError(
                f"{where} must lie in {self.bound.interval()}, got {show(value)}"
            )
        return (lo, hi)

    def dump(self, value: Any) -> list:
        return list(value)


class Json(Kind):
    """Generator arguments: ``None``, bools, strings, finite numbers and
    (nested) lists, frozen to tuples.  Mappings are refused — frozen,
    they could not be told apart from lists of pairs."""

    def load(self, value: Any, where: str) -> Any:
        if _is_list(value):
            return tuple(self.load(v, where) for v in value)
        if value is None or isinstance(value, (bool, str)):
            return value
        if isinstance(value, Mapping):
            raise ValueError(
                f"{where} must not contain nested mappings; use scalars and "
                f"(nested) lists, got {show(value)}"
            )
        if not isinstance(value, numbers.Real):
            raise ValueError(f"{where} must be JSON data, got {show(value)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{where} must be finite, got {value!r}")
        return value

    def dump(self, value: Any) -> Any:
        if isinstance(value, tuple):
            return [self.dump(v) for v in value]
        return value


class Axes(Kind):
    """Sweep axes, ``{axis: [value, ...]}``, kept in declaration order.

    The ``policy`` and ``admission`` axes take policies (loaded by
    ``policy``); every other axis takes scalars, which the target field
    coerces when the axis is applied to a spec.
    """

    POLICY_AXES = ("policy", "admission")

    def __init__(self, policy: Kind) -> None:
        self.policy = policy

    def load(self, value: Any, where: str) -> tuple:
        if _is_mapping(value):
            items = value.items()
        elif _is_pairs(value):
            items = value
        else:
            raise ValueError(
                f"{where} must be a mapping of axis -> values, got {show(value)}"
            )
        out = []
        for axis, values in items:
            if not isinstance(axis, str):
                raise ValueError(f"{where} names must be strings, got {axis!r}")
            at = f"{where} {axis!r}"
            if not _is_list(values):
                raise ValueError(f"{at} must be a list, got {show(values)}")
            if not values:
                raise ValueError(f"{at} has no values")
            if axis in self.POLICY_AXES:
                values = tuple(self.policy.load(v, at) for v in values)
            else:
                bad = [v for v in values if isinstance(v, (Mapping, list, tuple))]
                if bad:
                    raise ValueError(
                        f"{at} values must be scalars, got {show(bad[0])}"
                    )
            out.append((axis, tuple(values)))
        return tuple(out)

    def dump(self, value: Any) -> dict:
        return {
            axis: [self.policy.dump(v) if axis in self.POLICY_AXES else v
                   for v in values]
            for axis, values in value
        }


# -- declarations -----------------------------------------------------------------


def field(kind: Kind, default: Any = dataclasses.MISSING, *, key: Any = "",
          omit_default: bool = False, kw_only: bool = False) -> Any:
    """Declare one spec field (a :func:`dataclasses.field` carrying it).

    ``key`` is the dict key (default: the field name; ``None``: none).
    ``omit_default`` leaves the key out of the dict form at the default.
    """
    return dataclasses.field(
        default=default, metadata={"schema": (kind, key, omit_default)},
        **({"kw_only": True} if kw_only else {}),
    )


class _Declared:
    """One class's field table, built on first use."""

    def __init__(self, cls: type) -> None:
        self.loads: list[tuple[str, Kind, str]] = []
        self.dumps: list[tuple[str, Kind, str, bool, Any]] = []
        self.names: dict[str, str] = {}
        self.required: list[str] = []
        for f in dataclasses.fields(cls):
            kind, key, omit_default = f.metadata["schema"]
            key = f.name if key == "" else key
            self.loads.append((f.name, kind, key or f.name))
            if key is None:
                continue
            self.dumps.append((f.name, kind, key, omit_default, f.default))
            self.names[key] = f.name
            if f.default is dataclasses.MISSING:
                self.required.append(key)


def _canonical(value: Any) -> Any:
    """Normalise numeric spelling for fingerprinting.

    ``Scenario(duration=8)`` and its JSON round-trip (``8.0``) compare
    equal, so they must hash equal too — otherwise a spec authored in
    Python and the same spec re-loaded from a file would miss each
    other's cache entries.  Bools are checked first (bool is an int
    subclass); every other int becomes a float.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(data: Any) -> str:
    """Stable hex digest of a dict form, canonical over numeric spelling."""
    blob = json.dumps(_canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Spec:
    """Base of every declared spec: construction, dict form and identity.

    Subclasses are frozen dataclasses whose fields come from
    :func:`field`, and set ``_section`` (the noun of key errors),
    ``_prefix`` (the start of field errors) and, for tagged dict forms,
    ``_tag = (key, value)`` (emitted first, accepted on input).
    """

    _section = "spec"
    _prefix = ""
    _tag: tuple[str, str] | None = None

    @classmethod
    def _declared(cls) -> _Declared:
        table = cls.__dict__.get("_declared_table")
        if table is None:
            table = _Declared(cls)
            cls._declared_table = table
        return table

    def __post_init__(self) -> None:
        # getattr/object.__setattr__, never self.__dict__: reading that
        # materializes the instance dict, which slows every later attribute
        # load on hot-path specs (module.spec.id, profile.decode_base).
        prefix = self._where()
        for name, kind, label in self._declared().loads:
            value = getattr(self, name)
            out = kind.load(value, prefix + label)
            if out is not value:
                object.__setattr__(self, name, out)
        self._check()

    # -- hooks ----------------------------------------------------------------

    def _where(self) -> str:
        """The prefix of this instance's field errors."""
        return self._prefix

    def _check(self) -> None:
        """Cross-field rules, run after every field is coerced."""

    @classmethod
    def _read(cls, data: Any) -> Any:
        """Reshape a dict form into one key per declared field."""
        return data

    def _write(self, out: dict) -> Any:
        """Reshape the one-key-per-field dict form on the way out."""
        return out

    # -- dict form ------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Any) -> "Spec":
        data = cls._read(data)
        if not _is_mapping(data):
            raise ValueError(
                f"{cls._section} section must be a mapping, got {show(data)}"
            )
        table = cls._declared()
        tag = cls._tag
        if tag is not None and tag[0] in data:
            data = dict(data)
            value = data.pop(tag[0])
            if value != tag[1]:
                raise ValueError(
                    f"{cls._section} {tag[0]} must be {tag[1]!r}, got {value!r}"
                )
        unknown = [k for k in data if k not in table.names]
        if unknown:
            raise ValueError(
                f"unknown {cls._section} keys: {sorted(unknown, key=str)}"
            )
        missing = [k for k in table.required if k not in data]
        if missing:
            raise ValueError(f"{cls._section} missing required keys: {missing}")
        return cls(**{table.names[k]: v for k, v in data.items()})

    def to_dict(self) -> Any:
        out = {} if self._tag is None else {self._tag[0]: self._tag[1]}
        for name, kind, key, omit_default, default in self._declared().dumps:
            value = getattr(self, name)
            if omit_default and value == default:
                continue
            out[key] = kind.dump(value)
        return self._write(out)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Spec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: "str | Path") -> "Spec":
        return cls.from_json(Path(path).read_text())

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json() + "\n")

    def fingerprint(self) -> str:
        """Stable hex digest of the full spec (cache identity).

        Canonical over numeric spelling: equal specs fingerprint equally
        whether fields were authored as ints or floats, in Python or in
        JSON.
        """
        return digest(self.to_dict())
