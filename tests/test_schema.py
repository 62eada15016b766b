"""The spec codec, driven by the declarations themselves.

Strategies come from :mod:`tests.spec_strategies`, which reads every spec
class's declared fields, so each property covers every field of every
spec: a valid instance survives the dict round trip with its fingerprint,
and corrupting any one field — wrong kind, NaN/inf, out of bound, an
unknown key or a missing required key — is refused with one line that
names it, on the Python path (``dataclasses.replace``) and the dict path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import schema

from .spec_strategies import SPECS, corruptions, instances, keyed_fields

SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _one_line(err) -> str:
    message = str(err.value)
    assert "\n" not in message
    return message


def _corruptible(cls) -> list:
    return [(name, key, what, bad)
            for name, kind, key in keyed_fields(cls)
            for what, bad in corruptions(kind)]


@pytest.mark.parametrize("cls", SPECS, ids=lambda c: c.__name__)
@SETTINGS
@given(data=st.data())
def test_valid_specs_round_trip(cls, data):
    spec = data.draw(instances(cls))
    text = json.dumps(spec.to_dict())
    again = cls.from_dict(json.loads(text))
    assert again.fingerprint() == spec.fingerprint()
    assert json.dumps(again.to_dict()) == text


@pytest.mark.parametrize("cls", SPECS, ids=lambda c: c.__name__)
@SETTINGS
@given(data=st.data())
def test_a_corrupted_field_is_refused_naming_it(cls, data):
    spec = data.draw(instances(cls))
    name, key, what, bad = data.draw(st.sampled_from(_corruptible(cls)))
    with pytest.raises(ValueError) as err:
        replace(spec, **{name: bad})
    assert f"{key} must" in _one_line(err), what
    body = spec.to_dict()
    if key in body:
        body[key] = bad
        with pytest.raises(ValueError) as err:
            cls.from_dict(body)
        assert f"{key} must" in _one_line(err), what


@pytest.mark.parametrize("cls", SPECS, ids=lambda c: c.__name__)
@SETTINGS
@given(data=st.data())
def test_unknown_and_missing_keys_are_refused_naming_them(cls, data):
    body = data.draw(instances(cls)).to_dict()
    with pytest.raises(ValueError) as err:
        cls.from_dict({**body, "bogus_key": 1})
    assert _one_line(err) == f"unknown {cls._section} keys: ['bogus_key']"
    required = cls._declared().required
    if required:
        key = data.draw(st.sampled_from(required))
        del body[key]
        with pytest.raises(ValueError) as err:
            cls.from_dict(body)
        assert _one_line(err) == (
            f"{cls._section} missing required keys: [{key!r}]"
        )


def test_every_spec_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    declared = {c for c in subclasses(schema.Spec)
                if c.__module__.startswith("repro.")}
    assert declared == set(SPECS)


@pytest.mark.parametrize("text, inside, outside, shown", [
    ("> 0", [1e-9, 5.0], [0.0, -1.0], "> 0"),
    (">= 1", [1.0, 7.0], [0.999], ">= 1"),
    ("[0, 1]", [0.0, 1.0], [-0.1, 1.1], "in [0, 1]"),
    ("(0, 1]", [0.5, 1.0], [0.0], "in (0, 1]"),
    ("[0, 1)", [0.0], [1.0], "in [0, 1)"),
])
def test_bounds_read_as_they_print(text, inside, outside, shown):
    bound = schema.Bound.parse(text)
    assert all(v in bound for v in inside)
    assert not any(v in bound for v in outside)
    assert str(bound) == shown


def test_omit_default_keeps_the_default_out_of_the_dict_form():
    @dataclass(frozen=True)
    class Probe(schema.Spec):
        always: int = schema.field(schema.Int(), 0)
        optional: str | None = schema.field(
            schema.Opt(schema.Str()), None, omit_default=True
        )

    assert Probe().to_dict() == {"always": 0}
    assert Probe(optional="x").to_dict() == {"always": 0, "optional": "x"}
    assert Probe.from_dict({"always": 2}) == Probe(always=2)
