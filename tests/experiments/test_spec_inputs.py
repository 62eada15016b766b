"""Spec input rules: every value is coerced and checked on every path.

Each row below used to parse to a different value without an error, or
failed with an error that named no field.  Now every construction path —
``from_dict``, Python keywords, ``dataclasses.replace`` and sweep or study
axes — runs the declared field kinds (:mod:`repro.schema`), and refuses
the value with one line naming the field.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.scenario import Scenario, SweepSpec, scenario_from_dict
from repro.studies import study_from_dict

BASE = {"app": {"name": "tm"},
        "trace": {"name": "poisson", "duration": 6, "base_rate": 30}}
RAG = {"app": {"name": "rag-agentic"}}


def _trace(**fields) -> dict:
    return {**BASE, "trace": {**BASE["trace"], **fields}}


def _profiled(**fields) -> dict:
    profile = {"name": "p", "base": 0.01, "per_item": 0.002, **fields}
    return {"app": {"chain": ["p"], "slo": 1.0, "profiles": [profile]}}


def _multi(**tenant) -> dict:
    return {"tenants": [{"scenario": BASE, **tenant}]}


def _chaos(**fields) -> dict:
    return {"study": "chaos", "base": BASE, **fields}


def _capacity(**fields) -> dict:
    return {"study": "capacity", "base": BASE, "rates": [30], **fields}


def _parse(data: dict):
    spec = study_from_dict(data) if "study" in data else scenario_from_dict(data)
    return spec.validate()


def _refused(data: dict) -> str:
    with pytest.raises(ValueError) as err:
        _parse(data)
    message = str(err.value)
    assert "\n" not in message
    return message


#: (row, spec dict, the one-line error it now raises).
MISPARSED = [
    # bool("false") is True: the string switched on the streaming source.
    ("trace.stream string", _trace(stream="false"),
     "trace stream must be true/false, got 'false'"),
    # int() truncated a fractional count or seed (1.5 -> 1).
    ("seed fraction", {**BASE, "seed": 1.5},
     "seed must be an integer, got 1.5"),
    ("trace.seed fraction", _trace(seed=1.5),
     "trace seed must be an integer, got 1.5"),
    ("bursts.seed fraction",
     _trace(bursts=[{"start": 1, "length": 1, "factor": 2, "seed": 1.5}]),
     "burst seed must be an integer, got 1.5"),
    ("router.seed fraction",
     {**RAG, "router": {"kind": "probabilistic", "seed": 1.5}},
     "router seed must be an integer, got 1.5"),
    ("multi seed fraction", {**_multi(), "seed": 1.5},
     "seed must be an integer, got 1.5"),
    ("chaos seeds fraction", _chaos(seeds=[1.5]),
     "chaos seeds[0] must be an integer, got 1.5"),
    ("chaos faults fraction", _chaos(faults=1.5),
     "chaos faults must be an integer, got 1.5"),
    ("capacity min_workers fraction", _capacity(min_workers=1.5),
     "capacity min_workers must be an integer, got 1.5"),
    # JSON true passed as the number 1.
    ("drain true", {**BASE, "drain": True},
     "drain must be a number, got True"),
    ("trace.duration true", _trace(duration=True),
     "trace duration must be a number, got True"),
    ("workers true", {**BASE, "workers": True},
     "workers must be an integer, got True"),
    ("tenant.weight true", _multi(weight=True),
     "tenant weight must be a number, got True"),
    ("tenant.quota true", _multi(quota=True),
     "tenant quota must be an integer, got True"),
    ("router weight true",
     {**RAG, "router": {"kind": "probabilistic", "weights": {"rerank": True}}},
     "router weight for 'rerank' must be a number, got True"),
    ("scaling.min_workers true", {**BASE, "scaling": {"min_workers": True}},
     "scaling min_workers must be an integer, got True"),
    ("profile base true", _profiled(base=True),
     "profile 'p': base must be a number, got True"),
    ("capacity rates true", _capacity(rates=[True]),
     "capacity rates[0] must be a number, got True"),
    ("capacity target true", _capacity(target=True),
     "capacity target must be a number, got True"),
    ("chaos window true", _chaos(window=True),
     "chaos window must be a number, got True"),
    # Numeric strings passed through float().
    ("trace.duration string", _trace(duration="6"),
     "trace duration must be a number, got '6'"),
    ("scaling.interval string", {**BASE, "scaling": {"interval": "2"}},
     "scaling interval must be a number, got '2'"),
    ("failures.time string",
     {**BASE, "failures": [{"time": "1", "module_id": "m1"}]},
     "failure time must be a number, got '1'"),
    ("capacity rates string", _capacity(rates=["30"]),
     "capacity rates[0] must be a number, got '30'"),
    # A plain profile dict ignored unknown keys (the run used max_batch 32)
    # and kept a fractional max_batch (the run then failed mid-batch).
    ("profile unknown key", _profiled(maxbatch=4),
     "unknown profile keys: ['maxbatch']"),
    ("profile max_batch fraction", _profiled(max_batch=2.5),
     "profile 'p': max_batch must be an integer, got 2.5"),
]


@pytest.mark.parametrize("data, expected", [row[1:] for row in MISPARSED],
                         ids=[row[0] for row in MISPARSED])
def test_misparsed_values_are_refused(data, expected):
    assert _refused(data) == expected


#: (row, spec dict, the one-line error it now raises instead of a bare
#: KeyError/TypeError/AttributeError, or a string iterated per character).
NAMELESS = [
    ("module without id",
     {"app": {"modules": [{"model": "object_detection"}], "slo": 1.0}},
     "module missing required keys: ['id']"),
    ("burst without start", _trace(bursts=[{"length": 1, "factor": 2}]),
     "burst missing required keys: ['start']"),
    ("profile without name",
     {"app": {"chain": ["p"], "slo": 1.0,
              "profiles": [{"base": 0.01, "per_item": 0.002}]}},
     "profile missing required keys: ['name']"),
    ("app.profiles mapping",
     {"app": {"chain": ["p"], "slo": 1.0, "profiles": {"name": "p"}}},
     "app profiles must be a list, got {'name': 'p'}"),
    ("trace.args string", _trace(args="abc"),
     "trace args must be a mapping, got 'abc'"),
    ("resilience list", {**BASE, "resilience": [1, 2]},
     "resilience must be a mapping, got [1, 2]"),
    ("policy number", {**BASE, "policy": 5},
     "policy must be a name or a mapping, got 5"),
    ("policy.params list", {**BASE, "policy": {"name": "PARD", "params": [1]}},
     "policy params must be a mapping, got [1]"),
    ("goodput.ttft string", {**BASE, "goodput": {"ttft": "1"}},
     "goodput constraint ttft must be a number, got '1'"),
    ("app.chain string", {"app": {"chain": "probe_a", "slo": 1.0}},
     "app chain must be a list, got 'probe_a'"),
    ("chaos kinds string", _chaos(kinds="kill"),
     "chaos kinds must be a list, got 'kill'"),
]


@pytest.mark.parametrize("data, expected", [row[1:] for row in NAMELESS],
                         ids=[row[0] for row in NAMELESS])
def test_malformed_sections_name_the_field(data, expected):
    assert _refused(data) == expected


def test_cli_reports_a_malformed_section_in_one_line(tmp_path, capsys):
    """``app.profiles: {...}`` used to escape the CLI as a traceback."""
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(NAMELESS[3][1]))
    with pytest.raises(SystemExit) as err:
        main(["scenario", "run", "--file", str(path)])
    assert str(err.value) == (
        f"invalid scenario file {path}: app profiles must be a list, "
        "got {'name': 'p'}"
    )


#: (axis, value, the same value in the spec's dict form).
AXIS_VALUES = [
    ("seed", 1.5, {**BASE, "seed": 1.5}),
    ("trace.stream", "false", _trace(stream="false")),
    ("drain", True, {**BASE, "drain": True}),
    ("scaling.min_workers", 1.5, {**BASE, "scaling": {"min_workers": 1.5}}),
    ("trace.duration", "4", _trace(duration="4")),
]


@pytest.mark.parametrize("axis, value, as_dict", AXIS_VALUES,
                         ids=[row[0] for row in AXIS_VALUES])
def test_axis_values_are_checked_like_the_dict_path(axis, value, as_dict):
    """Axes never reached ``from_dict``: ``seed: [1.5]`` passed validate()
    and failed in the run, ``"false"`` stayed truthy, ``"4"`` raised a
    TypeError."""
    expected = _refused(as_dict)
    sweep = SweepSpec.from_dict({"base": BASE, "axes": {axis: [value]}})
    with pytest.raises(ValueError) as err:
        sweep.validate()
    assert str(err.value) == expected
    chaos = study_from_dict(_chaos(axes={axis: [value]}))
    with pytest.raises(ValueError) as err:
        chaos.validate()
    assert str(err.value) == expected


def test_replace_is_checked_like_the_dict_path():
    expected = _refused({**BASE, "seed": 1.5})
    with pytest.raises(ValueError) as err:
        replace(Scenario.from_dict(BASE), seed=1.5)
    assert str(err.value) == expected
