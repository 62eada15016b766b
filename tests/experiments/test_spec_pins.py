"""Pinned identities of every committed spec file and a generated corpus.

Each spec class parses, coerces and serializes its own dict form; the
cache key of a sweep cell is ``fingerprint()`` and a saved spec is
``to_json()``.  This file pins both for:

- every ``examples/scenarios/*.json`` spec, plus the fingerprint of each
  cell it expands to;
- every ``examples/studies/*.json`` study, plus the fingerprint of each
  grid cell (capacity studies: each rate at both worker bounds);
- a seeded corpus of generated valid spec dicts covering every section —
  inline DAGs, plain and LLM profiles, routers, resilience hops, the three
  fault kinds, bursts, tenants with quotas, admission and policy params,
  sweep axes and the three study kinds.

Expanded cells pin only the fingerprint: an axis value is applied in
Python, so its numeric spelling (``6`` against ``6.0``) may change the
cell's JSON text but never its canonical fingerprint.  The corpus spells
every float-typed field as a Python float and every count as an int, so
parsing it is spelling-neutral.

Regenerate the pins (only when a spec identity is meant to move) with::

    PYTHONPATH=src python tests/experiments/test_spec_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.experiments.scenario import (
    MultiScenario,
    Scenario,
    SweepSpec,
    load_scenario_file,
    scenario_from_dict,
)
from repro.pipeline.applications import get_application
from repro.policies.registry import ADMISSIONS, POLICIES
from repro.studies import load_study_file, study_from_dict

REPO = Path(__file__).resolve().parent.parent.parent
PINS = Path(__file__).with_name("spec_pins.json")
CORPUS_SIZE = 320

NAMED_APPS = ("tm", "lv", "gm", "da", "llm-chat", "rag-agentic")
TRACE_NAMES = ("poisson", "tweet", "wiki", "azure", "constant", "step")
PLAIN_MODELS = ("object_detection", "face_recognition", "text_recognition",
                "eye_tracking", "pose_recognition")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


# -- corpus generator ---------------------------------------------------------


def _plain_profile(rng, name):
    out = {"name": name, "base": _num(rng, 0.005, 0.03),
           "per_item": _num(rng, 0.002, 0.009)}
    if rng.random() < 0.6:
        out["max_batch"] = rng.choice((4, 8, 16, 32))
    return out


def _token_dist(rng):
    kind = rng.choice(("constant", "uniform", "lognormal"))
    if kind == "uniform":
        low = float(rng.randint(1, 40))
        return {"kind": kind, "low": low, "high": low + rng.randint(0, 40)}
    out = {"kind": kind, "mean": float(rng.randint(2, 300))}
    if kind == "lognormal":
        out["sigma"] = _num(rng, 0.1, 0.9)
    return out


def _llm_profile(rng, name):
    out = {"name": name, "max_batch": rng.choice((2, 4, 8))}
    if rng.random() < 0.7:
        out["kind"] = "llm"
    out["prefill_base"] = _num(rng, 0.002, 0.008)
    for key, lo, hi in (("prefill_per_token", 0.00001, 0.00005),
                        ("decode_base", 0.001, 0.004),
                        ("decode_per_token", 0.0001, 0.0005)):
        if rng.random() < 0.7:
            out[key] = round(rng.uniform(lo, hi), 6)
    if rng.random() < 0.6:
        out["kv_capacity"] = rng.choice((2048, 4096, 16384))
    for key in ("prompt_dist", "output_dist"):
        if rng.random() < 0.7:
            out[key] = _token_dist(rng)
    if rng.random() < 0.3:
        out["preempt"] = rng.random() < 0.5
    return out


def _inline_app(rng, tag):
    """An inline DAG (chain, diamond or two-exit fork) with its profiles."""
    shape = rng.choice(("chain", "diamond", "fork"))
    if shape == "chain":
        n = rng.randint(1, 4)
        edges = {f"m{i}": [f"m{i + 1}"] if i < n else [] for i in range(1, n + 1)}
    elif shape == "diamond":
        edges = {"m1": ["m2", "m3"], "m2": ["m4"], "m3": ["m4"], "m4": []}
    else:
        edges = {"m1": ["m2", "m3"], "m2": [], "m3": []}
    pres = {mid: [p for p, subs in edges.items() if mid in subs] for mid in edges}
    profiles, models = [], {}
    for i, mid in enumerate(edges):
        r = rng.random()
        if r < 0.35:
            models[mid] = rng.choice(PLAIN_MODELS)
        elif r < 0.8:
            name = f"{tag}_p{i}"
            profiles.append(_plain_profile(rng, name))
            models[mid] = name
        else:
            name = f"{tag}_gen{i}"
            profiles.append(_llm_profile(rng, name))
            models[mid] = name
    if shape == "chain" and rng.random() < 0.4:
        app = {"chain": [models[m] for m in edges]}
    else:
        modules = []
        for mid in edges:
            module = {"id": mid, "model": models[mid]}
            if pres[mid] or rng.random() < 0.5:
                module["pres"] = pres[mid]
            if edges[mid] or rng.random() < 0.5:
                module["subs"] = edges[mid]
            modules.append(module)
        app = {"modules": modules}
    app["slo"] = _num(rng, 0.3, 2.0)
    if rng.random() < 0.6:
        app["pipeline"] = f"{tag}-{shape}"
    if profiles:
        app["profiles"] = profiles
    return app, edges


def _app(rng, tag):
    if rng.random() < 0.45:
        name = rng.choice(NAMED_APPS)
        app = {"name": name}
        if rng.random() < 0.3:
            app["slo"] = _num(rng, 0.3, 12.0)
        spec = get_application(name).spec
        edges = {m.id: list(m.subs) for m in spec.modules}
        return app, edges
    return _inline_app(rng, tag)


def _trace(rng, *, base_rate: bool):
    name = rng.choice(TRACE_NAMES)
    duration = rng.choice((6, 8.0, 10, 12.5, 20))
    out = {"name": name, "duration": duration}
    if base_rate:
        out["base_rate"] = rng.choice((20, 35.5, 60, 90.0))
    if rng.random() < 0.3:
        out["seed"] = rng.randint(0, 9)
    if name == "tweet" and rng.random() < 0.5:
        out["args"] = {"burst_at": _num(rng, 1.0, duration - 1.0),
                       "burst_factor": _num(rng, 1.2, 3.0)}
    elif name == "step" and rng.random() < 0.7:
        out["args"] = {"rates": [[0, 1.0], [duration / 2, _num(rng, 1.5, 4.0)]]}
    if rng.random() < 0.25:
        out["scale"] = _num(rng, 0.3, 1.0)
    if rng.random() < 0.35:
        out["bursts"] = [
            {"start": _num(rng, 0.0, duration - 1.0),
             "length": _num(rng, 0.5, 3.0),
             "factor": _num(rng, 0.5, 4.0),
             **({"seed": rng.randint(0, 5)} if rng.random() < 0.5 else {})}
            for _ in range(rng.randint(1, 2))
        ]
    if rng.random() < 0.15:
        out["stream"] = True
    return out


def _param_value(rng, param):
    if param.choices:
        return rng.choice(param.choices)
    if param.type == "bool":
        return rng.random() < 0.5
    if param.type == "int":
        low = int(param.low) if param.low is not None else 0
        return rng.randint(max(low, 1), max(low, 1) + 500)
    low = param.low if param.low is not None else 0.0
    high = param.high if param.high is not None else low + 10.0
    value = _num(rng, low + 0.01, high - 0.01)
    return value


def _policy(rng, registry):
    name = rng.choice(sorted(registry))
    params = registry[name].params
    if not params or rng.random() < 0.4:
        return name
    chosen = rng.sample(list(params), rng.randint(1, min(2, len(params))))
    return {"name": name, "params": {p.name: _param_value(rng, p) for p in chosen}}


def _failure(rng, edges, duration, *, pools=None):
    targets = sorted(pools) if pools is not None else sorted(edges)
    linkable = [(s, d) for s, subs in edges.items() for d in subs]
    kinds = ["kill", "degrade"] + (["link"] if linkable and pools is None else [])
    kind = rng.choice(kinds)
    event = {"time": _num(rng, 0.0, duration - 0.5)}
    if kind == "link":
        src, dst = rng.choice(linkable)
        event.update(module_id=src, kind="link", dst=dst)
    else:
        event["module_id"] = rng.choice(targets)
        if kind == "degrade":
            event.update(kind="degrade", factor=_num(rng, 1.1, 4.0))
    if rng.random() < 0.5:
        event["workers"] = rng.randint(1, 2)
    if rng.random() < 0.7:
        event["downtime"] = _num(rng, 0.2, 4.0)
    return event


def _resilience(rng, edges):
    hops = {}
    for mid in rng.sample(sorted(edges), rng.randint(1, min(2, len(edges)))):
        if rng.random() < 0.25:
            hops[mid] = {"hedge": _num(rng, 0.01, 0.3)}
            continue
        hop = {"timeout": _num(rng, 0.05, 1.0)}
        if rng.random() < 0.5:
            hop["on_timeout"] = rng.choice(("retry", "drop"))
        if rng.random() < 0.6:
            hop["retry"] = {"max": rng.randint(0, 3),
                            "base": _num(rng, 0.01, 0.2),
                            "jitter": _num(rng, 0.0, 0.05)}
        if rng.random() < 0.3:
            hop["hedge"] = _num(rng, 0.01, 0.3)
        hops[mid] = hop
    # A fallback to a sibling branch, which is never downstream.
    forks = [subs for subs in edges.values() if len(subs) == 2]
    if forks and rng.random() < 0.5:
        a, b = forks[0]
        hops[a] = {"timeout": _num(rng, 0.05, 1.0), "fallback": b}
    return hops


def _router(rng, edges):
    forks = [subs for subs in edges.values() if len(subs) >= 2]
    if not forks or rng.random() < 0.2:
        return {"kind": "static"}
    out = {"kind": "probabilistic",
           "weights": {mid: _num(rng, 0.1, 2.0) for mid in forks[0]}}
    if rng.random() < 0.5:
        out["seed"] = rng.randint(0, 9)
    return out


def _scaling(rng):
    out = {}
    for key, lo, hi in (("interval", 0.5, 4.0), ("cold_start", 0.0, 10.0),
                        ("headroom", 0.8, 1.5)):
        if rng.random() < 0.4:
            out[key] = _num(rng, lo, hi)
    if rng.random() < 0.5:
        out["enabled"] = rng.random() < 0.5
    if rng.random() < 0.4:
        low = rng.randint(1, 3)
        out["min_workers"] = low
        out["max_workers"] = low + rng.randint(0, 8)
    if rng.random() < 0.3:
        out["scale_in_patience"] = rng.randint(1, 6)
    if rng.random() < 0.2:
        out["graceful_scale_in"] = rng.random() < 0.5
    return out


def _goodput(rng):
    keys = rng.sample(("ttft", "tpot", "e2e"), rng.randint(1, 3))
    return {k: _num(rng, 0.005, 9.0) for k in keys}


def _scenario(rng, tag, *, tenant=False):
    app, edges = _app(rng, tag)
    calibrated = not tenant and rng.random() < 0.3
    trace = _trace(rng, base_rate=not calibrated)
    out = {"app": app, "trace": trace, "policy": _policy(rng, POLICIES)}
    if rng.random() < 0.5:
        out["seed"] = rng.randint(0, 20)
    if rng.random() < 0.4:
        out["name"] = f"{tag}-s"
    if tenant:
        out["name"] = tag
    if rng.random() < 0.3:
        out["goodput"] = _goodput(rng)
    if rng.random() < 0.3:
        out["router"] = _router(rng, edges)
    if tenant:
        return out, edges
    if calibrated:
        out["utilization"] = _num(rng, 0.5, 1.2)
    elif rng.random() < 0.2:
        out["provision_rate"] = _num(rng, 20.0, 200.0)
    r = rng.random()
    if r < 0.35:
        out["workers"] = rng.randint(1, 4)
    elif r < 0.55:
        out["workers"] = {mid: rng.randint(1, 3) for mid in edges}
    for key, lo, hi in (("provision_headroom", 0.8, 1.5),
                        ("sync_interval", 0.2, 2.0),
                        ("stats_window", 1.0, 8.0), ("drain", 0.0, 8.0)):
        if rng.random() < 0.2:
            out[key] = _num(rng, lo, hi)
    if rng.random() < 0.4:
        out["scaling"] = _scaling(rng)
    if rng.random() < 0.4:
        out["failures"] = [
            _failure(rng, edges, float(trace["duration"]))
            for _ in range(rng.randint(1, 3))
        ]
    if rng.random() < 0.3:
        out["resilience"] = _resilience(rng, edges)
    return out, edges


def _multi(rng, tag, n_tenants=None):
    tenants = []
    for i in range(n_tenants or rng.randint(1, 3)):
        scenario, _ = _scenario(rng, f"{tag}t{i}", tenant=True)
        tenant = {"scenario": scenario}
        if rng.random() < 0.5:
            tenant["weight"] = _num(rng, 0.5, 3.0)
        tenants.append(tenant)
    out = {"tenants": tenants}
    pools, by_member = MultiScenario.from_dict(out).pool_layout()
    for tenant in tenants:
        label = tenant["scenario"]["name"]
        mine = sorted({key for (t, _), key in by_member.items() if t == label})
        r = rng.random()
        if r < 0.25:
            tenant["quota"] = rng.randint(1, 3)
        elif r < 0.45:
            tenant["quota"] = {key: rng.randint(1, 3)
                               for key in rng.sample(mine, 1)}
    r = rng.random()
    if r < 0.4:
        out["workers"] = rng.randint(1, 4)
    elif r < 0.6:
        out["workers"] = {key: rng.randint(1, 3) for key in pools}
    if rng.random() < 0.3:
        out["scaling"] = _scaling(rng)
    duration = max(float(t["scenario"]["trace"]["duration"]) for t in tenants)
    if rng.random() < 0.3:
        out["failures"] = [_failure(rng, {}, duration, pools=pools)
                           for _ in range(rng.randint(1, 2))]
    for key, lo, hi in (("provision_headroom", 0.8, 1.5),
                        ("sync_interval", 0.2, 2.0),
                        ("stats_window", 1.0, 8.0), ("drain", 0.0, 8.0)):
        if rng.random() < 0.2:
            out[key] = _num(rng, lo, hi)
    if rng.random() < 0.5:
        out["seed"] = rng.randint(0, 9)
    if rng.random() < 0.4:
        out["name"] = f"{tag}-multi"
    if rng.random() < 0.4:
        out["admission"] = _policy(rng, ADMISSIONS)
    return out


def _axes(rng, base):
    """One or two sweep axes that every base of this shape accepts."""
    options = [("seed", [0, rng.randint(1, 9)]),
               ("drain", [_num(rng, 0.0, 4.0), _num(rng, 4.0, 8.0)])]
    if "tenants" in base:
        first = base["tenants"][0]
        options.append(("trace.base_rate", [_num(rng, 10, 40), 55.0]))
        options.append((f"tenant.{first['scenario']['name']}.weight",
                        [1.0, _num(rng, 1.1, 3.0)]))
        options.append((f"tenant.{first['scenario']['name']}.quota", [1, 2]))
        if isinstance(base.get("admission"), dict) or base.get("admission"):
            options.append(("admission", ["token-bucket", "weighted-fair"]))
    else:
        options.append(("policy", ["PARD", rng.choice(("Naive", "Nexus"))]))
        options.append(("scaling.cold_start", [_num(rng, 0, 4), 6.0]))
        options.append(("goodput.ttft", [_num(rng, 0.1, 1.0), 2.0]))
        if "utilization" not in base:
            options.append(("trace.base_rate", [_num(rng, 10, 40), 55.0]))
        if not isinstance(base.get("workers"), dict):
            options.append(("workers", [1, 3]))
        policy = base["policy"]
        if isinstance(policy, str) and policy.startswith("PARD") \
                and policy != "PARD-oc":
            options.append(("policy.lam", [0.05, _num(rng, 0.1, 0.9)]))
        for mid, hop in sorted(base.get("resilience", {}).items()):
            if "timeout" in hop:
                options.append((f"resilience.{mid}.timeout", [0.1, 0.4]))
                options.append((f"resilience.{mid}.retry.max", [0, 2]))
                break
    chosen = rng.sample(options, rng.randint(1, 2))
    return {axis: values for axis, values in chosen}


def _study(rng, tag):
    kind = rng.choice(("interference", "capacity", "chaos"))
    if kind == "interference":
        base = _multi(rng, tag, n_tenants=2)
        labels = [t["scenario"]["name"] for t in base["tenants"]]
        out = {"study": kind, "victim": labels[0], "aggressor": labels[1],
               "loads": [rng.choice((20, 30.5)), rng.choice((60, 90.0))],
               "base": base}
        if rng.random() < 0.5:
            out["axes"] = {"seed": [0, 1]}
    elif kind == "capacity":
        if rng.random() < 0.5:
            base, _ = _scenario(rng, tag, tenant=True)
        else:
            base = _multi(rng, tag)
        low = rng.randint(1, 3)
        out = {"study": kind, "rates": [rng.choice((20, 45.5)), 80.0],
               "target": _num(rng, 0.5, 1.0), "min_workers": low,
               "max_workers": low + rng.randint(0, 6), "base": base}
    else:
        base, edges = _scenario(rng, tag)
        base.pop("failures", None)
        out = {"study": kind, "seeds": [0, rng.randint(1, 9)],
               "faults": rng.randint(1, 3), "base": base}
        if rng.random() < 0.5:
            out["kinds"] = rng.sample(("kill", "degrade", "link"),
                                      rng.randint(1, 3))
        if rng.random() < 0.5:
            out["start"] = [_num(rng, 0.0, 0.3), _num(rng, 0.3, 0.9)]
        if rng.random() < 0.5:
            out["downtime"] = [_num(rng, 0.1, 1.0), _num(rng, 1.0, 4.0)]
        if rng.random() < 0.5:
            out["factor"] = [_num(rng, 1.1, 2.0), _num(rng, 2.0, 4.0)]
        if rng.random() < 0.5:
            out["window"] = _num(rng, 0.5, 2.0)
        if rng.random() < 0.5:
            out["target"] = _num(rng, 0.5, 1.0)
        if rng.random() < 0.5:
            out["axes"] = _axes(rng, base)
    if rng.random() < 0.5:
        out["name"] = f"{tag}-{kind}"
    return out


def corpus(size: int = CORPUS_SIZE) -> list[dict]:
    """``size`` valid spec dicts, a pure function of the index."""
    out = []
    for i in range(size):
        rng = random.Random(1000 + i)
        tag = f"c{i}"
        kind = i % 8
        if kind < 4:
            spec, _ = _scenario(rng, tag)
        elif kind == 4:
            spec = _multi(rng, tag)
        elif kind == 5:
            spec, _ = _scenario(rng, tag)
            spec = {"base": spec, "axes": _axes(rng, spec)}
        elif kind == 6:
            spec = _multi(rng, tag)
            spec = {"base": spec, "axes": _axes(rng, spec)}
        else:
            spec = _study(rng, tag)
        out.append(spec)
    return out


# -- identities ---------------------------------------------------------------


def _cells(spec) -> list:
    if isinstance(spec, SweepSpec):
        return spec.expand()
    kind = getattr(spec, "kind", None)
    if kind == "capacity":
        return [spec.spec_at(rate, w) for rate in spec.rates
                for w in (spec.min_workers, spec.max_workers)]
    if kind in ("interference", "chaos"):
        return [cell for _, cell in spec.expand()]
    return []


def identity(spec) -> dict:
    """sha256 of the JSON text, the spec fingerprint and its cells'.

    The text is ``json.dumps(to_dict(), indent=2)``, which is what
    ``to_json()`` writes for every spec class that has one.
    """
    out = {"json": _sha(json.dumps(spec.to_dict(), indent=2))}
    if isinstance(spec, (Scenario, MultiScenario)):
        out["fingerprint"] = spec.fingerprint()
    cells = _cells(spec)
    if cells:
        out["cells"] = _sha(",".join(c.fingerprint() for c in cells))
    return out


def _parse(data: dict):
    return study_from_dict(data) if "study" in data else scenario_from_dict(data)


def current_pins() -> dict:
    examples = {
        p.name: identity(load_scenario_file(p))
        for p in sorted((REPO / "examples" / "scenarios").glob("*.json"))
    }
    studies = {
        p.name: identity(load_study_file(p))
        for p in sorted((REPO / "examples" / "studies").glob("*.json"))
    }
    generated = []
    for data in corpus():
        ident = identity(_parse(data))
        generated.append(":".join(
            ident[k][:16] for k in ("json", "fingerprint", "cells") if k in ident
        ))
    return {"examples": examples, "studies": studies, "corpus": generated}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return current_pins()


def test_corpus_covers_every_section():
    blob = json.dumps(corpus())
    for needle in ('"modules"', '"chain"', '"kind": "llm"', '"prefill_base"',
                   '"prompt_dist"', '"per_item"', '"probabilistic"',
                   '"resilience"', '"fallback"', '"kind": "degrade"',
                   '"kind": "link"', '"bursts"', '"quota"', '"admission"',
                   '"params"', '"axes"', '"stream"', '"goodput"',
                   '"study": "interference"', '"study": "capacity"',
                   '"study": "chaos"', '"scaling"', '"tenants"'):
        assert needle in blob, needle
    assert len(corpus()) >= 300


@pytest.mark.parametrize("section", ["examples", "studies"])
def test_committed_spec_identities_pinned(pins, current, section):
    assert current[section] == pins[section]


def test_generated_corpus_identities_pinned(pins, current):
    moved = [i for i, (a, b) in enumerate(zip(current["corpus"], pins["corpus"]))
             if a != b]
    assert not moved, f"corpus specs whose identity moved: {moved[:20]}"
    assert len(current["corpus"]) == len(pins["corpus"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    PINS.write_text(json.dumps(current_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
