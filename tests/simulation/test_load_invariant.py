"""Per-event property: a worker's counted load matches what it holds.

``Worker.load`` is a plain int that both engines update only where a
request enters or leaves a worker (enqueue, a skip or drop at draw or
admission, batch completion, sequence retirement).  These runs step the
simulator one event at a time and, after every event, check each live
worker: ``load`` equals its queue plus its forming batch plus its
executing batch (running sequences on an LLM worker), and ``idle`` is
``load == 0``.  The scenarios cover every registered policy (and Nexus's
windowed scan) on two workers, both LLM KV modes, every fault kind, every
resilience rescue, graceful scale-in and a quota-sliced shared pool.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.runner import run_multi_scenario, run_scenario
from repro.experiments.scenario import AppSpec, MultiScenario, Scenario
from repro.pipeline.profiles import DEFAULT_PROFILES
from repro.policies.registry import known_policies
from repro.simulation.engine import Simulator
from repro.simulation.llm import LLMWorker
from repro.simulation.module import Module
from repro.simulation.routing import ProbabilisticRouter
from repro.workload.generators import constant_trace
from repro.workload.replay import replay

from ..conftest import tiny_dag_app
from .test_resilience import resilient_cluster


class LoadAudit:
    """Checks every live worker of every module after each event."""

    def __init__(self) -> None:
        self.modules: list[Module] = []
        self.events = 0
        self.drainers: set = set()  # every worker ever seen draining
        self.saw_kv_wait = False  # an LLM worker held blocked sequences

    def check(self, sim: Simulator) -> None:
        self.events += 1
        for module in self.modules:
            if module.sim is not sim:
                continue
            for w in module.workers:
                if isinstance(w, LLMWorker):
                    held = len(w._running)
                    self.saw_kv_wait |= bool(w.forming)
                elif w.executing is not None:
                    held = len(w.executing.requests)
                else:
                    held = 0
                expected = len(w.queue) + len(w.forming) + held
                assert w.load == expected, (
                    f"t={sim.now}: {module.spec.id} worker {w.worker_id} "
                    f"counts {w.load}, holds {expected}"
                )
                assert w.idle == (expected == 0)
                if w.draining:
                    self.drainers.add(w)

    def unreaped(self) -> list:
        """Drained workers still in their pool (should be none at the end)."""
        return [w for w in self.drainers if w in w.module.workers]


@pytest.fixture
def audit(monkeypatch) -> LoadAudit:
    """Record every module built and run every simulator event by event."""
    audit = LoadAudit()
    init = Module.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        audit.modules.append(self)

    run = Simulator.run

    def stepping_run(self, until=None, max_events=None):
        assert max_events is None
        while True:
            before = self.processed_events
            run(self, until=until, max_events=1)
            if self.processed_events == before:
                return
            audit.check(self)

    monkeypatch.setattr(Module, "__init__", tracking_init)
    monkeypatch.setattr(Simulator, "run", stepping_run)
    return audit


def overload(app: str, policy: str | dict, **extra) -> Scenario:
    """A short run that bursts past capacity (drops, HBF/LBF flips)."""
    spec = {
        "name": f"audit-{app}",
        "app": {"name": app},
        "trace": {
            "name": "poisson", "duration": 3.0, "base_rate": 60.0,
            "bursts": [{"start": 1.0, "length": 1.0, "factor": 4.0}],
        },
        "policy": policy,
        "workers": 2,
        "seed": 3,
    }
    spec.update(extra)
    return Scenario.from_dict(spec)


#: Nexus's windowed scan is a registered parameter, not a policy name.
WINDOWED_NEXUS = {"name": "Nexus", "params": {"windowed": True}}


@pytest.mark.parametrize("app", ["tm", "da"])
@pytest.mark.parametrize(
    "policy", [*known_policies(), WINDOWED_NEXUS],
    ids=[*known_policies(), "Nexus-windowed"],
)
def test_every_policy(audit, app, policy):
    result = run_scenario(overload(app, policy), lean=True)
    assert audit.events > 0
    assert result.summary.dropped > 0


@pytest.mark.parametrize("preempt", [False, True])
@pytest.mark.parametrize("app, generator", [
    ("llm-chat", "m1"), ("rag-agentic", "generate_direct"),
])
def test_llm_kv_modes(audit, app, generator, preempt):
    # A small cache makes admission block (or preempt) under the burst.
    generate = dataclasses.replace(
        DEFAULT_PROFILES.get("llm_generate"), kv_capacity=1024,
        preempt=preempt,
    )
    scenario = Scenario.from_dict({
        "name": f"audit-{app}",
        "app": {"name": app},
        "trace": {"name": "poisson", "duration": 4.0, "base_rate": 40.0},
        "policy": "PARD",
        "workers": 2,
        "seed": 5,
        # Hedged duplicates skip at admission once another copy won;
        # timeouts kill running sequences, which the engine then purges.
        "resilience": {
            generator: {"hedge": 0.5, "timeout": 1.5, "on_timeout": "drop"},
        },
    })
    scenario = dataclasses.replace(
        scenario, app=AppSpec(name=app, profiles=(generate,)),
    )
    result = run_scenario(scenario, lean=True)
    assert audit.saw_kv_wait
    assert result.collector.res_hedges > 0
    assert result.collector.res_timeouts > 0


@pytest.mark.parametrize("fault", [
    {"kind": "kill", "module_id": "m1", "workers": 1},
    {"kind": "degrade", "module_id": "m2", "workers": 2, "factor": 3.0},
    {"kind": "link", "module_id": "m1", "dst": "m2"},
])
def test_faults(audit, fault):
    scenario = overload(
        "tm", "PARD", failures=[{"time": 1.2, "downtime": 0.8, **fault}],
    )
    result = run_scenario(scenario, lean=True)
    assert result.fault_records


@pytest.mark.parametrize("hop, counter", [
    ({"timeout": 0.1, "retry": {"max": 2, "base": 0.02}}, "res_retries"),
    ({"hedge": 0.05}, "res_hedges"),
])
def test_resilience_retry_and_hedge(audit, hop, counter):
    cluster = resilient_cluster({"m1": hop}, workers=2)
    replay(constant_trace(300.0, 2.0), cluster)
    assert getattr(cluster.metrics, counter) > 0


def test_resilience_fallback(audit):
    cluster = resilient_cluster(
        {"m2": {"timeout": 0.08, "retry": {"max": 0, "base": 0.02},
                "fallback": "m3"}},
        app=tiny_dag_app(),
        batch_plan={"m1": 8, "m2": 1, "m3": 8, "m4": 8},
        router=ProbabilisticRouter(weights={"m2": 1000.0, "m3": 0.001},
                                   seed=0),
    )
    replay(constant_trace(150.0, 2.0), cluster)
    assert cluster.metrics.res_fallbacks > 0


@pytest.mark.parametrize(
    "policy", ["PARD", WINDOWED_NEXUS], ids=["PARD", "Nexus-windowed"],
)
def test_graceful_scale_in(audit, policy):
    # A burst forces drops and scale-out; scale-in drains busy workers
    # after it, and each must be reaped once its load reaches zero.
    scenario = Scenario.from_dict({
        "name": "audit-scale-in",
        "app": {"name": "da"},
        "trace": {"name": "poisson", "duration": 12.0, "base_rate": 40.0,
                  "bursts": [{"start": 2.0, "length": 3.0, "factor": 5.0}]},
        "policy": policy,
        "workers": 3,
        "seed": 9,
        "scaling": {"enabled": True, "interval": 1.0, "cold_start": 0.5,
                    "scale_in_patience": 2, "graceful_scale_in": True},
    })
    result = run_scenario(scenario, lean=True)
    assert result.summary.dropped > 0
    assert audit.drainers
    assert not audit.unreaped()


def test_shared_pool_with_quota(audit):
    tenant = {
        "trace": {"name": "poisson", "duration": 3.0, "base_rate": 80.0},
        "policy": "PARD",
    }
    multi = MultiScenario.from_dict({
        "name": "audit-quota",
        "tenants": [
            {"scenario": {"name": "a", "app": {"name": "tm"}, **tenant},
             "quota": 1},
            {"scenario": {"name": "b", "app": {"name": "tm"}, **tenant}},
        ],
        "workers": 3,
        "seed": 4,
    })
    run_multi_scenario(multi, lean=True)
    assert audit.events > 0
