"""Byte-exact LLM engine outcomes, pinned by digest.

Each case runs a small LLM scenario and hashes the ``repr`` of every
full-mode record: visits included, floats by ``repr``, rids rebased to
the run's first rid.  The processed-event count is pinned next to it.
Together they fix every token timestamp, GPU-time share, batch size,
drop and engine event of the continuous-batching loop, so a change to
how the engine schedules its iterations must leave every value below
untouched.

Each case also checks that it reached the path it exists for, as far as
records, telemetry or the fault log can show it: preemption, shared
decode iterations in block mode, a kill that strands a running batch
next to a straggler, a hop timeout that drops sequences
mid-generation, and two LLM branches of one DAG that stream the same
request at once while a drop at one branch hits a request the other is
decoding.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

import pytest

from repro.experiments.runner import run_multi_scenario, run_scenario
from repro.experiments.scenario import MultiScenario, Scenario
from repro.metrics.collector import MetricsCollector
from repro.pipeline.llm_profiles import LLMProfile
from repro.simulation.cluster import Cluster
from repro.simulation.failures import FailureInjector
from repro.simulation.llm import LLMWorker
from repro.simulation.request import DropReason, RequestStatus

from .test_llm_worker import assert_clean

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scenarios"

GEN = {
    "kind": "llm", "name": "gen", "max_batch": 6,
    "prefill_base": 0.004, "prefill_per_token": 2e-5,
    "decode_base": 0.002, "decode_per_token": 3e-4,
    "kv_capacity": 2048, "preempt": True,
    "prompt_dist": {"kind": "lognormal", "mean": 200, "sigma": 0.5},
    "output_dist": {"kind": "lognormal", "mean": 80, "sigma": 0.6},
}


def gen_chain(preempt: bool, **fields) -> Scenario:
    """One-module LLM chain, 25 req/s Poisson for 20 s on 2 workers."""
    return Scenario.from_dict({
        "app": {"chain": ["gen"], "slo": 6.0,
                "profiles": [{**GEN, "preempt": preempt}]},
        "trace": {"name": "poisson", "duration": 20, "base_rate": 25},
        "workers": 2,
        "seed": 3,
        **fields,
    })


def digest(collectors: Iterable[MetricsCollector]) -> str:
    records = [r for c in collectors for r in c.records]
    first = min(r.rid for r in records)
    h = hashlib.sha256()
    for r in records:
        h.update(repr(r._replace(rid=r.rid - first)).encode())
    return h.hexdigest()


@pytest.fixture
def preemptions(monkeypatch) -> list[int]:
    """Sequences preempted per reservation-growth pass."""
    seen: list[int] = []
    grow = LLMWorker._grow_reservations

    def counted(self) -> None:
        before = len(self._running)
        grow(self)
        seen.append(before - len(self._running))

    monkeypatch.setattr(LLMWorker, "_grow_reservations", counted)
    return seen


@pytest.fixture
def stranded(monkeypatch) -> list[int]:
    """Size of the running batch each killed worker lost."""
    seen: list[int] = []
    strand = FailureInjector._strand

    def counted(self, worker) -> None:
        batch = worker.executing
        seen.append(0 if batch is None else batch.size)
        strand(self, worker)

    monkeypatch.setattr(FailureInjector, "_strand", counted)
    return seen


def decoding(cluster: Cluster, request) -> list[str]:
    """The LLM modules with a worker whose running set holds ``request``."""
    return [
        mid for mid, module in cluster.modules.items()
        for worker in module.workers
        if isinstance(worker, LLMWorker)
        and any(r is request for r in worker._running)
    ]


@pytest.fixture
def decoding_drops(monkeypatch) -> list[tuple[str, DropReason, str]]:
    """(drop module, reason, decoding module) for each drop that hit a
    request an LLM worker was running."""
    seen: list[tuple[str, DropReason, str]] = []
    drop = Cluster.drop

    def spied(self, request, module_id, reason) -> None:
        if request.status is RequestStatus.IN_FLIGHT:
            seen.extend(
                (module_id, reason, mid) for mid in decoding(self, request)
            )
        drop(self, request, module_id, reason)

    monkeypatch.setattr(Cluster, "drop", spied)
    return seen


@pytest.fixture
def streamed_at_once(monkeypatch) -> list[tuple[str, str]]:
    """(finishing module, still-decoding module) for each LLM hop that
    finished a request another LLM worker was still running."""
    seen: list[tuple[str, str]] = []
    done = Cluster.on_module_done

    def spied(self, request, module) -> None:
        if isinstance(module.profile, LLMProfile):
            seen.extend(
                (module.spec.id, mid) for mid in decoding(self, request)
                if mid != module.spec.id
            )
        done(self, request, module)

    monkeypatch.setattr(Cluster, "on_module_done", spied)
    return seen


def test_llm_serving_example():
    multi = MultiScenario.from_dict(
        json.loads((EXAMPLES / "llm_serving.json").read_text())
    )
    result = run_multi_scenario(multi)
    collectors = result.collectors
    assert digest(collectors.values()) == (
        "b4eb3697edcf3999de1dfca4a442b6edf8b3b70d5582fff58ac8744f23889e05"
    )
    assert result.cluster.sim.processed_events == 12514
    assert sum(len(c.records) for c in collectors.values()) == 472
    # Both tenants stream tokens, and the RAG router took both branches
    # (pools are keyed by model; a second module on one model is suffixed).
    for coll in collectors.values():
        assert any(r.tokens_out > 1 for r in coll.records)
    rag_paths = {
        tuple(v.module_id for v in r.visits) for r in collectors["rag"].records
    }
    assert rag_paths == {
        ("rag_retriever", "llm_rerank", "llm_generate"),
        ("rag_retriever", "llm_generate:generate_direct"),
    }
    assert all(report is not None for report in result.goodputs.values())


def test_preempt_mode_chain(preemptions):
    result = run_scenario(gen_chain(preempt=True))
    assert digest([result.collector]) == (
        "01110bdc856aa3258216302c7496253cc3a58df3a6f3ce74c8a9c311a650b845"
    )
    assert result.cluster.sim.processed_events == 13439
    assert sum(preemptions) == 6
    records = result.collector.records
    assert len(records) == 468
    assert all(r.status is RequestStatus.COMPLETED for r in records)
    assert_clean(result.cluster)


def test_block_mode_chain(preemptions):
    result = run_scenario(gen_chain(preempt=False))
    assert digest([result.collector]) == (
        "bd6a7863ee83647c46660d889c9cddad90212fff12d7a3d04878e04bb23fa4e6"
    )
    assert result.cluster.sim.processed_events == 13420
    assert preemptions == []  # block mode never grows reservations
    records = result.collector.records
    assert len(records) == 468
    assert all(r.status is RequestStatus.COMPLETED for r in records)
    # Iteration-level batching: sequences shared decode iterations.
    assert max(v.batch_size for r in records for v in r.visits) > 1
    assert_clean(result.cluster)


def test_block_mode_kill_and_straggler(stranded):
    scenario = gen_chain(preempt=False, failures=[
        {"time": 6.0, "module_id": "m1", "workers": 1, "downtime": 3.0},
        {"time": 4.0, "module_id": "m1", "workers": 1, "downtime": 5.0,
         "kind": "degrade", "factor": 3.0},
    ])
    result = run_scenario(scenario)
    assert digest([result.collector]) == (
        "1f8eec5683db524bdc0fed1ec55552258019d8c2d7772196657cf0fb64fc6435"
    )
    assert result.cluster.sim.processed_events == 10605
    assert [(f.kind, f.time, f.count) for f in result.fault_records] == [
        ("degrade", 4.0, 1), ("fail", 6.0, 1),
        ("restore", 9.0, 1), ("recover", 9.0, 1),
    ]
    assert stranded == [4]  # the kill cut a running batch of four
    records = result.collector.records
    assert len(records) == 468
    assert all(r.status is RequestStatus.COMPLETED for r in records)
    assert_clean(result.cluster)


def test_block_mode_timeout_drop():
    scenario = gen_chain(
        preempt=False,
        resilience={"m1": {"timeout": 1.5, "on_timeout": "drop"}},
    )
    result = run_scenario(scenario)
    assert digest([result.collector]) == (
        "a494ade1a4173ef7776a87dcb4bb5a08a11882c2404527390a8d2eb792813642"
    )
    assert result.cluster.sim.processed_events == 13888
    records = result.collector.records
    assert len(records) == 468
    dropped = [r for r in records if r.status is RequestStatus.DROPPED]
    assert len(dropped) == 2
    # Both timed out mid-generation, after streaming some tokens.
    assert all(r.drop_reason is DropReason.TIMEOUT for r in dropped)
    assert all(r.tokens_out > 0 for r in dropped)
    assert_clean(result.cluster)


def two_branch_dag() -> Scenario:
    """``m0`` forks every request to two LLM branches, ``g1`` and ``g2``,
    that decode it side by side; ``m3`` joins them.  ``g2``'s 450-token
    cache rejects a long sequence outright, and both hops time out."""
    plain = {"base": 0.002, "per_item": 0.0005, "max_batch": 8}
    return Scenario.from_dict({
        "app": {
            "slo": 6.0,
            "modules": [
                {"id": "m0", "model": "alpha", "subs": ["g1", "g2"]},
                {"id": "g1", "model": "gen1", "pres": ["m0"], "subs": ["m3"]},
                {"id": "g2", "model": "gen2", "pres": ["m0"], "subs": ["m3"]},
                {"id": "m3", "model": "beta", "pres": ["g1", "g2"]},
            ],
            "profiles": [
                {"name": "alpha", **plain},
                {"name": "beta", **plain},
                {**GEN, "name": "gen1", "preempt": False},
                {**GEN, "name": "gen2", "preempt": False, "kv_capacity": 450,
                 "output_dist": {"kind": "lognormal", "mean": 60,
                                 "sigma": 0.6}},
            ],
        },
        "resilience": {
            "g1": {"timeout": 1.5, "on_timeout": "drop"},
            "g2": {"timeout": 1.2, "on_timeout": "drop"},
        },
        "trace": {"name": "poisson", "duration": 20, "base_rate": 20},
        "workers": 2,
        "policy": "PARD",
        "seed": 3,
    })


def test_two_llm_branches(decoding_drops, streamed_at_once):
    result = run_scenario(two_branch_dag())
    assert digest([result.collector]) == (
        "3e8baa954910fc24ba843a46ec5e12a18bf75b0bb628300a9cef4e8ce127df72"
    )
    assert result.cluster.sim.processed_events == 32012
    records = result.collector.records
    assert len(records) == 359
    completed = [r for r in records if r.status is RequestStatus.COMPLETED]
    assert len(completed) == 327
    # Every completed request streamed tokens from both branches, and
    # some finished at one branch while the other still decoded them.
    for r in completed:
        assert {v.module_id for v in r.visits} == {"m0", "g1", "g2", "m3"}
    assert {"g1", "g2"} <= {pair[0] for pair in streamed_at_once}
    drops = Counter(
        (r.dropped_at_module, r.drop_reason)
        for r in records if r.status is RequestStatus.DROPPED
    )
    assert drops == {
        ("g2", DropReason.ADMISSION_CONTROL): 16,
        ("g2", DropReason.TIMEOUT): 15,
        ("g1", DropReason.TIMEOUT): 1,
    }
    # Every timeout hit a sequence mid-generation, and five of g2's
    # admission-control rejections hit a request g1 was decoding.
    assert Counter(decoding_drops) == {
        ("g2", DropReason.TIMEOUT, "g2"): 15,
        ("g1", DropReason.TIMEOUT, "g1"): 1,
        ("g2", DropReason.ADMISSION_CONTROL, "g1"): 5,
    }
    for mid in ("g1", "g2"):
        for worker in result.cluster.modules[mid].workers:
            assert worker.kv_used == 0 and worker.idle
            assert worker._reserved == worker._generated == {}
