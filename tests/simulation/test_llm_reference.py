"""The LLM engine against its per-token reference, on generated specs.

:class:`PerTokenWorker` keeps the accounting the engine had before the
share log: each iteration adds every producer's GPU share, counts its
token and stamps its time on the spot, so there is never anything to
settle.  The engine logs a decode iteration's share instead and folds
the log into its sequences at a settle.  On every generated spec both
must give the same record ``repr`` for every request (rids rebased) and
process the same number of events.

The specs cover one LLM module and two LLM branches that decode the
same request at once, block and preempt mode, caches small enough to
block, preempt and reject, worker kills and stragglers, and hop
timeouts that drop a request mid-generation.  One fixed example runs
two tenants on shared LLM pools, one of them killed mid-decode.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_multi_scenario, run_scenario
from repro.experiments.scenario import MultiScenario, Scenario
from repro.simulation import module as module_mod
from repro.simulation.llm import LLMWorker
from repro.simulation.request import Request, RequestStatus
from repro.simulation.worker import Batch

from .test_llm_exact import digest

_IN_FLIGHT = RequestStatus.IN_FLIGHT


class PerTokenWorker(LLMWorker):
    """The engine with per-token accounting: nothing is ever logged."""

    __slots__ = ()

    def _finish_step(
        self, batch: Batch, prefill_seqs: list[Request] | None
    ) -> None:
        if batch.aborted:
            return
        now = self.sim.now
        module = self.module
        module_id = module.spec.id
        source = prefill_seqs if prefill_seqs is not None else batch.requests
        producers = source
        for r in source:
            if r.status is not _IN_FLIGHT:
                producers = [r for r in source if r.status is _IN_FLIGHT]
                break
        retired: list[Request] = []
        if producers:
            if prefill_seqs is not None:
                start, size = batch.start, batch.size
                for request in producers:
                    visit = request.visits[module_id]
                    if visit.t_exec_start is None:
                        visit.t_exec_start = start
                        visit.batch_size = size
                    if request.first_token_at is None:
                        request.first_token_at = now
            share = (batch.end - batch.start) / len(producers)
            generated_by = self._generated
            for request in producers:
                visit = request.visits[module_id]
                visit.gpu_time += share
                rid = request.rid
                generated = generated_by.get(rid, 0) + 1
                generated_by[rid] = generated
                request.last_token_at = now
                request.tokens_out += 1
                if generated >= visit.output_tokens:
                    visit.t_exec_end = now
                    self._release(rid)
                    del generated_by[rid]
                    self._running.remove(request)
                    self.load -= 1
                    self.telemetry.executed_requests += 1
                    retired.append(request)
        if prefill_seqs is None and not retired and producers is source:
            n = len(self._running)
            if not module.profile.preempt and (
                self.load == n or n >= module.target_batch
            ):
                duration = self._decode_duration
                if self.degrade_factor != 1.0:
                    duration *= self.degrade_factor
                batch.start = now
                batch.end = end = now + duration
                telemetry = self.telemetry
                telemetry.batches += 1
                telemetry.busy_time += duration
                stats = module.stats
                stats.batch_sizes.record(now, float(n))
                stats.executed += n
                self.sim.schedule(end, self._finish_step, batch, None)
                return
        self.executing = None
        on_module_done = module.cluster.on_module_done
        for request in retired:
            on_module_done(request, module)
        self._step()


COSTS = {
    "kind": "llm",
    "prefill_base": 0.004, "prefill_per_token": 2e-5,
    "decode_base": 0.002, "decode_per_token": 3e-4,
}
PLAIN = {"base": 0.002, "per_item": 0.0005, "max_batch": 8}

OUTPUTS = st.one_of(
    st.builds(lambda n: {"kind": "constant", "mean": n}, st.integers(1, 40)),
    st.builds(lambda hi: {"kind": "uniform", "low": 1, "high": hi},
              st.integers(2, 60)),
    st.builds(lambda m: {"kind": "lognormal", "mean": m, "sigma": 0.6},
              st.integers(5, 60)),
)


@st.composite
def llm_profile(draw, name: str, preempt: bool) -> dict:
    return {
        **COSTS, "name": name, "preempt": preempt,
        "max_batch": draw(st.integers(1, 8)),
        "kv_capacity": draw(st.sampled_from([120, 250, 600, 4096])),
        "prompt_dist": {"kind": "uniform", "low": 8,
                        "high": draw(st.sampled_from([16, 90]))},
        "output_dist": draw(OUTPUTS),
    }


@st.composite
def llm_specs(draw) -> dict:
    """A small LLM scenario: one LLM module, or two LLM branches."""
    preempt = draw(st.booleans())
    if draw(st.booleans()):
        llm_ids = ["g1", "g2"]
        app = {
            "modules": [
                {"id": "m0", "model": "alpha", "subs": ["g1", "g2"]},
                {"id": "g1", "model": "gen1", "pres": ["m0"], "subs": ["m3"]},
                {"id": "g2", "model": "gen2", "pres": ["m0"], "subs": ["m3"]},
                {"id": "m3", "model": "beta", "pres": ["g1", "g2"]},
            ],
            "profiles": [
                {"name": "alpha", **PLAIN}, {"name": "beta", **PLAIN},
                draw(llm_profile("gen1", preempt)),
                draw(llm_profile("gen2", preempt)),
            ],
        }
    else:
        llm_ids = ["m1"]
        app = {"chain": ["gen1"], "profiles": [draw(llm_profile("gen1", preempt))]}
    app["slo"] = draw(st.sampled_from([0.6, 2.0, 6.0]))
    failures = []
    for kind in draw(st.lists(st.sampled_from(["kill", "degrade"]),
                              max_size=2)):
        fault = {
            "time": draw(st.floats(0.1, 1.9)),
            "module_id": draw(st.sampled_from(llm_ids)),
            "downtime": draw(st.floats(0.05, 1.5)),
        }
        if kind == "degrade":
            fault.update(kind="degrade", factor=draw(st.sampled_from([1.5, 3.0])))
        failures.append(fault)
    resilience = {
        mid: {"timeout": draw(st.sampled_from([0.3, 0.8])), "on_timeout": "drop"}
        for mid in draw(st.lists(st.sampled_from(llm_ids), unique=True))
    }
    return {
        "app": app,
        "failures": failures,
        "resilience": resilience,
        "trace": {"name": "poisson", "duration": draw(st.sampled_from([2, 4])),
                  "base_rate": draw(st.sampled_from([8, 20, 40]))},
        "workers": draw(st.integers(1, 2)),
        "policy": draw(st.sampled_from(["PARD", "Naive"])),
        "seed": draw(st.integers(0, 3)),
    }


def outcome(spec: dict) -> tuple[str, int]:
    if "tenants" in spec:
        result = run_multi_scenario(MultiScenario.from_dict(spec))
        collectors = list(result.collectors.values())
    else:
        result = run_scenario(Scenario.from_dict(spec))
        collectors = [result.collector]
    return digest(collectors), result.cluster.sim.processed_events


# Two branches decoding the same requests, dropped mid-generation by a
# short timeout on one of them while the other also decodes them.
TWO_BRANCH_TIMEOUT = {
    "app": {
        "slo": 6.0,
        "modules": [
            {"id": "m0", "model": "alpha", "subs": ["g1", "g2"]},
            {"id": "g1", "model": "gen1", "pres": ["m0"], "subs": ["m3"]},
            {"id": "g2", "model": "gen2", "pres": ["m0"], "subs": ["m3"]},
            {"id": "m3", "model": "beta", "pres": ["g1", "g2"]},
        ],
        "profiles": [
            {"name": "alpha", **PLAIN}, {"name": "beta", **PLAIN},
            {**COSTS, "name": "gen1", "max_batch": 6, "kv_capacity": 4096,
             "prompt_dist": {"kind": "constant", "mean": 50},
             "output_dist": {"kind": "uniform", "low": 20, "high": 120}},
            {**COSTS, "name": "gen2", "max_batch": 6, "kv_capacity": 4096,
             "prompt_dist": {"kind": "constant", "mean": 50},
             "output_dist": {"kind": "uniform", "low": 20, "high": 120}},
        ],
    },
    "resilience": {"g2": {"timeout": 0.3, "on_timeout": "drop"}},
    "trace": {"name": "poisson", "duration": 4, "base_rate": 20},
    "workers": 1,
    "policy": "Naive",
    "seed": 1,
}
# One LLM module, killed and slowed while it decodes.
CHAIN_FAULTS = {
    "app": {"chain": ["gen1"], "slo": 6.0, "profiles": [
        {**COSTS, "name": "gen1", "max_batch": 4, "kv_capacity": 600,
         "prompt_dist": {"kind": "uniform", "low": 8, "high": 90},
         "output_dist": {"kind": "lognormal", "mean": 40, "sigma": 0.6}},
    ]},
    "failures": [
        {"time": 1.0, "module_id": "m1", "downtime": 0.5},
        {"time": 0.5, "module_id": "m1", "downtime": 1.0, "kind": "degrade",
         "factor": 3.0},
    ],
    "trace": {"name": "poisson", "duration": 4, "base_rate": 20},
    "workers": 2,
    "policy": "PARD",
    "seed": 0,
}
# Preempt mode under a cache that forces preemption.
PREEMPT = {
    "app": {"chain": ["gen1"], "slo": 6.0, "profiles": [
        {**COSTS, "name": "gen1", "preempt": True, "max_batch": 8,
         "kv_capacity": 250,
         "prompt_dist": {"kind": "uniform", "low": 8, "high": 90},
         "output_dist": {"kind": "uniform", "low": 1, "high": 60}},
    ]},
    "trace": {"name": "poisson", "duration": 4, "base_rate": 20},
    "workers": 1,
    "policy": "Naive",
    "seed": 2,
}


# Chat and agentic RAG on shared LLM pools: PARD drops chat requests at
# admission, and a kill strands the sequences the generate pool decodes.
SHARED_KILL = {
    "tenants": [
        {"weight": 1.0, "scenario": {
            "name": "chat", "app": {"name": "llm-chat", "slo": 1.0},
            "policy": "PARD",
            "trace": {"name": "poisson", "duration": 4, "base_rate": 30},
        }},
        {"weight": 1.0, "scenario": {
            "name": "rag", "app": {"name": "rag-agentic"}, "policy": "PARD",
            "trace": {"name": "poisson", "duration": 4, "base_rate": 12},
            "router": {"kind": "probabilistic",
                       "weights": {"rerank": 0.6, "generate_direct": 0.4}},
        }},
    ],
    "failures": [{"time": 2.0, "module_id": "llm_generate", "downtime": 0.5}],
    "seed": 0,
}


@pytest.fixture(scope="module")
def reference():
    """Run a spec with per-token accounting."""
    def run(spec: dict) -> tuple[str, int]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module_mod, "LLMWorker", PerTokenWorker)
            return outcome(spec)
    return run


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=llm_specs())
@example(spec=TWO_BRANCH_TIMEOUT)
@example(spec=CHAIN_FAULTS)
@example(spec=PREEMPT)
@example(spec=SHARED_KILL)
def test_share_log_matches_per_token_accounting(reference, spec):
    assert outcome(spec) == reference(spec)
