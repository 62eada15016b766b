"""Tests for LLMWorker: continuous batching and KV-cache accounting.

The KV cache is a schedulable resource — every admitted sequence holds a
token reservation against the worker's capacity.  These tests pin the
accounting invariant that no path may violate: after any run (clean
completions, admission-control drops, worker failures, preemptions) every
worker ends with ``kv_used == 0`` and no leftover per-request state.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.metrics.collector import MetricsCollector
from repro.pipeline.applications import Application
from repro.pipeline.llm_profiles import LLMProfile, TokenDist
from repro.pipeline.profiles import ModelProfile, ProfileRegistry
from repro.pipeline.spec import chain
from repro.policies.naive import NaivePolicy
from repro.simulation.cluster import Cluster
from repro.simulation.engine import Simulator
from repro.simulation.failures import FailureEvent, FailureInjector
from repro.simulation.llm import LLMWorker
from repro.simulation.request import DropReason, ModuleVisit, RequestStatus
from repro.simulation.rng import RngStreams
from repro.simulation.worker import Worker


def llm_profile(**overrides) -> LLMProfile:
    """A fast deterministic profile (constant token lengths by default)."""
    kwargs = dict(
        name="gen",
        max_batch=4,
        prefill_base=0.002,
        prefill_per_token=0.00002,
        decode_base=0.001,
        decode_per_token=0.0001,
        kv_capacity=4096,
        prompt_dist=TokenDist(kind="constant", mean=40.0),
        output_dist=TokenDist(kind="constant", mean=8.0),
    )
    kwargs.update(overrides)
    return LLMProfile(**kwargs)


def llm_cluster(profile: LLMProfile, workers: int = 1, slo: float = 60.0) -> Cluster:
    app = Application(spec=chain("llm", [profile.name]), slo=slo)
    return Cluster(
        sim=Simulator(),
        app=app,
        policy=NaivePolicy(),
        workers=workers,
        registry=ProfileRegistry([profile]),
        metrics=MetricsCollector(),
        rng=RngStreams(seed=7),
    )


def assert_clean(cluster: Cluster) -> None:
    """No KV reservation or per-request engine state survives the run."""
    for module in cluster.modules.values():
        for worker in module.workers:
            assert isinstance(worker, LLMWorker)
            assert worker.kv_used == 0
            assert worker._reserved == {}
            assert worker._generated == {}
            assert worker._running == []
            assert worker._need_prefill == []
            assert worker.executing is None
            assert worker.idle


def submit_and_run(cluster: Cluster, n: int, gap: float = 0.003) -> None:
    for i in range(n):
        cluster.submit_at(gap * i)
    cluster.sim.run()


class TestWorkerSelection:
    def test_llm_profile_gets_llm_worker(self):
        cluster = llm_cluster(llm_profile())
        assert all(
            isinstance(w, LLMWorker)
            for m in cluster.modules.values()
            for w in m.workers
        )

    def test_fixed_profile_keeps_plain_worker(self):
        from ..conftest import make_cluster

        cluster = make_cluster(NaivePolicy())
        workers = [w for m in cluster.modules.values() for w in m.workers]
        assert workers
        assert not any(isinstance(w, LLMWorker) for w in workers)
        assert all(isinstance(w, Worker) for w in workers)

    def test_llm_worker_rejects_fixed_profile(self):
        cluster = llm_cluster(llm_profile())
        module = cluster.modules["m1"]
        module.profile = ModelProfile("gen", base=0.01, per_item=0.001)
        with pytest.raises(TypeError):
            LLMWorker(module, worker_id=99)


class TestTokenEmission:
    def test_completion_emits_sampled_output_tokens(self):
        cluster = llm_cluster(llm_profile())
        submit_and_run(cluster, 10)
        records = cluster.metrics.records
        assert len(records) == 10
        for r in records:
            assert r.status is RequestStatus.COMPLETED
            # Constant output_dist: every request streams exactly 8 tokens.
            assert r.tokens_out == 8
            assert r.first_token_at is not None
            assert r.last_token_at is not None
            assert r.first_token_at <= r.last_token_at <= r.finished_at
        assert_clean(cluster)

    def test_sampled_lengths_are_sticky_and_seeded(self):
        profile = llm_profile(
            prompt_dist=TokenDist(kind="lognormal", mean=64.0, sigma=0.5),
            output_dist=TokenDist(kind="uniform", low=2.0, high=12.0),
        )

        def lengths() -> list[tuple[int, int]]:
            cluster = llm_cluster(profile)
            submit_and_run(cluster, 8)
            assert_clean(cluster)
            # rids are process-global; compare in submission (rid) order.
            return [
                r.tokens_out
                for r in sorted(cluster.metrics.records, key=lambda r: r.rid)
            ]

        assert lengths() == lengths()


class TestKvAccounting:
    def test_no_leak_after_clean_run(self):
        cluster = llm_cluster(llm_profile())
        submit_and_run(cluster, 25, gap=0.002)
        assert_clean(cluster)
        assert len(cluster.metrics.records) == 25

    def test_admission_blocks_under_kv_pressure_without_reordering(self):
        # Capacity fits exactly one sequence (40 + 8 = 48 of 50): requests
        # serialize through the cache but all finish, in FIFO order.
        cluster = llm_cluster(llm_profile(kv_capacity=50))
        submit_and_run(cluster, 6)
        records = cluster.metrics.records
        assert [r.rid for r in records] == sorted(r.rid for r in records)
        assert all(r.status is RequestStatus.COMPLETED for r in records)
        assert len(records) == 6
        assert_clean(cluster)

    def test_never_fitting_request_is_dropped_not_wedged(self):
        # worst = 40 + 8 = 48 > capacity 32 on an empty cache: admission
        # control rejects outright instead of blocking the worker forever.
        cluster = llm_cluster(llm_profile(kv_capacity=32))
        submit_and_run(cluster, 4)
        records = cluster.metrics.records
        assert len(records) == 4
        for r in records:
            assert r.status is RequestStatus.DROPPED
            assert r.drop_reason is DropReason.ADMISSION_CONTROL
        assert_clean(cluster)

    def test_preempt_mode_completes_and_releases_everything(self):
        # Two fresh sequences fit (2 * 41 = 82 of 100) but reservation
        # growth (+1 token per sequence per decode) exhausts the cache
        # mid-generation, forcing preemption and later resumption.
        profile = llm_profile(
            kv_capacity=100,
            preempt=True,
            output_dist=TokenDist(kind="constant", mean=20.0),
        )
        cluster = llm_cluster(profile)
        submit_and_run(cluster, 6, gap=0.001)
        records = cluster.metrics.records
        assert len(records) == 6
        assert all(r.status is RequestStatus.COMPLETED for r in records)
        assert all(r.tokens_out == 20 for r in records)
        assert_clean(cluster)

    def test_preempt_mode_matches_block_mode_token_counts(self):
        for preempt in (False, True):
            cluster = llm_cluster(llm_profile(preempt=preempt))
            submit_and_run(cluster, 12)
            assert [r.tokens_out for r in cluster.metrics.records] == [8] * 12
            assert_clean(cluster)

    def test_worker_failure_releases_kv_with_the_worker(self):
        # Kill the only worker mid-stream: in-flight sequences strand and
        # replay on the replacement; nothing leaks on either worker.
        cluster = llm_cluster(llm_profile(), workers=2)
        injector = FailureInjector(
            cluster,
            events=[
                FailureEvent(time=0.02, module_id="m1", workers=1, downtime=0.05)
            ],
        )
        injector.schedule_all()
        submit_and_run(cluster, 20, gap=0.002)
        records = cluster.metrics.records
        assert len(records) == 20
        assert all(
            r.status in (RequestStatus.COMPLETED, RequestStatus.DROPPED)
            for r in records
        )
        assert cluster.modules["m1"].n_workers == 2  # recovered
        assert_clean(cluster)

    def test_kill_mid_decode_releases_kv_and_readmits_cleanly(self):
        # Kill the ONLY worker while sequences are decoding: their KV
        # reservations die with the machine, the stranded sequences park
        # at the module, and the recovered worker re-admits them from a
        # clean slate — fresh reservations, full completions, no leaks.
        cluster = llm_cluster(llm_profile(), workers=1)
        injector = FailureInjector(
            cluster,
            events=[
                FailureEvent(time=0.01, module_id="m1", workers=1,
                             downtime=0.05)
            ],
        )
        injector.schedule_all()
        probe: dict[str, object] = {}

        def before() -> None:
            worker = cluster.modules["m1"].workers[0]
            probe["kv_mid_decode"] = worker.kv_used

        def during() -> None:
            module = cluster.modules["m1"]
            probe["workers_down"] = module.n_workers
            probe["parked"] = len(module._parked)

        cluster.sim.schedule(0.0099, before)
        cluster.sim.schedule(0.03, during)
        submit_and_run(cluster, 12, gap=0.001)
        assert probe["kv_mid_decode"] > 0  # the kill interrupts decoding
        assert probe["workers_down"] == 0
        assert probe["parked"] > 0  # stranded sequences wait at the module
        records = cluster.metrics.records
        assert len(records) == 12
        assert all(r.status is RequestStatus.COMPLETED for r in records)
        # Tokens streamed before the kill stay counted (like GPU time on
        # plain workers); re-admission regenerates the full sampled
        # length, so interrupted sequences may exceed it slightly.
        assert all(r.tokens_out >= 8 for r in records)
        assert sum(r.tokens_out == 8 for r in records) >= 8
        assert_clean(cluster)


class TestBatchingPlanIntegration:
    def test_llm_profile_plugs_into_affine_planning(self):
        """The derived base/per_item make provisioning treat the profile
        as a normal affine model (satellite: planning stays unchanged)."""
        from repro.simulation.batching import (
            module_throughput,
            plan_batch_sizes,
            provision_workers,
        )

        profile = llm_profile()
        registry = ProfileRegistry([profile])
        spec = chain("llm", ["gen"])
        plan = plan_batch_sizes(spec, registry, slo=2.0)
        workers = provision_workers(spec, registry, plan, rate=120.0)
        for mid, n in workers.items():
            assert module_throughput(profile, plan[mid], n) >= 120.0

    def test_replaced_profile_rederives_its_affine_cost(self):
        """``dataclasses.replace`` passes the old derived ``base``/
        ``per_item`` back in; they must still follow the new phase costs
        (they stayed 0.244 where a fresh profile derives 2.404)."""
        from dataclasses import replace

        from repro.pipeline.llm_profiles import LLM_PROFILES

        old = LLM_PROFILES[0]
        changed = {
            "decode_base": 10 * old.decode_base,
            "prefill_per_token": 2 * old.prefill_per_token,
        }
        replaced = replace(old, **changed)
        fresh = LLMProfile.from_dict({**old.to_dict(), **changed})
        assert replaced.base == fresh.base == pytest.approx(2.404)
        assert replaced.per_item == fresh.per_item
        assert replaced.per_item != old.per_item
        assert replace(old) == old


class TestFaultsBetweenIterations:
    """A fault that lands while one batch decodes acts on its very next
    iteration: each iteration reads the worker's current degrade factor,
    and a kill voids the iteration then in flight."""

    B = 3  # sequences decoding together, all with the same output length
    TOKENS = 60

    def decoding_cluster(self) -> tuple[Cluster, LLMProfile]:
        profile = llm_profile(
            output_dist=TokenDist(kind="constant", mean=float(self.TOKENS))
        )
        cluster = llm_cluster(profile)
        for _ in range(self.B):
            cluster.submit_at(0.0)
        return cluster, profile

    def probe_iterations(self, cluster: Cluster, at: float) -> dict:
        """Span of the iteration running at ``at`` and of the next one."""
        worker = cluster.modules["m1"].workers[0]
        spans: dict[str, tuple[float, float, int]] = {}

        def record(key: str) -> None:
            batch = worker.executing
            spans[key] = (batch.start, batch.end, batch.size)

        def current() -> None:
            record("current")
            # Scheduled after the pending _finish_step at batch.end, so it
            # sees the iteration that one starts.
            cluster.sim.schedule(worker.executing.end, record, "next")

        cluster.sim.schedule(at, current)
        return spans

    def test_degrade_and_restore_reach_the_next_iteration(self):
        factor = 3.0
        cluster, profile = self.decoding_cluster()
        FailureInjector(cluster, events=[
            FailureEvent(time=0.02, module_id="m1", downtime=0.03,
                         kind="degrade", factor=factor)
        ]).schedule_all()
        # Same-time events run in scheduling order: the probe at 0.02
        # runs after the degrade, the one at 0.05 before the restore
        # (which the degrade schedules only once the run has started).
        onset = self.probe_iterations(cluster, at=0.02)
        restore = self.probe_iterations(cluster, at=0.05)
        cluster.sim.run()
        plain = profile.decode_duration(self.B)
        for spans, at, before, after in (
            (onset, 0.02, plain, plain * factor),
            (restore, 0.05, plain * factor, plain),
        ):
            (s0, e0, size0), (s1, e1, size1) = spans["current"], spans["next"]
            assert s0 < at < e0
            assert size0 == size1 == self.B
            assert e0 - s0 == pytest.approx(before, rel=1e-9)
            assert s1 == e0
            assert e1 - s1 == pytest.approx(after, rel=1e-9)
        assert all(r.tokens_out == self.TOKENS for r in cluster.metrics.records)
        assert_clean(cluster)

    def test_kill_voids_the_iteration_in_flight(self):
        kill_at, downtime = 0.03, 0.02
        cluster, _ = self.decoding_cluster()
        module = cluster.modules["m1"]
        worker = module.workers[0]
        probe: dict[str, object] = {}

        def before_kill() -> None:
            batch = probe["batch"] = worker.executing
            # Mid-decode, several iterations into one running set.
            assert batch.size == self.B and worker.telemetry.batches >= 4
            assert batch.start < kill_at < batch.end

        def after_kill() -> None:
            assert worker not in module.workers and probe["batch"].aborted
            probe["iterations"] = worker.telemetry.batches
            probe["tokens"] = [r.tokens_out for r in module._parked]

        def before_recovery() -> None:
            parked = module._parked
            assert module.n_workers == 0 and len(parked) == self.B
            # The dead worker ran no further iteration and streamed no
            # token after the kill: its pending _finish_step was void.
            assert worker.telemetry.batches == probe["iterations"]
            assert [r.tokens_out for r in parked] == probe["tokens"]
            assert all(r.last_token_at < kill_at for r in parked)
            probe["checked"] = True

        # Same-time events run in scheduling order: before_kill, the
        # kill, then after_kill.
        cluster.sim.schedule(kill_at, before_kill)
        FailureInjector(cluster, events=[
            FailureEvent(time=kill_at, module_id="m1", downtime=downtime)
        ]).schedule_all()
        cluster.sim.schedule(kill_at, after_kill)
        cluster.sim.schedule(kill_at + downtime / 2, before_recovery)
        cluster.sim.run()
        assert probe["checked"]
        records = cluster.metrics.records
        assert len(records) == self.B
        assert all(r.status is RequestStatus.COMPLETED for r in records)
        # Generation restarts on the replacement worker.
        assert all(r.tokens_out > self.TOKENS for r in records)
        assert_clean(cluster)


def test_quiet_decode_iterations_touch_no_sequence(monkeypatch):
    """Six sequences decode 400 tokens side by side on one worker.  A
    decode iteration that retires nothing only logs its share, so each
    sequence's GPU time is written a constant number of times (built,
    prefilled, settled once), where per-token accounting wrote it once
    per token: 2,400 times for the decode alone."""
    tokens = 400
    writes: Counter[int] = Counter()
    slot = ModuleVisit.gpu_time

    class CountingSlot:
        def __get__(self, visit, owner=None):
            return slot.__get__(visit, owner)

        def __set__(self, visit, value):
            writes[id(visit)] += 1
            slot.__set__(visit, value)

    monkeypatch.setattr(ModuleVisit, "gpu_time", CountingSlot())
    cluster = llm_cluster(llm_profile(
        max_batch=8, output_dist=TokenDist(kind="constant", mean=float(tokens)),
    ))
    submit_and_run(cluster, 6, gap=0.0)
    records = cluster.metrics.records
    assert [r.tokens_out for r in records] == [tokens] * 6
    assert cluster.modules["m1"].workers[0].telemetry.batches > tokens
    assert len(writes) == 6
    assert max(writes.values()) <= 3
    assert_clean(cluster)
