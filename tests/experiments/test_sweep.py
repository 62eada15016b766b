"""Tests for the parallel sweep subsystem."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.scenario import MultiScenario, Scenario, TenantSpec
from repro.experiments.sweep import (
    CellResult,
    SweepCell,
    cell_fingerprint,
    execute_cell,
    prune_cache,
    run_sweep,
    summary_table,
    sweep_grid,
)


def tiny_scenario(policy: str = "Naive", seed: int = 0) -> Scenario:
    """A small fixed-worker scenario that simulates in well under a second."""
    return Scenario(
        app={"name": "tm"},
        trace={"name": "tweet", "base_rate": 25, "duration": 4.0},
        policy=policy, workers=2, seed=seed,
    )


def tiny_cells(policies=("Naive", "Nexus"), seeds=(0,)) -> list[SweepCell]:
    return [
        SweepCell(scenario=tiny_scenario(policy, seed))
        for policy in policies
        for seed in seeds
    ]


class TestGrid:
    def test_cross_product(self):
        cells = sweep_grid(
            ["lv", "tm"], ["tweet"], ["PARD", "Naive"], seeds=[0, 1],
            duration=5.0,
        )
        assert len(cells) == 2 * 1 * 2 * 2
        labels = {c.label() for c in cells}
        assert "lv-tweet-PARD-s0" in labels
        assert "tm-tweet-Naive-s1" in labels

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            sweep_grid(["bogus"], ["tweet"], ["Naive"])


class TestFingerprint:
    def test_stable_and_seed_sensitive(self):
        a0 = cell_fingerprint(tiny_cells(seeds=(0,))[0])
        a0_again = cell_fingerprint(tiny_cells(seeds=(0,))[0])
        a1 = cell_fingerprint(tiny_cells(seeds=(1,))[0])
        assert a0 == a0_again
        assert a0 != a1

    def test_policy_sensitive(self):
        naive, nexus = tiny_cells(policies=("Naive", "Nexus"))
        assert cell_fingerprint(naive) != cell_fingerprint(nexus)

    def test_canonical_over_numeric_spelling(self):
        def cell(base_rate, duration) -> SweepCell:
            return SweepCell(scenario=Scenario(
                app={"name": "tm"}, policy="Naive", workers=2,
                trace={"name": "tweet", "base_rate": base_rate,
                       "duration": duration},
            ))

        assert cell_fingerprint(cell(25, 4)) == cell_fingerprint(cell(25.0, 4.0))


class TestDeterminism:
    def test_serial_matches_two_and_four_workers(self):
        cells = tiny_cells(policies=("Naive", "Nexus"), seeds=(0, 1))
        serial = run_sweep(cells, workers=1)
        two = run_sweep(cells, workers=2)
        four = run_sweep(cells, workers=4)
        assert all(r.ok for r in serial + two + four), [
            r.error for r in serial + two + four if not r.ok
        ]
        for a, b, c in zip(serial, two, four):
            assert a.summary == b.summary == c.summary
            assert a.cell.label() == b.cell.label() == c.cell.label()
            assert a.collector.records
            assert a.collector.records == b.collector.records == c.collector.records

    def test_cell_is_picklable(self):
        cell = tiny_cells()[0]
        assert pickle.loads(pickle.dumps(cell)).policy == cell.policy


class TestCache:
    def test_second_run_hits_cache(self, tmp_path):
        cells = tiny_cells()
        first = run_sweep(cells, workers=1, cache_dir=tmp_path)
        second = run_sweep(cells, workers=1, cache_dir=tmp_path)
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        for a, b in zip(first, second):
            assert a.summary == b.summary
            assert a.collector.records
            assert a.collector.records == b.collector.records
        assert len(list(tmp_path.rglob("*.pkl"))) == len(cells)

    def test_corrupt_entry_recomputed(self, tmp_path):
        cells = tiny_cells(policies=("Naive",))
        run_sweep(cells, workers=1, cache_dir=tmp_path)
        entry = next(tmp_path.rglob("*.pkl"))
        entry.write_bytes(b"garbage")
        again = run_sweep(cells, workers=1, cache_dir=tmp_path)
        assert again[0].ok and not again[0].cached

    def test_stale_source_buckets_survive_until_size_budget(self, tmp_path):
        """Other source-digest buckets are another checkout's live cache:
        running a sweep must not evict them (two checkouts sharing a cache
        dir would thrash on every branch switch).  Reclamation is deferred
        to prune_cache's size budget."""
        import os
        import time

        stale = tmp_path / ("0" * 16)
        stale.mkdir()
        (stale / "dead.pkl").write_bytes(b"old")
        old = time.time() - 3600
        os.utime(stale / "dead.pkl", (old, old))
        unrelated = tmp_path / "keep.txt"
        unrelated.write_text("mine")
        run_sweep(tiny_cells(policies=("Naive",)), workers=1,
                  cache_dir=tmp_path)
        assert (stale / "dead.pkl").exists()  # cross-branch entries kept
        assert unrelated.exists()
        # The size budget is where old buckets go: the other checkout's
        # entry is the oldest, so it is evicted first.
        prune_cache(tmp_path, max_bytes=0)
        assert not stale.exists()

    def test_events_report_cache_hits(self, tmp_path):
        cells = tiny_cells(policies=("Naive",))
        run_sweep(cells, workers=1, cache_dir=tmp_path)
        kinds = []
        run_sweep(cells, workers=1, cache_dir=tmp_path,
                  on_event=lambda e: kinds.append(e.kind))
        assert kinds == ["cached"]


class TestCellValidation:
    def test_needs_exactly_one_of_scenario_or_multi(self):
        with pytest.raises(ValueError, match="exactly one"):
            SweepCell()
        multi = MultiScenario(tenants=(TenantSpec(tiny_scenario()),))
        with pytest.raises(ValueError, match="exactly one"):
            SweepCell(scenario=tiny_scenario(), multi=multi)

    def test_scenario_cell_rejects_conflicting_policy(self):
        scenario = Scenario(policy="PARD")
        with pytest.raises(ValueError, match="conflicts"):
            SweepCell(scenario=scenario, policy="Nexus")
        assert SweepCell(scenario=scenario, policy="PARD").policy == "PARD"


class TestPruneCache:
    def test_prunes_oldest_first(self, tmp_path):
        import os
        import time

        bucket = tmp_path / ("a" * 16)
        bucket.mkdir()
        now = time.time()
        for i, name in enumerate(["old", "mid", "new"]):
            path = bucket / f"{name}.pkl"
            path.write_bytes(b"x" * 100)
            os.utime(path, (now + i, now + i))
        freed = prune_cache(tmp_path, max_bytes=200)
        assert freed == 100
        assert not (bucket / "old.pkl").exists()
        assert (bucket / "mid.pkl").exists()
        assert (bucket / "new.pkl").exists()

    def test_zero_budget_clears_and_removes_empty_buckets(self, tmp_path):
        bucket = tmp_path / ("b" * 16)
        bucket.mkdir()
        (bucket / "x.pkl").write_bytes(b"x" * 10)
        assert prune_cache(tmp_path, max_bytes=0) == 10
        assert not bucket.exists()
        assert tmp_path.exists()

    def test_missing_dir_is_noop(self, tmp_path):
        assert prune_cache(tmp_path / "absent", max_bytes=0) == 0

    def test_cache_hits_refresh_mtime_for_lru_eviction(self, tmp_path):
        import os
        import time

        cells = tiny_cells(policies=("Naive",))
        run_sweep(cells, workers=1, cache_dir=tmp_path)
        entry = next(tmp_path.rglob("*.pkl"))
        old = time.time() - 3600
        os.utime(entry, (old, old))
        run_sweep(cells, workers=1, cache_dir=tmp_path)  # cache hit
        assert entry.stat().st_mtime > old + 1800  # touched on hit

    def test_orphaned_tmp_files_reclaimed(self, tmp_path):
        import os
        import time

        bucket = tmp_path / ("c" * 16)
        bucket.mkdir()
        stale = bucket / "killed-writer.tmp"
        stale.write_bytes(b"x" * 50)
        old = time.time() - 3600
        os.utime(stale, (old, old))
        fresh = bucket / "live-writer.tmp"
        fresh.write_bytes(b"y" * 50)
        prune_cache(tmp_path, max_bytes=1 << 20)
        assert not stale.exists()  # orphan reclaimed despite budget room
        assert fresh.exists()  # a concurrent writer's temp is untouched

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            prune_cache(tmp_path, max_bytes=-1)

    def test_within_budget_untouched(self, tmp_path):
        cells = tiny_cells(policies=("Naive",))
        run_sweep(cells, workers=1, cache_dir=tmp_path)
        assert prune_cache(tmp_path, max_bytes=1 << 30) == 0
        again = run_sweep(cells, workers=1, cache_dir=tmp_path)
        assert again[0].cached


class TestFailureIsolation:
    def test_bad_policy_surfaces_without_hanging(self):
        cells = tiny_cells(policies=("Naive", "NoSuchPolicy", "Nexus"))
        results = run_sweep(cells, workers=2)
        by_policy = {r.cell.policy: r for r in results}
        assert by_policy["Naive"].ok
        assert by_policy["Nexus"].ok
        failed = by_policy["NoSuchPolicy"]
        assert not failed.ok
        assert "NoSuchPolicy" in failed.error
        assert failed.summary is None

    def test_execute_cell_never_raises(self):
        cell = SweepCell(scenario=tiny_scenario("NoSuchPolicy"))
        result = execute_cell(cell)
        assert isinstance(result, CellResult)
        assert not result.ok

    def test_failures_not_cached(self, tmp_path):
        cells = tiny_cells(policies=("NoSuchPolicy",))
        run_sweep(cells, workers=1, cache_dir=tmp_path)
        assert list(tmp_path.rglob("*.pkl")) == []
        again = run_sweep(cells, workers=1, cache_dir=tmp_path)
        assert not again[0].cached and not again[0].ok


class TestEventsAndTable:
    def test_events_cover_every_cell(self):
        cells = tiny_cells(policies=("Naive", "Nexus"))
        events = []
        run_sweep(cells, workers=2, on_event=events.append)
        starts = [e for e in events if e.kind == "start"]
        dones = [e for e in events if e.kind == "done"]
        assert len(starts) == len(cells)
        assert len(dones) == len(cells)
        assert all(e.total == len(cells) for e in events)

    def test_summary_table_renders_errors_and_successes(self):
        results = run_sweep(tiny_cells(policies=("Naive", "NoSuchPolicy")),
                            workers=1)
        table = summary_table(results)
        assert "tm-tweet-Naive-s0" in table
        assert "ERROR" in table
        md = summary_table(results, markdown=True)
        assert md.splitlines()[1].startswith("|-")
