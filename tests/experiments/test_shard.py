"""Sharded sweeps: deterministic partitioning and bitwise merge."""

from __future__ import annotations

import json

import pytest

from repro.experiments.scenario import Scenario, TraceSpec, scenario_axes
from repro.experiments.sweep import (
    merge_summaries,
    parse_shard,
    run_sweep,
    scenario_cells,
    shard_indices,
    summaries_text,
)


class TestParseShard:
    def test_valid(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("3/8") == (3, 8)

    @pytest.mark.parametrize(
        "text", ["0/2", "3/2", "2", "a/b", "2/0", "-1/2", "1/"]
    )
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)


class TestShardIndices:
    def test_partition_is_complete_and_disjoint(self):
        total = 11
        n = 3
        owned = [shard_indices(total, (i, n)) for i in range(1, n + 1)]
        merged = sorted(i for part in owned for i in part)
        assert merged == list(range(total))

    def test_round_robin(self):
        assert shard_indices(7, (1, 2)) == [0, 2, 4, 6]
        assert shard_indices(7, (2, 2)) == [1, 3, 5]

    def test_single_shard_is_identity(self):
        assert shard_indices(5, (1, 1)) == list(range(5))

    def test_empty_shard(self):
        # More shards than cells: trailing shards legitimately own none.
        assert shard_indices(2, (3, 4)) == []


def _grid_cells():
    base = Scenario(
        trace=TraceSpec(name="constant", duration=10.0, base_rate=30.0),
        workers=2,
    )
    return scenario_cells(
        scenario_axes(base, [("policy", ["PARD", "Naive"]), ("seed", [0, 1])])
    )


class TestShardedSweepMerge:
    def test_merged_shards_equal_serial_bitwise(self):
        cells = _grid_cells()
        serial = summaries_text(run_sweep(cells, workers=1))
        shard_texts = []
        for i in (1, 2):
            indices = shard_indices(len(cells), (i, 2))
            results = run_sweep([cells[k] for k in indices], workers=1)
            shard_texts.append(summaries_text(results, indices=indices))
        assert merge_summaries(shard_texts) == serial

    def test_merge_order_independent(self):
        cells = _grid_cells()
        serial = summaries_text(run_sweep(cells, workers=1))
        texts = []
        for i in (2, 1):  # reversed input order
            indices = shard_indices(len(cells), (i, 2))
            results = run_sweep([cells[k] for k in indices], workers=1)
            texts.append(summaries_text(results, indices=indices))
        assert merge_summaries(texts) == serial

    def test_shard_entries_carry_index(self):
        cells = _grid_cells()
        indices = shard_indices(len(cells), (2, 2))
        results = run_sweep([cells[k] for k in indices], workers=1)
        payload = json.loads(summaries_text(results, indices=indices))
        assert [e["index"] for e in payload] == indices

    def test_missing_shard_rejected(self):
        cells = _grid_cells()
        indices = shard_indices(len(cells), (1, 2))
        results = run_sweep([cells[k] for k in indices], workers=1)
        text = summaries_text(results, indices=indices)
        with pytest.raises(ValueError, match="partition"):
            merge_summaries([text])

    def test_duplicate_shard_rejected(self):
        cells = _grid_cells()[:2]
        indices = [0, 1]
        results = run_sweep(cells, workers=1)
        text = summaries_text(results, indices=indices)
        with pytest.raises(ValueError, match="partition"):
            merge_summaries([text, text])

    def test_unsharded_input_rejected(self):
        cells = _grid_cells()[:1]
        text = summaries_text(run_sweep(cells, workers=1))
        with pytest.raises(ValueError, match="index"):
            merge_summaries([text])

    def test_indices_length_checked(self):
        cells = _grid_cells()[:2]
        results = run_sweep(cells, workers=1)
        with pytest.raises(ValueError):
            summaries_text(results, indices=[0])


class TestShardResume:
    def test_cache_resumes_interrupted_shard(self, tmp_path):
        """A killed shard resumes from its cache and merges bitwise.

        Simulated interruption: run only a prefix of the shard's cells
        (as if the process died mid-grid), then re-run the whole shard
        against the same cache — completed cells come back as hits and
        the merged output still matches the serial run byte for byte.
        """
        cells = _grid_cells()
        cache = tmp_path / "cache"
        serial = summaries_text(run_sweep(cells, workers=1))

        indices = shard_indices(len(cells), (1, 2))
        shard_cells = [cells[k] for k in indices]
        # "Killed" first attempt: only one cell completed.
        run_sweep(shard_cells[:1], workers=1, cache_dir=cache)
        # Resume: same command, same cache.
        events = []
        results = run_sweep(
            shard_cells, workers=1, cache_dir=cache,
            on_event=lambda e: events.append(e.kind),
        )
        assert "cached" in events  # the completed cell was not re-run
        text1 = summaries_text(results, indices=indices)

        other = shard_indices(len(cells), (2, 2))
        results2 = run_sweep(
            [cells[k] for k in other], workers=1, cache_dir=cache
        )
        text2 = summaries_text(results2, indices=other)
        assert merge_summaries([text1, text2]) == serial
