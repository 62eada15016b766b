"""Tests for report formatting."""

from __future__ import annotations

import pytest

from repro.metrics.report import format_table, pct


class TestFormatTable:
    def test_plain_alignment(self):
        out = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 3
        # All lines equal width.
        assert len({len(line) for line in lines}) == 1

    def test_markdown_structure(self):
        out = format_table(["x", "y"], [["1", "2"]], markdown=True)
        lines = out.splitlines()
        assert lines[0].startswith("| x")
        assert set(lines[1]) <= {"|", "-"}
        assert lines[2].startswith("| 1")

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert out == "a"

    def test_pct(self):
        assert pct(0.1234) == "12.34%"


class TestResultTables:
    def test_comparison_and_per_module_tables(self):
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import Scenario
        from repro.metrics.report import comparison_table, per_module_drop_table

        results = {"Naive": run_scenario(Scenario(
            app={"name": "tm"}, policy="Naive", workers=1,
            trace={"name": "tweet", "base_rate": 20, "duration": 5.0},
        ))}
        table = comparison_table(results)
        assert "Naive" in table and "goodput" in table
        module_table = per_module_drop_table(results)
        for mid in results["Naive"].module_ids:
            assert mid in module_table
        md = comparison_table(results, markdown=True)
        assert md.startswith("| policy")
