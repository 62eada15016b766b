"""Tests for the exporter layer (console/CSV/JSON artifacts)."""

from __future__ import annotations

import json

import pytest

from repro.metrics.export import (
    Artifact,
    TableData,
    cell_text,
    render_console,
    render_csv,
    render_json,
)


def small_table() -> TableData:
    return TableData(
        name="demo",
        columns=("name", "rate", "ok"),
        rows=(("a", 1.5, True), ("b", 0.25, False)),
        formats=(None, ".2f", None),
    )


class TestCellText:
    def test_none_renders_empty(self):
        assert cell_text(None) == ""

    def test_bools_lowercase(self):
        assert cell_text(True) == "true"
        assert cell_text(False) == "false"

    def test_floats_use_shortest_round_trip_repr(self):
        assert cell_text(0.1) == "0.1"
        assert cell_text(1 / 3) == repr(1 / 3)

    def test_ints_and_strings_pass_through(self):
        assert cell_text(7) == "7"
        assert cell_text("x") == "x"


class TestTableData:
    def test_row_width_must_match_columns(self):
        with pytest.raises(ValueError, match="cells"):
            TableData(name="t", columns=("a", "b"), rows=(("only",),))

    def test_cells_must_be_scalars(self):
        with pytest.raises(ValueError, match="scalars"):
            TableData(name="t", columns=("a",), rows=(([1, 2],),))

    def test_needs_a_column(self):
        with pytest.raises(ValueError, match="column"):
            TableData(name="t", columns=())

    def test_formats_must_cover_every_column(self):
        with pytest.raises(ValueError, match="formats"):
            TableData(name="t", columns=("a", "b"), formats=(".2f",))

    def test_display_rows_apply_formats(self):
        table = small_table()
        assert table.display_rows() == [
            ["a", "1.50", "true"], ["b", "0.25", "false"],
        ]

    def test_display_skips_formats_for_none(self):
        table = TableData(
            name="t", columns=("v",), rows=((None,),), formats=(".2f",)
        )
        assert table.display_rows() == [[""]]


class TestRenderers:
    def test_console_titles_each_table(self):
        text = render_console([small_table()])
        assert text.startswith("demo:\n")
        assert "1.50" in text  # format applied

    def test_csv_blocks_with_comment_headers(self):
        text = render_csv([small_table()])
        lines = text.splitlines()
        assert lines[0] == "# demo"
        assert lines[1] == "name,rate,ok"
        assert lines[2] == "a,1.5,true"  # raw value, not the display format
        assert text.endswith("\n")

    def test_csv_quotes_special_cells(self):
        table = TableData(
            name="t", columns=("v",), rows=(('he said "hi", twice',),)
        )
        assert '"he said ""hi"", twice"' in render_csv([table])

    def test_json_is_canonical(self):
        text = render_json([small_table()], meta={"z": 1, "a": 2})
        payload = json.loads(text)
        assert payload["meta"] == {"z": 1, "a": 2}
        assert payload["tables"]["demo"]["rows"][0] == ["a", 1.5, True]
        # Canonical form: sorted keys, indent 2, single trailing newline.
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_renderers_are_deterministic(self):
        tables = [small_table()]
        assert render_csv(tables) == render_csv(tables)
        assert render_json(tables) == render_json(tables)
        assert render_console(tables) == render_console(tables)


class TestConsole:
    def test_plain_alignment(self):
        table = TableData(name="t", columns=("a", "bbb"),
                          rows=(("1", "2"), ("333", "4")))
        lines = render_console([table]).splitlines()
        assert lines[0] == "t:"
        assert len(lines) == 4
        # All lines of the body equal width, cells right-aligned.
        assert len({len(line) for line in lines[1:]}) == 1
        assert lines[2].startswith("  1")

    def test_markdown_structure(self):
        table = TableData(name="t", columns=("x", "y"), rows=(("1", "2"),))
        lines = render_console([table], markdown=True).splitlines()
        assert lines[1].startswith("| x")
        assert set(lines[2]) <= {"|", "-"}
        assert lines[3].startswith("| 1")

    def test_empty_rows_ok(self):
        assert render_console([TableData(name="t", columns=("a",))]) == "t:\na"

    def test_empty_trailing_cell_leaves_no_trailing_space(self):
        table = TableData(name="t", columns=("a", "b"), rows=(("x", None),))
        assert render_console([table]) == "t:\na  b\nx"


class TestResultTables:
    def test_one_row_per_policy(self):
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import Scenario
        from repro.metrics.export import scenario_result_tables

        results = [run_scenario(Scenario(
            app={"name": "tm"}, policy=policy, workers=1,
            trace={"name": "tweet", "base_rate": 20, "duration": 5.0},
        )) for policy in ("Naive", "Nexus")]
        tables = {t.name: t for t in scenario_result_tables(*results)}
        assert list(tables) == ["summary", "module_drops"]
        assert [r[0] for r in tables["summary"].rows] == ["Naive", "Nexus"]
        drops = tables["module_drops"]
        assert drops.columns == ("policy", *results[0].module_ids)
        assert [r[0] for r in drops.rows] == ["Naive", "Nexus"]
        text = render_console(list(tables.values()))
        assert "drop_rate" in text and "%" in text  # shares shown as percent
        md = render_console(list(tables.values()), markdown=True)
        assert md.startswith("summary:\n| policy")


class TestArtifact:
    def test_needs_a_name(self):
        with pytest.raises(ValueError, match="name"):
            Artifact(name="", tables=(small_table(),))

    def test_write_emits_json_and_csv(self, tmp_path):
        artifact = Artifact(name="demo", tables=(small_table(),),
                            meta={"k": "v"})
        paths = artifact.write(tmp_path)
        assert [p.name for p in paths] == ["demo.json", "demo.csv"]
        assert paths[0].read_text() == artifact.json_text()
        assert paths[1].read_text() == artifact.csv_text()

    def test_markdown_console_form(self):
        artifact = Artifact(name="demo", tables=(small_table(),))
        md = artifact.console_text(markdown=True)
        header = md.splitlines()[1]
        assert header.startswith("| name ") and header.endswith("|")
        assert "|---" in md  # the markdown separator row


class TestFaultTable:
    def test_records_become_rows(self):
        from repro.metrics.export import fault_table
        from repro.simulation.failures import FaultRecord

        table = fault_table([
            FaultRecord(time=1.0, kind="fail", target="m1", count=1),
            FaultRecord(time=2.0, kind="degrade", target="m1", count=2,
                        factor=2.5),
            FaultRecord(time=3.0, kind="cut", target="m1->m2", count=0),
        ])
        assert table.name == "faults"
        assert table.columns == ("time", "kind", "target", "count", "factor")
        assert table.rows == (
            (1.0, "fail", "m1", 1, None),
            (2.0, "degrade", "m1", 2, 2.5),
            (3.0, "cut", "m1->m2", 0, None),
        )

    def test_scenario_result_exports_the_fault_timeline(self):
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenario import AppSpec, Scenario, TraceSpec
        from repro.metrics.export import scenario_result_tables
        from repro.pipeline.profiles import ModelProfile
        from repro.simulation.failures import FailureEvent

        def scenario(failures=()):
            return Scenario(
                name="faulty",
                app=AppSpec.chained(
                    ["ex_a"], slo=0.3, pipeline="export-pipe",
                    profiles=[ModelProfile("ex_a", base=0.01,
                                           per_item=0.003, max_batch=8)],
                ),
                trace=TraceSpec(name="poisson", duration=3.0, base_rate=40.0),
                policy="Naive",
                workers=2,
                failures=failures,
            )

        faulty = run_scenario(scenario(
            (FailureEvent(time=1.0, module_id="m1", workers=1,
                          downtime=0.5),),
        ))
        tables = {t.name: t for t in scenario_result_tables(faulty)}
        assert [r[1] for r in tables["faults"].rows] == ["fail", "recover"]
        clean = run_scenario(scenario())
        assert "faults" not in {
            t.name for t in scenario_result_tables(clean)
        }
