"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lv" in out and "PARD" in out and "Clipper++" in out

    def test_list_enumerates_registries(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        # All three registries, including non-paper registered traces.
        assert "da" in out and "gm" in out
        assert "wiki" in out and "poisson" in out and "step" in out
        assert "Nexus" in out and "ablations" in out

    def test_run_requires_valid_policy(self):
        with pytest.raises(SystemExit):
            main([
                "run", "--policy", "NoSuchPolicy", "--duration", "5",
                "--app", "tm",
            ])

    def test_unknown_app_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "bogus"])

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunCommands:
    def test_run_prints_summary_table(self, capsys):
        rc = main([
            "run", "--app", "tm", "--trace", "tweet", "--duration", "8",
            "--policy", "Nexus", "--no-scaling",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Nexus" in out
        assert "summary:" in out and "drop_rate" in out
        assert "module_drops:" in out and "m1" in out

    def test_compare_prints_all_policies(self, capsys):
        rc = main([
            "compare", "--app", "tm", "--trace", "tweet", "--duration", "8",
            "--policies", "PARD,Naive", "--no-scaling",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # One row per policy in the summary and module_drops tables, then
        # one describe line per policy.
        rows = [line.split()[0] for line in out.splitlines()
                if line.split()[:1] in (["PARD"], ["Naive"])]
        assert rows == ["PARD", "Naive", "PARD", "Naive", "PARD", "Naive"]

    def test_markdown_output(self, capsys):
        rc = main([
            "run", "--app", "tm", "--trace", "wiki", "--duration", "6",
            "--policy", "Naive", "--markdown", "--no-scaling",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| policy" in out

    def test_slo_override(self, capsys):
        rc = main([
            "run", "--app", "tm", "--trace", "tweet", "--duration", "6",
            "--policy", "PARD", "--slo", "0.3", "--no-scaling",
        ])
        assert rc == 0


class TestSweepCommand:
    def test_sweep_tiny_grid(self, capsys, tmp_path):
        args = [
            "sweep", "--apps", "tm", "--traces", "tweet",
            "--policies", "Naive,Nexus", "--duration", "5", "--no-scaling",
            "--workers", "2", "--cache-dir", str(tmp_path), "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "tm-tweet-Naive-s0" in out and "tm-tweet-Nexus-s0" in out
        # Re-running the identical grid is served from the on-disk cache.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("cached") == 2

    def test_paper_grid_summaries_are_pinned(self, tmp_path):
        """The paper's 4 apps x 3 traces x 4 systems grid, at 10 s per
        cell: its --save-summaries bytes are pinned, so a change to how
        `repro sweep` builds its cells cannot move a number unnoticed."""
        out = tmp_path / "grid.json"
        assert main([
            "sweep", "--apps", "lv,tm,gm,da", "--traces", "wiki,tweet,azure",
            "--policies", "PARD,Nexus,Clipper++,Naive", "--duration", "10",
            "--workers", "1", "--no-cache", "--quiet",
            "--save-summaries", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d846f0fa0401f1b38662c24b2e6f4b31e937c8e21e03945ed960e8322601e551"
        )

    def test_sweep_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--policies", "NoSuchPolicy", "--duration", "5"])

    def test_registered_traces_accepted_by_run(self, capsys):
        """Everything `repro list` advertises must be runnable."""
        rc = main([
            "run", "--app", "tm", "--trace", "poisson", "--duration", "5",
            "--policy", "Naive", "--no-scaling",
        ])
        assert rc == 0
        assert "Naive" in capsys.readouterr().out


SCENARIO = {
    "name": "cli-test",
    "app": {"name": "tm"},
    "trace": {"name": "poisson", "base_rate": 30, "duration": 5},
    "policy": "Naive",
    "workers": 2,
    "failures": [
        {"time": 2.0, "module_id": "m1", "workers": 1, "downtime": 1.0}
    ],
}


class TestScenarioCommands:
    def scenario_file(self, tmp_path, spec=None):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec or SCENARIO))
        return str(path)

    def test_scenario_run(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--file", self.scenario_file(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-test-Naive-s0" in out
        # The fault timeline is printed as the faults table.
        assert "faults:" in out
        assert any(line.split()[1:3] == ["fail", "m1"]
                   for line in out.splitlines())

    def test_scenario_sweep_uses_cache(self, capsys, tmp_path):
        args = [
            "scenario", "sweep", "--file", self.scenario_file(tmp_path),
            "--policies", "Naive,Nexus", "--seeds", "0,1", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"), "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cli-test-Naive-s0" in out and "cli-test-Nexus-s1" in out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("cached") == 4

    def test_scenario_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["scenario", "run", "--file", str(tmp_path / "absent.json")])

    def test_scenario_directory_path_rejected_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid scenario"):
            main(["scenario", "run", "--file", str(tmp_path)])

    def test_scenario_invalid_spec_rejected(self, tmp_path):
        bad = dict(SCENARIO, policy="NoSuchPolicy")
        with pytest.raises(SystemExit, match="invalid scenario"):
            main(["scenario", "run", "--file",
                  self.scenario_file(tmp_path, bad)])

    def test_scenario_unknown_trace_rejected_cleanly(self, tmp_path):
        bad = dict(SCENARIO, trace={"name": "nosuch"})
        with pytest.raises(SystemExit, match="unknown trace"):
            main(["scenario", "run", "--file",
                  self.scenario_file(tmp_path, bad)])

    def test_scenario_unknown_app_rejected_cleanly(self, tmp_path):
        bad = dict(SCENARIO, app={"name": "noapp"})
        with pytest.raises(SystemExit, match="invalid scenario"):
            main(["scenario", "run", "--file",
                  self.scenario_file(tmp_path, bad)])

    def test_scenario_malformed_section_rejected_cleanly(self, tmp_path):
        for bad_section in (5, []):
            bad = dict(SCENARIO, scaling=bad_section)
            with pytest.raises(SystemExit, match="invalid scenario"):
                main(["scenario", "run", "--file",
                      self.scenario_file(tmp_path, bad)])

    def test_max_cache_mb_prunes_even_with_no_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        run_args = [
            "scenario", "sweep", "--file", self.scenario_file(tmp_path),
            "--workers", "1", "--cache-dir", str(cache), "--quiet",
        ]
        assert main(run_args) == 0  # populates the cache
        assert list(cache.rglob("*.pkl"))
        assert main(run_args + ["--no-cache", "--max-cache-mb", "0"]) == 0
        capsys.readouterr()
        assert list(cache.rglob("*.pkl")) == []

    def test_negative_max_cache_mb_rejected_at_parse_time(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "scenario", "sweep", "--file", "x.json",
                "--max-cache-mb", "-1",
            ])

    def test_scenario_sweep_rejects_unknown_policy(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown policies"):
            main(["scenario", "sweep", "--file",
                  self.scenario_file(tmp_path), "--policies", "Bogus"])

    def test_example_scenario_file_runs(self, capsys):
        from pathlib import Path

        example = (Path(__file__).resolve().parent.parent
                   / "examples" / "scenarios" / "burst_failure.json")
        rc = main(["scenario", "run", "--file", str(example)])
        assert rc == 0
        assert "burst-failure" in capsys.readouterr().out


MULTI_SCENARIO = {
    "name": "cli-shared",
    "tenants": [
        {
            "scenario": {
                "name": "front",
                "app": {"name": "tm"},
                "policy": "Naive",
                "trace": {"name": "poisson", "base_rate": 25, "duration": 5},
            }
        },
        {
            "weight": 2.0,
            "scenario": {
                "name": "batchy",
                "app": {"name": "lv"},
                "policy": "Naive",
                "trace": {"name": "poisson", "base_rate": 10, "duration": 5},
            },
        },
    ],
    "workers": 2,
    "failures": [
        {"time": 2.0, "module_id": "face_recognition", "workers": 1,
         "downtime": 1.0}
    ],
}


class TestMultiScenarioCommands:
    def scenario_file(self, tmp_path, spec=None):
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(spec or MULTI_SCENARIO))
        return str(path)

    def test_scenario_run_auto_detects_multi(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--file", self.scenario_file(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shared cluster cli-shared-s0" in out
        assert "front" in out and "batchy" in out  # per-app breakdown
        assert "aggregate:" in out
        assert any(line.split()[1:3] == ["fail", "face_recognition"]
                   for line in out.splitlines())

    def test_scenario_sweep_multi_with_cache(self, capsys, tmp_path):
        args = [
            "scenario", "sweep", "--file", self.scenario_file(tmp_path),
            "--policies", "Naive,Nexus", "--seeds", "0,1", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"), "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cli-shared-s0" in out and "cli-shared-s1" in out
        assert "- front" in out and "- batchy" in out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("cached") == 4

    def test_invalid_multi_rejected_cleanly(self, tmp_path):
        bad = dict(MULTI_SCENARIO, workers={"nosuch": 2})
        with pytest.raises(SystemExit, match="invalid scenario"):
            main(["scenario", "run", "--file",
                  self.scenario_file(tmp_path, bad)])

    def test_example_shared_cluster_file_runs(self, capsys):
        from pathlib import Path

        example = (Path(__file__).resolve().parent.parent
                   / "examples" / "scenarios" / "shared_cluster.json")
        rc = main(["scenario", "run", "--file", str(example)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shared-tm-lv" in out
        assert "monitor" in out and "live" in out

    def test_shared_cluster_sweep_rows_name_their_policy(self, capsys):
        """A shared-cluster label leaves out the policy, so the sweep table's
        policy column and the progress line tell its cells apart."""
        from pathlib import Path

        example = (Path(__file__).resolve().parent.parent
                   / "examples" / "scenarios" / "shared_cluster.json")
        rc = main(["scenario", "sweep", "--file", str(example), "--policies",
                   "PARD,Naive", "--workers", "1", "--no-cache"])
        assert rc == 0
        captured = capsys.readouterr()
        rows = [line.split() for line in captured.out.splitlines()
                if line.split()[:1] == ["shared-tm-lv-s0"]]
        assert [row[:3] for row in rows] == [
            ["shared-tm-lv-s0", "PARD", "ok"],
            ["shared-tm-lv-s0", "Naive", "ok"],
        ]
        assert rows[0] != rows[1]
        progress = [line.split(":")[0] for line in captured.err.splitlines()
                    if "shared-tm-lv-s0" in line]
        assert progress == ["[1/2] shared-tm-lv-s0 (PARD)",
                            "[2/2] shared-tm-lv-s0 (Naive)"]


SWEEP_FILE = {
    "name": "cli-axes",
    "base": {
        "name": "ax",
        "app": {"name": "tm"},
        "trace": {"name": "poisson", "base_rate": 30, "duration": 5},
        "policy": {"name": "PARD", "params": {"samples": 200}},
        "workers": 2,
    },
    "axes": {"policy.lam": [0.05, 0.2, 0.4]},
}


class TestPolicySpecCommands:
    def sweep_file(self, tmp_path, spec=None):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec or SWEEP_FILE))
        return str(path)

    def test_list_params_prints_schemas(self, capsys):
        assert main(["list", "--params"]) == 0
        out = capsys.readouterr().out
        assert "policy parameters:" in out
        assert "lam=0.1" in out and "budget_mode" in out
        assert "admission parameters:" in out
        assert "weighted-fair" in out and "token-bucket" in out

    def test_scenario_sweep_expands_axes_file(self, capsys, tmp_path):
        args = [
            "scenario", "sweep", "--file", self.sweep_file(tmp_path),
            "--workers", "1", "--no-cache", "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        # One row per lam value, labelled with the swept parameter.
        for lam in ("0.05", "0.2", "0.4"):
            assert f"lam={lam}" in out, out

    def test_scenario_run_rejects_axes_file(self, tmp_path):
        with pytest.raises(SystemExit, match="sweep axes"):
            main(["scenario", "run", "--file", self.sweep_file(tmp_path)])

    def test_save_summaries_bitwise_across_workers(self, tmp_path):
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        base = [
            "scenario", "sweep", "--file", self.sweep_file(tmp_path),
            "--no-cache", "--quiet",
        ]
        assert main(base + ["--workers", "1",
                            "--save-summaries", str(serial)]) == 0
        assert main(base + ["--workers", "2",
                            "--save-summaries", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_run_prints_describe_line(self, capsys):
        rc = main([
            "run", "--app", "tm", "--trace", "poisson", "--duration", "5",
            "--policy", "PARD", "--no-scaling",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[lam=" in out  # the describe line spells out the knobs

    def test_invalid_axis_rejected_cleanly(self, tmp_path):
        bad = dict(SWEEP_FILE, axes={"policy.bogus": [1]})
        with pytest.raises(SystemExit, match="invalid scenario"):
            main(["scenario", "sweep", "--file",
                  self.sweep_file(tmp_path, bad)])

    def test_admission_scenario_from_json(self, capsys):
        from pathlib import Path

        example = (Path(__file__).resolve().parent.parent
                   / "examples" / "scenarios" / "fair_share.json")
        rc = main(["scenario", "run", "--file", str(example)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "victim" in out and "aggressor" in out

    def test_policies_flag_conflicts_with_policy_axis(self, tmp_path):
        with pytest.raises(SystemExit, match="already sweeps a policy axis"):
            main(["scenario", "sweep", "--file", self.sweep_file(tmp_path),
                  "--policies", "PARD,Naive", "--quiet", "--no-cache"])

    def test_seeds_flag_composes_when_axis_absent(self, capsys, tmp_path):
        args = [
            "scenario", "sweep", "--file", self.sweep_file(tmp_path),
            "--seeds", "0,1", "--workers", "1", "--no-cache", "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "s0" in out and "s1" in out


LLM_SCENARIO = {
    "name": "cli-llm",
    "app": {"name": "llm-chat"},
    "trace": {"name": "poisson", "base_rate": 10, "duration": 4},
    "policy": "PARD",
    "workers": 1,
    "goodput": {"ttft": 1.0, "e2e": 8.0},
}


class TestLlmCommands:
    def scenario_file(self, tmp_path, spec=None):
        path = tmp_path / "llm.json"
        path.write_text(json.dumps(spec or LLM_SCENARIO))
        return str(path)

    def test_list_llm_shows_profile_kind_column(self, capsys):
        assert main(["list", "--llm"]) == 0
        out = capsys.readouterr().out
        assert "profile_kind" in out
        # LLM apps are flagged, fixed-duration apps are not.
        kinds = {cells[0]: cells[1] for cells in map(str.split, out.splitlines())
                 if len(cells) == 3}
        assert kinds["llm-chat"] == kinds["rag-agentic"] == "llm"
        assert kinds["tm"] == "fixed"

    def test_scenario_run_prints_goodput_table(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--file", self.scenario_file(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "goodput:" in out.splitlines()
        assert "ttft_met" in out and "e2e_met" in out

    def test_scenario_run_no_constraints_no_goodput_table(self, capsys, tmp_path):
        spec = {k: v for k, v in LLM_SCENARIO.items() if k != "goodput"}
        rc = main(["scenario", "run",
                   "--file", self.scenario_file(tmp_path, spec)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "goodput:" not in out.splitlines()

    def test_llm_serving_example_prints_per_app_goodput(self, capsys):
        from pathlib import Path

        example = (Path(__file__).resolve().parent.parent
                   / "examples" / "scenarios" / "llm_serving.json")
        rc = main(["scenario", "run", "--file", str(example)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "goodput:" in out.splitlines()
        assert "chat" in out and "rag" in out
        assert "tpot_met" in out


class TestMergeCommand:
    def shard(self, tmp_path, name, entries):
        path = tmp_path / name
        path.write_text(json.dumps(entries))
        return str(path)

    def test_zero_inputs_rejected_with_hint(self):
        with pytest.raises(SystemExit, match="no shard files given"):
            main(["merge"])

    def test_duplicate_indices_rejected(self, tmp_path):
        a = self.shard(tmp_path, "a.json", [{"index": 0, "cell": "x"}])
        b = self.shard(tmp_path, "b.json", [{"index": 0, "cell": "x"}])
        with pytest.raises(SystemExit, match="duplicated cells \\[0\\]"):
            main(["merge", a, b])

    def test_incomplete_partition_rejected(self, tmp_path):
        a = self.shard(tmp_path, "a.json", [{"index": 1, "cell": "x"}])
        with pytest.raises(SystemExit, match="missing cells \\[0\\]"):
            main(["merge", a])

    def test_non_summaries_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(SystemExit, match="not a summaries file"):
            main(["merge", str(bad)])

    def test_unsharded_entries_rejected(self, tmp_path):
        a = self.shard(tmp_path, "a.json", [{"cell": "x"}])
        with pytest.raises(SystemExit, match="non-negative integer 'index'"):
            main(["merge", a])

    def test_empty_shards_rejected(self, tmp_path):
        a = self.shard(tmp_path, "a.json", [])
        with pytest.raises(SystemExit, match="no summary entries"):
            main(["merge", a])


class TestScenarioFormats:
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO))
        return str(path)

    def test_json_format_emits_canonical_artifact(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--file", self.scenario_file(tmp_path),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["scenario"] == "cli-test-Naive-s0"
        assert "fingerprint" in payload["meta"]
        assert "summary" in payload["tables"]

    def test_csv_format_emits_table_blocks(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--file", self.scenario_file(tmp_path),
                   "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# summary\n")
        assert "# module_drops" in out

    def test_md_format_prints_markdown_tables(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--file", self.scenario_file(tmp_path),
                   "--format", "md"])
        assert rc == 0
        assert "| policy" in capsys.readouterr().out

    def test_markdown_flag_is_format_md(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "run", "--file", "x.json", "--markdown"]
            )

    def test_default_console_format_unchanged(self, capsys, tmp_path):
        rc = main(["scenario", "run", "--file", self.scenario_file(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-test-Naive-s0" in out
        assert not out.startswith("{")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "name", ["burst_failure", "shared_cluster", "llm_serving"]
    )
    def test_artifact_matches_golden(self, capsys, name, fmt):
        """`scenario run --format csv|json` on the example scenarios is
        byte-identical to the committed artifacts."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        rc = main(["scenario", "run", "--file",
                   str(root / "examples" / "scenarios" / f"{name}.json"),
                   "--format", fmt])
        assert rc == 0
        golden = root / "benchmarks" / "goldens" / "artifacts" / f"{name}.{fmt}"
        assert capsys.readouterr().out == golden.read_text()


class TestScenarioRender:
    def scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO))
        return str(path)

    def test_render_prints_declared_vs_measured_timeline(
        self, capsys, tmp_path
    ):
        rc = main(["scenario", "render", "--file",
                   self.scenario_file(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "declared_rate" in out and "arrival_rate" in out

    def test_render_csv_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "timeline.csv"
        rc = main(["scenario", "render", "--file",
                   self.scenario_file(tmp_path),
                   "--format", "csv", "--out", str(out_path)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().err
        text = out_path.read_text()
        assert "declared_rate" in text

    def test_render_window_controls_row_count(self, capsys, tmp_path):
        rc = main(["scenario", "render", "--file",
                   self.scenario_file(tmp_path), "--window", "2.5",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        (table,) = payload["tables"].values()
        assert len(table["rows"]) == 2  # ceil(5s / 2.5s) windows


STUDY = {
    "study": "capacity",
    "name": "cli-cap",
    "rates": [20],
    "target": 0.5,
    "min_workers": 1,
    "max_workers": 2,
    "base": {
        "name": "cli-cap-base",
        "app": {"name": "tm"},
        "policy": "Naive",
        "trace": {"name": "poisson", "duration": 4},
    },
}


class TestStudyCommand:
    def study_file(self, tmp_path, spec=None):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(spec or STUDY))
        return str(path)

    def test_study_run_prints_and_writes_artifacts(self, capsys, tmp_path):
        rc = main([
            "study", "run", self.study_file(tmp_path), "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
            "--save-artifacts", str(tmp_path / "artifacts"),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "required_workers" in captured.out
        assert "cells:" in captured.err and "wrote" in captured.err
        saved = sorted(p.name for p in (tmp_path / "artifacts").iterdir())
        assert saved == ["cli-cap.csv", "cli-cap.json"]

    def test_second_run_is_fully_cached_and_byte_identical(
        self, capsys, tmp_path
    ):
        args = [
            "study", "run", self.study_file(tmp_path), "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args + ["--save-artifacts", str(tmp_path / "a1")]) == 0
        first = capsys.readouterr()
        assert main(args + ["--save-artifacts", str(tmp_path / "a2")]) == 0
        second = capsys.readouterr()
        assert " 0 simulated," in second.err
        for name in ("cli-cap.json", "cli-cap.csv"):
            assert ((tmp_path / "a1" / name).read_bytes()
                    == (tmp_path / "a2" / name).read_bytes())
        assert first.out == second.out

    def test_missing_study_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="study file not found"):
            main(["study", "run", str(tmp_path / "absent.json")])

    def test_invalid_study_file_rejected(self, tmp_path):
        bad = self.study_file(tmp_path, {"study": "nosuch"})
        with pytest.raises(SystemExit, match="invalid study file"):
            main(["study", "run", bad])

    def test_invalid_base_scenario_rejected(self, tmp_path):
        bad_study = dict(STUDY, base=dict(STUDY["base"], policy="NoSuch"))
        bad = self.study_file(tmp_path, bad_study)
        with pytest.raises(SystemExit):
            main(["study", "run", bad, "--quiet",
                  "--no-cache", "--save-artifacts", str(tmp_path / "a")])
