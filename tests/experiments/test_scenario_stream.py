"""Streaming and file-backed trace specs at the scenario layer."""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import Scenario, TraceSpec
from repro.workload.generators import get_trace
from repro.workload.io import save_trace_csv
from repro.workload.source import trace_file_digest


class TestSpecFields:
    def test_defaults_emit_no_new_keys(self):
        # Pre-existing specs must serialize exactly as before this PR —
        # fingerprints (and therefore sweep caches and goldens) depend
        # on it.
        spec = TraceSpec(name="tweet", duration=30.0, base_rate=50.0)
        d = spec.to_dict()
        assert "path" not in d and "digest" not in d and "stream" not in d
        assert TraceSpec.from_dict(d) == spec

    def test_stream_roundtrip(self):
        spec = TraceSpec(
            name="constant", duration=20.0, base_rate=40.0, stream=True
        )
        d = spec.to_dict()
        assert d["stream"] is True
        assert TraceSpec.from_dict(d) == spec

    def test_path_roundtrip(self, tmp_path):
        trace = get_trace("poisson", base_rate=30.0, duration=15.0, seed=0)
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        spec = TraceSpec(path=str(path), digest=trace_file_digest(path))
        d = spec.to_dict()
        assert d["path"] == str(path)
        assert TraceSpec.from_dict(d) == spec
        # Name defaults to the file stem.
        assert spec.name == "t"

    def test_non_finite_fields_rejected(self):
        for field in ("duration", "base_rate"):
            with pytest.raises(ValueError) as err:
                TraceSpec(**{field: float("inf")})
            message = str(err.value)
            assert message.startswith(f"trace {field} must be finite")
            assert "\n" not in message
        with pytest.raises(ValueError, match="duration must be finite"):
            TraceSpec(duration=float("nan"))

    def test_infinite_file_duration_fails_at_parse(self, tmp_path):
        # Accepted, this horizon made run_scenario loop forever.
        path = tmp_path / "t.csv"
        path.write_text("# trace=t duration=inf\n1.0\n")
        with pytest.raises(ValueError, match="t.csv: trace duration inf"):
            Scenario.from_dict({"trace": {"path": str(path)}, "workers": 1})

    def test_digest_requires_path(self):
        with pytest.raises(ValueError):
            TraceSpec(name="tweet", duration=10.0, digest="0" * 64)

    def test_path_excludes_stream_flag(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# trace=t duration=10\n1.0\n")
        with pytest.raises(ValueError, match="stream"):
            TraceSpec(path=str(path), stream=True)

    def test_path_excludes_generator_knobs(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# trace=t duration=10\n1.0\n")
        with pytest.raises(ValueError):
            TraceSpec(path=str(path), base_rate=50.0)
        with pytest.raises(ValueError):
            TraceSpec(path=str(path), args={"burst_factor": 2.0})


class TestScenarioValidation:
    def test_file_backed_rejects_utilization(self, tmp_path):
        trace = get_trace("constant", base_rate=20.0, duration=10.0, seed=0)
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        scenario = Scenario(
            trace=TraceSpec(path=str(path)), utilization=0.9
        )
        with pytest.raises(ValueError, match="utilization"):
            scenario.validate()

    def test_file_backed_with_workers_validates(self, tmp_path):
        trace = get_trace("constant", base_rate=20.0, duration=10.0, seed=0)
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        Scenario(trace=TraceSpec(path=str(path)), workers=2).validate()


class TestStreamedExecution:
    def test_streamed_constant_equals_eager(self):
        def summary(stream: bool):
            scenario = Scenario(
                trace=TraceSpec(
                    name="constant",
                    duration=20.0,
                    base_rate=40.0,
                    stream=stream,
                ),
                workers=2,
            )
            return run_scenario(scenario).summary

        assert summary(stream=True) == summary(stream=False)

    def test_file_backed_equals_generated(self, tmp_path):
        trace = get_trace("tweet", base_rate=50.0, duration=20.0, seed=3)
        path = tmp_path / "tweet.csv"
        save_trace_csv(trace, path)

        lazy = run_scenario(
            Scenario(
                trace=TraceSpec(
                    path=str(path), digest=trace_file_digest(path)
                ),
                workers=2,
            )
        )
        eager = run_scenario(
            Scenario(
                trace=TraceSpec(name="tweet", duration=20.0, base_rate=50.0),
                workers=2,
                seed=3,
            )
        )
        assert lazy.summary == eager.summary

    def test_digest_mismatch_fails_at_run(self, tmp_path):
        trace = get_trace("constant", base_rate=20.0, duration=10.0, seed=0)
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        scenario = Scenario(
            trace=TraceSpec(path=str(path), digest="0" * 64), workers=2
        )
        with pytest.raises(ValueError, match="digest"):
            run_scenario(scenario)
