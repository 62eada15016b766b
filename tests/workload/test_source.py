"""Tests for the streaming arrival-source library.

The contract under test: every transform is *byte-identical* to a
whole-array numpy reference however its input is cut into chunks,
sources are re-iterable and deterministic, and file replay round-trips
losslessly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.rng import stable_hash
from repro.workload.generators import get_trace, stream_trace
from repro.workload.io import (
    load_trace_jsonl,
    save_trace_csv,
    save_trace_jsonl,
)
from repro.workload.source import (
    ArrivalSource,
    BurstSource,
    ConcatSource,
    ConstantSource,
    FileSource,
    GeneratorSource,
    SliceSource,
    SpliceSource,
    ThinnedSource,
    TraceSource,
    concat_sources,
    trace_file_digest,
)
from repro.workload.trace import Trace

# -- whole-array references ---------------------------------------------
#
# Each transform computed in one numpy pass over the materialized input,
# with the same names, seeds and draw order as the sources.  The streaming
# classes must reproduce these bytes for any chunking of their input.


def _ref_scaled(trace: Trace, factor: float) -> Trace:
    rng = np.random.default_rng(stable_hash(trace.name) % 2**32)
    keep = rng.random(len(trace)) < factor
    return Trace(
        name=f"{trace.name}x{factor:g}",
        arrivals=trace.arrivals[keep],
        duration=trace.duration,
    )


def _ref_burst(
    trace: Trace, start: float, length: float, factor: float, seed: int = 0
) -> Trace:
    end = min(start + length, trace.duration)
    rng = np.random.default_rng(
        (stable_hash(f"{trace.name}|burst") + seed) % 2**32
    )
    in_window = (trace.arrivals >= start) & (trace.arrivals < end)
    if factor < 1:
        keep = ~in_window | (rng.random(len(trace)) < factor)
        arrivals = trace.arrivals[keep]
    else:
        n_extra = rng.poisson((factor - 1.0) * int(in_window.sum()))
        extra = rng.uniform(start, end, size=n_extra)
        arrivals = np.sort(np.concatenate([trace.arrivals, extra]))
    return Trace(
        name=f"{trace.name}@{start:g}x{factor:g}",
        arrivals=arrivals,
        duration=trace.duration,
    )


def _ref_slice(trace: Trace, start: float, end: float) -> Trace:
    mask = (trace.arrivals >= start) & (trace.arrivals < end)
    return Trace(
        name=f"{trace.name}[{start:g}:{end:g}]",
        arrivals=trace.arrivals[mask] - start,
        duration=end - start,
    )


def _ref_concat(traces: list[Trace]) -> Trace:
    parts: list[np.ndarray] = []
    offset = 0.0
    for trace in traces:
        parts.append(trace.arrivals + offset)
        offset += trace.duration
    return Trace(
        name="+".join(t.name for t in traces),
        arrivals=np.concatenate(parts),
        duration=offset,
    )


def _ref_splice(base: Trace, other: Trace, at: float) -> Trace:
    end = at + other.duration
    return Trace(
        name=f"{base.name}<-{other.name}@{at:g}",
        arrivals=np.concatenate([
            base.arrivals[base.arrivals < at],
            other.arrivals + at,
            base.arrivals[base.arrivals >= end],
        ]),
        duration=max(base.duration, end),
    )


def _bitwise(source: ArrivalSource, trace: Trace) -> None:
    assert source.materialize().arrivals.tobytes() == trace.arrivals.tobytes()
    assert source.name == trace.name
    assert source.duration == trace.duration


class _CutSource(ArrivalSource):
    """A trace replayed in chunks cut at fixed indices (empty chunks
    wherever two cuts coincide or a cut sits at either end)."""

    def __init__(self, trace: Trace, cuts: list[int]) -> None:
        super().__init__(trace.name, trace.duration)
        self.trace = trace
        self.cuts = sorted(cuts)

    def chunks(self) -> Iterator[np.ndarray]:
        yield from np.split(self.trace.arrivals, self.cuts)


class TestConstantSource:
    def test_matches_eager_bitwise(self):
        src = ConstantSource(rate=37.0, duration=50.0)
        eager = get_trace("constant", base_rate=37.0, duration=50.0, seed=0)
        _bitwise(src, eager)

    def test_count_without_iteration(self):
        src = ConstantSource(rate=10.0, duration=30.0)
        assert src.count() == 300
        assert src.mean_rate == pytest.approx(10.0)

    def test_reiterable(self):
        src = ConstantSource(rate=100.0, duration=90.0)
        assert list(src) == list(src)


class TestTransformParity:
    """Streaming transforms == whole-array references, bit for bit."""

    @pytest.fixture()
    def trace(self) -> Trace:
        return get_trace("tweet", base_rate=80.0, duration=60.0, seed=4)

    def test_scaled(self, trace):
        _bitwise(TraceSource(trace).scaled(0.4), _ref_scaled(trace, 0.4))

    def test_burst_thinning(self, trace):
        _bitwise(
            TraceSource(trace).overlay_burst(10.0, 20.0, 0.3, seed=7),
            _ref_burst(trace, 10.0, 20.0, 0.3, seed=7),
        )

    def test_burst_amplify(self, trace):
        _bitwise(
            TraceSource(trace).overlay_burst(15.0, 10.0, 3.0, seed=2),
            _ref_burst(trace, 15.0, 10.0, 3.0, seed=2),
        )

    def test_burst_to_trace_end(self, trace):
        # Window clipped at the trace duration: the flush happens on
        # stream end, not on a post-window arrival.
        _bitwise(
            TraceSource(trace).overlay_burst(50.0, 99.0, 2.0),
            _ref_burst(trace, 50.0, 99.0, 2.0),
        )

    def test_slice(self, trace):
        _bitwise(
            TraceSource(trace).slice(12.0, 40.0), _ref_slice(trace, 12.0, 40.0)
        )

    def test_stacked_transforms(self, trace):
        lazy = TraceSource(trace).scaled(0.8).overlay_burst(5.0, 15.0, 2.5)
        eager = _ref_burst(_ref_scaled(trace, 0.8), 5.0, 15.0, 2.5)
        _bitwise(lazy, eager)

    def test_transform_validation(self, trace):
        src = TraceSource(trace)
        with pytest.raises(ValueError):
            src.scaled(1.5)  # thinning only
        with pytest.raises(ValueError):
            src.overlay_burst(99.0, 5.0, 2.0)  # start outside duration
        with pytest.raises(ValueError):
            src.slice(40.0, 12.0)


class TestConcatSplice:
    def test_concat_matches_trace_concat(self):
        a = get_trace("poisson", base_rate=30.0, duration=20.0, seed=1)
        b = get_trace("constant", base_rate=25.0, duration=10.0, seed=0)
        lazy = ConcatSource([TraceSource(a), TraceSource(b)])
        eager = _ref_concat([a, b])
        _bitwise(lazy, eager)
        assert eager.duration == pytest.approx(30.0)
        # Part two re-based after part one's full duration.
        assert np.all(eager.arrivals[len(a):] >= a.duration)

    def test_concat_roundtrip_order(self):
        a = get_trace("poisson", base_rate=40.0, duration=15.0, seed=3)
        b = get_trace("poisson", base_rate=40.0, duration=15.0, seed=9)
        ab = concat_sources([TraceSource(a), TraceSource(b)])
        # The original parts are recoverable by slicing at the seam.
        assert ab.slice(0.0, a.duration).materialize().arrivals.tobytes() \
            == a.arrivals.tobytes()

    def test_concat_determinism(self):
        a = get_trace("tweet", base_rate=50.0, duration=12.0, seed=5)
        b = get_trace("tweet", base_rate=50.0, duration=12.0, seed=6)
        one = concat_sources([TraceSource(a), TraceSource(b)])
        two = concat_sources([TraceSource(a), TraceSource(b)])
        assert one.materialize().arrivals.tobytes() == \
            two.materialize().arrivals.tobytes()

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            ConcatSource([])

    def test_splice_matches_trace_splice(self):
        base = get_trace("poisson", base_rate=60.0, duration=40.0, seed=2)
        other = get_trace("constant", base_rate=90.0, duration=8.0, seed=0)
        lazy = TraceSource(base).spliced(TraceSource(other), at=16.0)
        eager = _ref_splice(base, other, at=16.0)
        _bitwise(lazy, eager)

    def test_splice_window_content(self):
        base = get_trace("poisson", base_rate=50.0, duration=30.0, seed=8)
        other = get_trace("constant", base_rate=10.0, duration=5.0, seed=0)
        out = TraceSource(base).spliced(TraceSource(other), at=10.0).materialize()
        window = out.arrivals[(out.arrivals >= 10.0) & (out.arrivals < 15.0)]
        assert window.tobytes() == (other.arrivals + 10.0).tobytes()
        # Outside the window the base survives untouched.
        before = out.arrivals[out.arrivals < 10.0]
        assert before.tobytes() == \
            base.arrivals[base.arrivals < 10.0].tobytes()

    def test_splice_extends_duration(self):
        base = get_trace("constant", base_rate=10.0, duration=10.0, seed=0)
        other = get_trace("constant", base_rate=10.0, duration=8.0, seed=0)
        out = TraceSource(base).spliced(TraceSource(other), at=6.0)
        assert out.duration == pytest.approx(14.0)

    def test_splice_bounds_checked(self):
        base = get_trace("constant", base_rate=10.0, duration=10.0, seed=0)
        other = get_trace("constant", base_rate=10.0, duration=2.0, seed=0)
        with pytest.raises(ValueError):
            TraceSource(base).spliced(TraceSource(other), at=11.0)


#: Quarter-second grid: drawn arrivals tie with each other and land
#: exactly on the burst, slice and splice bounds drawn from the same grid.
_GRID = 4.0


@st.composite
def _cut_traces(draw, name: str = "t") -> tuple[Trace, list[int]]:
    """A small trace plus random chunk cut points (repeats and cuts at
    either end make empty chunks)."""
    ticks = draw(st.integers(1, 40))
    duration = ticks / _GRID
    if draw(st.booleans()):
        arrivals = get_trace(
            "poisson", base_rate=50.0, duration=duration,
            seed=draw(st.integers(0, 2**16)),
        ).arrivals
    else:
        grid = draw(st.lists(st.integers(0, ticks), max_size=200))
        arrivals = np.sort(np.asarray(grid, dtype=np.float64)) / _GRID
    cuts = draw(st.lists(st.integers(0, arrivals.size), max_size=8))
    return Trace(name=name, arrivals=arrivals, duration=duration), cuts


def _on_grid(draw, lo: int, hi: int) -> float:
    return draw(st.integers(lo, hi)) / _GRID


class TestChunkBoundaries:
    """Every transform equals its whole-array reference however its input
    is chunked — bursts spanning chunks, slices ending mid-stream and
    splices skipping whole chunks included."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_scaled(self, data):
        trace, cuts = data.draw(_cut_traces())
        factor = data.draw(st.integers(1, 8)) / 8
        _bitwise(
            _CutSource(trace, cuts).scaled(factor), _ref_scaled(trace, factor)
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_overlay_burst(self, data):
        trace, cuts = data.draw(_cut_traces())
        ticks = int(trace.duration * _GRID)
        start = _on_grid(data.draw, 0, ticks - 1)
        length = _on_grid(data.draw, 1, ticks + 4)  # may overrun the end
        factor = data.draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
        seed = data.draw(st.integers(0, 5))
        _bitwise(
            _CutSource(trace, cuts).overlay_burst(start, length, factor, seed),
            _ref_burst(trace, start, length, factor, seed),
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_scaled_then_burst(self, data):
        trace, cuts = data.draw(_cut_traces())
        ticks = int(trace.duration * _GRID)
        factor = data.draw(st.integers(1, 8)) / 8
        start = _on_grid(data.draw, 0, ticks - 1)
        length = _on_grid(data.draw, 1, ticks)
        burst = data.draw(st.sampled_from([0.5, 2.0]))
        _bitwise(
            _CutSource(trace, cuts).scaled(factor).overlay_burst(
                start, length, burst
            ),
            _ref_burst(_ref_scaled(trace, factor), start, length, burst),
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_slice(self, data):
        trace, cuts = data.draw(_cut_traces())
        ticks = int(trace.duration * _GRID)
        lo = data.draw(st.integers(0, ticks - 1))
        start, end = lo / _GRID, _on_grid(data.draw, lo + 1, ticks)
        _bitwise(
            _CutSource(trace, cuts).slice(start, end),
            _ref_slice(trace, start, end),
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_concat(self, data):
        parts = [data.draw(_cut_traces(name)) for name in ("a", "b", "c")]
        _bitwise(
            concat_sources(_CutSource(t, cuts) for t, cuts in parts),
            _ref_concat([t for t, _ in parts]),
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_splice(self, data):
        base, base_cuts = data.draw(_cut_traces("base"))
        other, other_cuts = data.draw(_cut_traces("other"))
        at = _on_grid(data.draw, 0, int(base.duration * _GRID))
        _bitwise(
            _CutSource(base, base_cuts).spliced(
                _CutSource(other, other_cuts), at
            ),
            _ref_splice(base, other, at),
        )


class TestGeneratorSource:
    def test_deterministic_and_reiterable(self):
        src = stream_trace("tweet", base_rate=60.0, duration=40.0, seed=3)
        assert isinstance(src, GeneratorSource)
        first = src.materialize().arrivals
        second = src.materialize().arrivals
        assert first.tobytes() == second.tobytes()

    def test_sorted_within_duration(self):
        src = stream_trace("azure", base_rate=70.0, duration=50.0, seed=1)
        arr = src.materialize().arrivals
        assert np.all(np.diff(arr) >= 0)
        assert arr.size == 0 or (arr[0] >= 0 and arr[-1] < 50.0)

    def test_seed_changes_realization(self):
        a = stream_trace("tweet", base_rate=60.0, duration=30.0, seed=0)
        b = stream_trace("tweet", base_rate=60.0, duration=30.0, seed=1)
        assert a.materialize().arrivals.tobytes() != \
            b.materialize().arrivals.tobytes()

    def test_statistically_matches_envelope(self):
        # Long constant-envelope stream: the realized mean rate should
        # land within a few percent of the declared rate.
        src = stream_trace("poisson", base_rate=100.0, duration=400.0, seed=0)
        assert src.mean_rate == pytest.approx(100.0, rel=0.05)

    def test_constant_stream_is_exact(self):
        src = stream_trace("constant", base_rate=45.0, duration=33.0)
        eager = get_trace("constant", base_rate=45.0, duration=33.0, seed=0)
        _bitwise(src, eager)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            stream_trace("nope", base_rate=10.0, duration=10.0)


class TestFileSource:
    @pytest.fixture()
    def trace(self) -> Trace:
        return get_trace("poisson", base_rate=40.0, duration=25.0, seed=6)

    def test_csv_roundtrip(self, tmp_path, trace):
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        src = FileSource(path)
        assert src.name == trace.name
        assert src.duration == pytest.approx(trace.duration)
        assert src.materialize().arrivals.tobytes() == trace.arrivals.tobytes()

    def test_jsonl_roundtrip(self, tmp_path, trace):
        path = tmp_path / "t.jsonl"
        save_trace_jsonl(trace, path)
        loaded = load_trace_jsonl(path)
        assert loaded.arrivals.tobytes() == trace.arrivals.tobytes()
        src = FileSource(path)
        assert src.materialize().arrivals.tobytes() == trace.arrivals.tobytes()

    def test_digest_pins_content(self, tmp_path, trace):
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        good = trace_file_digest(path)
        FileSource(path, digest=good)  # exact digest accepted
        with pytest.raises(ValueError, match="digest mismatch"):
            FileSource(path, digest="0" * 64)

    def test_unsorted_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# trace=bad duration=10\n1.0\n3.0\n2.0\n")
        src = FileSource(path)
        with pytest.raises(ValueError, match="bad.csv"):
            src.count()

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# trace=bad duration=5\n1.0\n7.0\n")
        src = FileSource(path)
        with pytest.raises(ValueError):
            src.count()

    def test_nan_csv_arrival_rejected(self, tmp_path):
        # nan passes the sorted and range checks (every comparison with
        # it is false), so it needs its own check with the line number.
        path = tmp_path / "bad.csv"
        path.write_text("# trace=bad duration=10\n1.0\nnan\n3.0\n")
        with pytest.raises(ValueError) as err:
            FileSource(path).count()
        assert str(err.value) == f"{path}:3: arrival nan is not finite"

    def test_nan_jsonl_arrival_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "bad", "duration": 10}\n{"t": 1.0}\n'
                        '{"t": NaN}\n')
        with pytest.raises(ValueError) as err:
            FileSource(path).count()
        assert str(err.value) == f"{path}:3: arrival nan is not finite"

    def test_infinite_header_duration_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# trace=bad duration=inf\n1.0\n")
        with pytest.raises(ValueError) as err:
            FileSource(path)
        assert str(err.value) == (
            f"{path}: trace duration inf must be finite and > 0"
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FileSource(tmp_path / "absent.csv")

    def test_duration_fallback_scan(self, tmp_path):
        # Headerless file: duration comes from one scan past the last
        # arrival.
        path = tmp_path / "raw.csv"
        path.write_text("0.5\n1.5\n4.25\n")
        src = FileSource(path)
        assert src.duration == pytest.approx(4.25, abs=1e-6)
        assert src.count() == 3

    def test_transforms_compose_on_files(self, tmp_path, trace):
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        lazy = FileSource(path).scaled(0.5)
        assert lazy.materialize().arrivals.tobytes() == \
            _ref_scaled(trace, 0.5).arrivals.tobytes()


class TestEnsureSource:
    def test_iteration_protocols_match(self):
        trace = get_trace("poisson", base_rate=30.0, duration=10.0, seed=0)
        assert list(trace) == list(TraceSource(trace))


class TestTransformClasses:
    """Direct construction checks for the transform sources."""

    def test_thinned_name_and_duration(self):
        src = ThinnedSource(ConstantSource(10.0, 10.0), 0.5)
        assert src.name == "constantx0.5"
        assert src.duration == 10.0

    def test_burst_name(self):
        src = BurstSource(ConstantSource(10.0, 10.0), 2.0, 3.0, 2.0)
        assert src.name == "constant@2x2"

    def test_slice_rebases(self):
        src = SliceSource(ConstantSource(10.0, 10.0), 2.0, 5.0)
        arr = src.materialize().arrivals
        assert src.duration == pytest.approx(3.0)
        assert arr.min() >= 0 and arr.max() < 3.0

    def test_splice_duration(self):
        base = ConstantSource(10.0, 10.0)
        other = ConstantSource(10.0, 8.0)
        assert SpliceSource(base, other, 6.0).duration == pytest.approx(14.0)
