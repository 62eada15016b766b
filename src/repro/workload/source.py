"""Streaming arrival sources: lazy, re-iterable, flat-memory workloads.

An :class:`ArrivalSource` is an ordered stream of request send-times
generated (or read from disk) in bounded chunks, so a million-request
workload replays in O(chunk) memory instead of one materialized array
plus one pre-scheduled heap event per arrival.  It is the only home of
the workload transforms (thinning, burst overlays, slicing, concat,
splice); an eager :class:`~repro.workload.trace.Trace` is what
:meth:`ArrivalSource.materialize` collects, and :class:`TraceSource`
streams one back.

Sources are *re-iterable* and deterministic: every ``chunks()`` call
restarts generation from the seed, so a source can be counted for
provisioning, then replayed, then counted again, always yielding the
same stream.  A transform's output does not depend on how its input is
cut into chunks: random draws are taken per arrival in stream order
(numpy's PCG64 fills ``random(k1)`` then ``random(k2)`` exactly like
one ``random(k1+k2)`` call), and a burst buffers its whole window
before drawing the extras.

Synthetic generation itself cannot replicate the eager Lewis-Shedler
draw order without materializing, so :class:`GeneratorSource` is a
distinct, explicitly opt-in mode: each fixed window regenerates from
``default_rng([seed, stable_hash(name), window_index])`` — statistically
exact (Poisson processes are independent across disjoint windows) and
seekable, but a different realization than the eager generator.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..simulation.rng import stable_hash
from .trace import Trace

#: Arrivals held in memory per generation step (not a correctness knob).
CHUNK = 8192

#: Seconds of arrivals a :class:`GeneratorSource` draws from one seed.
WINDOW = 16.0

RateFn = Callable[[np.ndarray], np.ndarray]


class ArrivalSource:
    """A lazy, re-iterable stream of sorted arrival times in seconds.

    Subclasses implement :meth:`chunks`, yielding sorted float64 arrays
    that are globally nondecreasing across chunk boundaries.  Everything
    else — iteration, counting, materialization, composition — is
    shared.
    """

    def __init__(self, name: str, duration: float) -> None:
        if not 0 < duration < math.inf:
            raise ValueError(
                f"source duration must be finite and > 0, got {duration!r}"
            )
        self.name = name
        self.duration = float(duration)
        self._count: int | None = None

    def chunks(self) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[float]:
        for chunk in self.chunks():
            yield from chunk.tolist()

    def count(self) -> int:
        """Total arrivals (one streaming pass, cached — sources are
        deterministic, so the count never changes)."""
        if self._count is None:
            self._count = sum(int(c.size) for c in self.chunks())
        return self._count

    @property
    def mean_rate(self) -> float:
        """Average requests/second (triggers one counting pass)."""
        return self.count() / self.duration

    def materialize(self) -> Trace:
        """Collect the whole stream into an eager :class:`Trace` (O(n))."""
        parts = list(self.chunks())
        arrivals = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        )
        return Trace(name=self.name, arrivals=arrivals, duration=self.duration)

    # -- composable transforms --------------------------------------------

    def scaled(self, factor: float) -> "ArrivalSource":
        """Rate thinning (see :class:`ThinnedSource`)."""
        return ThinnedSource(self, factor)

    def overlay_burst(
        self, start: float, length: float, factor: float, seed: int = 0
    ) -> "ArrivalSource":
        """Rate multiplied by ``factor`` over a window (see
        :class:`BurstSource`)."""
        return BurstSource(self, start, length, factor, seed=seed)

    def slice(self, start: float, end: float) -> "ArrivalSource":
        """Sub-stream covering [start, end), re-based to t=0."""
        return SliceSource(self, start, end)

    def spliced(self, other: "ArrivalSource", at: float) -> "ArrivalSource":
        """Replace [at, at+other.duration) with ``other``'s stream."""
        return SpliceSource(self, other, at)


class TraceSource(ArrivalSource):
    """An eager :class:`Trace` viewed through the streaming protocol."""

    def __init__(self, trace: Trace) -> None:
        super().__init__(trace.name, trace.duration)
        self.trace = trace
        self._count = len(trace)

    def chunks(self) -> Iterator[np.ndarray]:
        arrivals = self.trace.arrivals
        for lo in range(0, arrivals.size, CHUNK):
            yield arrivals[lo:lo + CHUNK]


class ConstantSource(ArrivalSource):
    """Perfectly regular arrivals; byte-identical to ``constant_trace``."""

    def __init__(self, rate: float, duration: float, name: str = "constant") -> None:
        if rate <= 0 or duration <= 0:
            raise ValueError("rate and duration must be > 0")
        super().__init__(name, duration)
        self.rate = float(rate)
        self._n = int(rate * duration)
        self._count = self._n

    def chunks(self) -> Iterator[np.ndarray]:
        for lo in range(0, self._n, CHUNK):
            hi = min(lo + CHUNK, self._n)
            yield np.arange(lo, hi) / self.rate


class GeneratorSource(ArrivalSource):
    """Windowed inhomogeneous-Poisson arrivals in O(window) memory.

    Window ``w`` (covering ``[w*WINDOW, (w+1)*WINDOW)``) draws its
    candidate count, positions and thinning from
    ``default_rng([seed, stable_hash(name), w])`` — every window is
    independent of the rest of the stream, so the source is re-iterable,
    seekable and embarrassingly shardable by time.  Statistically this
    is the same inhomogeneous Poisson process the eager generators
    sample (disjoint windows of a Poisson process are independent), but
    a *different realization* than the eager Lewis-Shedler draw order —
    which is why streaming generation is opt-in per scenario.
    """

    def __init__(
        self,
        rate_fn: RateFn,
        duration: float,
        peak_rate: float,
        seed: int,
        name: str,
    ) -> None:
        if peak_rate <= 0:
            raise ValueError("peak_rate must be > 0")
        super().__init__(name, duration)
        self.rate_fn = rate_fn
        self.peak_rate = float(peak_rate)
        self.seed = int(seed)

    def chunks(self) -> Iterator[np.ndarray]:
        key = stable_hash(self.name)
        n_windows = int(np.ceil(self.duration / WINDOW))
        for w in range(n_windows):
            start = w * WINDOW
            end = min(start + WINDOW, self.duration)
            rng = np.random.default_rng([self.seed, key, w])
            n = rng.poisson(self.peak_rate * (end - start))
            times = np.sort(rng.uniform(start, end, size=n))
            lam = self.rate_fn(times)
            if np.any(lam > self.peak_rate * (1 + 1e-9)):
                raise ValueError(
                    "rate_fn exceeds peak_rate; thinning would be biased"
                )
            keep = rng.random(n) < lam / self.peak_rate
            out = times[keep]
            if out.size:
                yield out


class ThinnedSource(ArrivalSource):
    """Rate scaled by ``factor <= 1``: each arrival survives with
    probability ``factor``.

    Thinning keeps the temporal shape; rate up-scaling belongs to
    generation time.  The draws come from a stable digest of the input
    name, never ``hash()`` (salted per process), so sweep worker
    processes thin identically.
    """

    def __init__(self, source: ArrivalSource, factor: float) -> None:
        if factor <= 0:
            raise ValueError("factor must be > 0")
        if factor > 1:
            raise ValueError(
                "rate up-scaling must be done at generation time; "
                "thinning only supports factor <= 1"
            )
        super().__init__(f"{source.name}x{factor:g}", source.duration)
        self.source = source
        self.factor = float(factor)

    def chunks(self) -> Iterator[np.ndarray]:
        # Per-chunk random() calls consume the identical PCG64 stream one
        # big call would, so chunking never changes which arrivals survive.
        rng = np.random.default_rng(stable_hash(self.source.name) % 2**32)
        for chunk in self.source.chunks():
            out = chunk[rng.random(chunk.size) < self.factor]
            if out.size:
                yield out


class BurstSource(ArrivalSource):
    """Arrival rate multiplied by ``factor`` over ``[start, start+length)``.

    Models the paper's "unpredictable events".  ``factor > 1`` superposes
    extra uniform arrivals on the window so its rate lands at roughly
    ``factor`` times the original; it must know the window's arrival
    count before drawing them, so the window's own arrivals are buffered
    — the only transform whose memory scales with a declared burst
    window rather than the chunk size.  ``factor < 1`` thins the window
    chunk by chunk, drawing one random per arrival in and out of the
    window.  Deterministic in ``seed`` and the input name, so
    declaratively composed workloads replay identically across sweep
    worker processes.
    """

    def __init__(
        self,
        source: ArrivalSource,
        start: float,
        length: float,
        factor: float,
        seed: int = 0,
    ) -> None:
        if length <= 0:
            raise ValueError("burst length must be > 0")
        if factor <= 0:
            raise ValueError("burst factor must be > 0")
        if not 0 <= start < source.duration:
            raise ValueError(
                f"burst start {start} outside trace duration {source.duration}"
            )
        super().__init__(
            f"{source.name}@{start:g}x{factor:g}", source.duration
        )
        self.source = source
        self.start = float(start)
        self.end = min(start + length, source.duration)
        self.factor = float(factor)
        self.seed = int(seed)

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(
            (stable_hash(f"{self.source.name}|burst") + self.seed) % 2**32
        )

    def chunks(self) -> Iterator[np.ndarray]:
        rng = self._rng()
        if self.factor < 1:
            for chunk in self.source.chunks():
                r = rng.random(chunk.size)
                in_window = (chunk >= self.start) & (chunk < self.end)
                out = chunk[~in_window | (r < self.factor)]
                if out.size:
                    yield out
            return
        window_parts: list[np.ndarray] = []
        flushed = False
        for chunk in self.source.chunks():
            before = chunk[chunk < self.start]
            if before.size:
                yield before
            in_window = chunk[(chunk >= self.start) & (chunk < self.end)]
            if in_window.size:
                window_parts.append(in_window)
            after = chunk[chunk >= self.end]
            if after.size:
                if not flushed:
                    yield from self._flush(rng, window_parts)
                    flushed = True
                yield after
        if not flushed:
            yield from self._flush(rng, window_parts)

    def _flush(
        self, rng: np.random.Generator, parts: list[np.ndarray]
    ) -> Iterator[np.ndarray]:
        in_window = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
        )
        n_extra = rng.poisson((self.factor - 1.0) * int(in_window.size))
        extra = rng.uniform(self.start, self.end, size=n_extra)
        merged = np.sort(np.concatenate([in_window, extra]))
        parts.clear()
        if merged.size:
            yield merged


class SliceSource(ArrivalSource):
    """Sub-stream covering ``[start, end)``, re-based to t=0."""

    def __init__(self, source: ArrivalSource, start: float, end: float) -> None:
        if not 0 <= start < end <= source.duration:
            raise ValueError(f"invalid slice [{start}, {end})")
        super().__init__(
            f"{source.name}[{start:g}:{end:g}]", end - start
        )
        self.source = source
        self.start = float(start)
        self.end = float(end)

    def chunks(self) -> Iterator[np.ndarray]:
        for chunk in self.source.chunks():
            if chunk.size and chunk[0] >= self.end:
                return  # sorted stream: nothing further can fall in range
            out = chunk[(chunk >= self.start) & (chunk < self.end)]
            if out.size:
                yield out - self.start


class ConcatSource(ArrivalSource):
    """End-to-end concatenation; each source re-based after the previous
    one's full duration (not its last arrival), so quiet tails are kept."""

    def __init__(
        self, sources: Sequence[ArrivalSource], name: str | None = None
    ) -> None:
        sources = list(sources)
        if not sources:
            raise ValueError("concat needs at least one source")
        super().__init__(
            name or "+".join(s.name for s in sources),
            sum(s.duration for s in sources),
        )
        self.sources = sources

    def chunks(self) -> Iterator[np.ndarray]:
        offset = 0.0
        for source in self.sources:
            for chunk in source.chunks():
                yield chunk + offset
            offset += source.duration


class SpliceSource(ArrivalSource):
    """Replace ``[at, at + other.duration)`` of ``base`` with ``other``.

    Drops a recorded incident (or any other stream) into a steady
    baseline: ``base`` arrivals inside the window are discarded,
    ``other``'s shift to start at ``at``, and the duration extends if
    the splice runs past the end.  No RNG.  The base stream is iterated
    twice (once for the prefix, once for the suffix) — sources are
    re-iterable, so this stays flat-memory.
    """

    def __init__(
        self, base: ArrivalSource, other: ArrivalSource, at: float
    ) -> None:
        if not 0 <= at <= base.duration:
            raise ValueError(
                f"splice point {at} outside base duration {base.duration}"
            )
        self._end = at + other.duration
        super().__init__(
            f"{base.name}<-{other.name}@{at:g}",
            max(base.duration, self._end),
        )
        self.base = base
        self.other = other
        self.at = float(at)

    def chunks(self) -> Iterator[np.ndarray]:
        for chunk in self.base.chunks():
            if chunk.size and chunk[0] >= self.at:
                break
            out = chunk[chunk < self.at]
            if out.size:
                yield out
        for chunk in self.other.chunks():
            if chunk.size:
                yield chunk + self.at
        for chunk in self.base.chunks():
            if chunk.size and chunk[-1] < self._end:
                continue
            out = chunk[chunk >= self._end]
            if out.size:
                yield out


class FileSource(ArrivalSource):
    """Chunked replay of an on-disk trace file (CSV or JSONL).

    The file must be sorted (validated while streaming — production
    arrival logs are); an optional sha256 ``digest`` pins the exact
    bytes, which is how file-backed :class:`~repro.experiments.scenario.
    TraceSpec`\\ s stay frozen and cache-fingerprintable.  ``duration``
    falls back to the file header, then to one scan for the last
    timestamp.
    """

    def __init__(
        self,
        path: str | Path,
        name: str | None = None,
        duration: float | None = None,
        digest: str | None = None,
    ) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"trace file not found: {self.path}")
        if digest is not None:
            actual = trace_file_digest(self.path)
            if actual != digest:
                raise ValueError(
                    f"trace file {self.path} digest mismatch: expected "
                    f"{digest}, file has {actual} — the file changed since "
                    "the scenario was declared"
                )
        self.digest = digest
        header_name, header_duration = self._read_header()
        if duration is None:
            duration = header_duration
        if duration is None:
            last = None
            for chunk in self._raw_chunks(validate=False):
                if chunk.size:
                    last = float(chunk[-1])
            if last is None:
                raise ValueError(f"trace file {self.path} holds no arrivals")
            duration = last + 1e-9
        if not 0 < duration < math.inf:
            raise ValueError(
                f"{self.path}: trace duration {duration!r} must be finite "
                "and > 0"
            )
        super().__init__(
            name or header_name or self.path.stem, float(duration)
        )

    def _is_jsonl(self) -> bool:
        return self.path.suffix.lower() in (".jsonl", ".ndjson")

    def _read_header(self) -> tuple[str | None, float | None]:
        name: str | None = None
        duration: float | None = None
        with self.path.open() as fh:
            first = fh.readline().strip()
        if not first:
            return None, None
        if self._is_jsonl():
            meta = json.loads(first)
            if isinstance(meta, dict) and "t" not in meta:
                name = str(meta["name"]) if "name" in meta else None
                if meta.get("duration") is not None:
                    duration = float(meta["duration"])
        elif first.startswith("#"):
            for token in first[1:].split():
                if token.startswith("duration="):
                    duration = float(token.split("=", 1)[1])
                elif token.startswith("trace="):
                    name = token.split("=", 1)[1]
        return name, duration

    def _parse(self, line: str, lineno: int) -> float | None:
        if self._is_jsonl():
            value = json.loads(line)
            if isinstance(value, dict):
                if "t" not in value:
                    if lineno == 1:  # the meta header
                        return None
                    raise ValueError(
                        f"{self.path}:{lineno}: arrival object missing 't'"
                    )
                return float(value["t"])
            return float(value)
        if line.startswith("#"):
            return None
        return float(line)

    def _raw_chunks(self, validate: bool = True) -> Iterator[np.ndarray]:
        buf: list[float] = []
        last = -float("inf")
        with self.path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                t = self._parse(line, lineno)
                if t is None:
                    continue
                if not math.isfinite(t):
                    raise ValueError(
                        f"{self.path}:{lineno}: arrival {t!r} is not finite"
                    )
                if validate:
                    if t < last:
                        raise ValueError(
                            f"{self.path}:{lineno}: arrivals not sorted "
                            f"({t!r} after {last!r}); sort the file or use "
                            "load_trace_csv/load_trace_jsonl to materialize"
                        )
                    if t < 0 or t > self.duration:
                        raise ValueError(
                            f"{self.path}:{lineno}: arrival {t!r} outside "
                            f"[0, {self.duration}]"
                        )
                    last = t
                buf.append(t)
                if len(buf) >= CHUNK:
                    yield np.asarray(buf, dtype=np.float64)
                    buf = []
        if buf:
            yield np.asarray(buf, dtype=np.float64)

    def chunks(self) -> Iterator[np.ndarray]:
        return self._raw_chunks(validate=True)


def concat_sources(
    sources: Iterable[ArrivalSource], name: str | None = None
) -> ConcatSource:
    """Concatenate sources end to end (see :class:`ConcatSource`)."""
    return ConcatSource(list(sources), name=name)


def trace_file_digest(path: str | Path) -> str:
    """sha256 hex digest of a trace file's bytes (streamed)."""
    import hashlib

    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
