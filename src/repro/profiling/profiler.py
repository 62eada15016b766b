"""Offline model profiling (the paper's pre-startup step, §5.1).

Before startup PARD profiles each model's execution duration and
throughput at every batch size.  On real hardware this means timing
forward passes; here the "hardware" is a :class:`SyntheticGpu` whose true
latency curve is hidden behind measurement noise, and the profiler
recovers an affine :class:`~repro.pipeline.profiles.ModelProfile` from
repeated timings by least squares — the same artifact the real system's
profiling step produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.batch_wait import linear_quantile
from ..pipeline.profiles import ModelProfile


@dataclass(frozen=True)
class SyntheticGpu:
    """Ground-truth device model: affine latency plus lognormal jitter."""

    base: float
    per_item: float
    jitter: float = 0.03  # multiplicative noise sigma
    max_batch: int = 32

    def execute(self, batch_size: int, rng: np.random.Generator) -> float:
        """One timed 'forward pass' at ``batch_size`` (seconds)."""
        if not 1 <= batch_size <= self.max_batch:
            raise ValueError(f"batch size {batch_size} out of range")
        truth = self.base + self.per_item * batch_size
        return float(truth * rng.lognormal(0.0, self.jitter))


@dataclass(frozen=True)
class ProfileMeasurement:
    """Timing samples for one batch size."""

    batch_size: int
    samples: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def p95(self) -> float:
        return linear_quantile(np.array(self.samples, dtype=float), 0.95)


@dataclass
class OfflineProfiler:
    """Measures a device across batch sizes and fits a profile."""

    repeats: int = 30
    warmup: int = 3
    seed: int = 0
    measurements: list[ProfileMeasurement] = field(default_factory=list)

    def measure(
        self, gpu: SyntheticGpu, batch_sizes: list[int] | None = None
    ) -> list[ProfileMeasurement]:
        """Time ``repeats`` executions per batch size (after warmup)."""
        if self.repeats < 2:
            raise ValueError("need at least two repeats per batch size")
        rng = np.random.default_rng(self.seed)
        sizes = batch_sizes or self._default_sizes(gpu.max_batch)
        out = []
        for b in sizes:
            for _ in range(self.warmup):
                gpu.execute(b, rng)
            samples = tuple(gpu.execute(b, rng) for _ in range(self.repeats))
            out.append(ProfileMeasurement(batch_size=b, samples=samples))
        self.measurements = out
        return out

    @staticmethod
    def _default_sizes(max_batch: int) -> list[int]:
        sizes = [1, 2, 4, 8, 16, 32, 64]
        return [s for s in sizes if s <= max_batch] or [1]

    def fit(self, name: str, max_batch: int | None = None) -> ModelProfile:
        """Least-squares affine fit over the measured means."""
        if len(self.measurements) < 2:
            raise ValueError("measure at least two batch sizes before fitting")
        xs = np.array([m.batch_size for m in self.measurements], dtype=float)
        ys = np.array([m.mean for m in self.measurements])
        per_item, base = np.polyfit(xs, ys, 1)
        if base <= 0:
            # Ill-conditioned fit (tiny base swallowed by noise): clamp to
            # the smallest plausible overhead rather than a nonsensical
            # negative intercept.
            base = float(ys.min()) * 0.1
        if per_item <= 0:
            raise ValueError(
                "fitted per-item cost is not positive; measurement noise "
                "exceeds the batch-size signal"
            )
        return ModelProfile(
            name=name,
            base=float(base),
            per_item=float(per_item),
            max_batch=max_batch or int(xs.max()),
        )

    def fit_error(self, gpu: SyntheticGpu, profile: ModelProfile) -> float:
        """Max relative error of the fit against the true curve."""
        errors = []
        for b in range(1, profile.max_batch + 1):
            truth = gpu.base + gpu.per_item * b
            errors.append(abs(profile.duration(b) - truth) / truth)
        return float(max(errors))


def profile_model(
    name: str,
    gpu: SyntheticGpu,
    repeats: int = 30,
    seed: int = 0,
) -> ModelProfile:
    """One-call convenience: measure a device and fit its profile."""
    profiler = OfflineProfiler(repeats=repeats, seed=seed)
    profiler.measure(gpu)
    return profiler.fit(name, max_batch=gpu.max_batch)
