"""Synthetic trace generators matched to the paper's workload shapes.

The paper replays the Wikipedia access trace (stable, periodic; rate CV
about 0.47), the Twitter access trace (bursty; CV about 1.0, including a
sudden ~2x rate step around t=850 s that drives Figure 2d) and the Azure
Functions trace (highly bursty, spiky; CV about 1.3).  We cannot ship those
datasets, so each generator produces an inhomogeneous-Poisson arrival
process whose *rate envelope* reproduces the published characteristics:
mean level, periodicity, burst amplitude and burstiness (CV band).

All generators take an explicit seed and are deterministic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .trace import Trace

RateFn = Callable[[np.ndarray], np.ndarray]

#: Name -> generator registry.  Every generator accepts ``base_rate``,
#: ``duration``, ``seed`` and ``name`` keywords so scenarios can declare a
#: trace as a name plus keyword arguments instead of a live :class:`Trace`.
TRACES: dict[str, Callable[..., Trace]] = {}


def register_trace(name: str) -> Callable[[Callable[..., Trace]], Callable[..., Trace]]:
    """Decorator registering a trace generator under ``name``.

    Mirrors :func:`repro.pipeline.applications.register_application` and
    :func:`repro.policies.registry.register_policy` — the three registries
    that together make a declarative :class:`~repro.experiments.scenario.
    Scenario` resolvable from plain strings in any process.
    """

    def decorate(fn: Callable[..., Trace]) -> Callable[..., Trace]:
        if name in TRACES:
            raise ValueError(f"trace {name!r} already registered")
        TRACES[name] = fn
        return fn

    return decorate


def known_traces() -> list[str]:
    """All registered trace generator names."""
    return sorted(TRACES)


def arrivals_from_rate(
    rate_fn: RateFn,
    duration: float,
    peak_rate: float,
    seed: int,
    name: str,
) -> Trace:
    """Inhomogeneous Poisson arrivals via Lewis-Shedler thinning."""
    if duration <= 0 or peak_rate <= 0:
        raise ValueError("duration and peak_rate must be > 0")
    rng = np.random.default_rng(seed)
    # Candidate homogeneous process at the peak rate, generated in blocks.
    n_expected = int(peak_rate * duration * 1.2) + 16
    gaps = rng.exponential(1.0 / peak_rate, size=n_expected)
    times = np.cumsum(gaps)
    while times.size and times[-1] < duration:
        more = rng.exponential(1.0 / peak_rate, size=n_expected // 2 + 16)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    times = times[times < duration]
    # Thin by the instantaneous rate.
    lam = rate_fn(times)
    if np.any(lam > peak_rate * (1 + 1e-9)):
        raise ValueError("rate_fn exceeds peak_rate; thinning would be biased")
    keep = rng.random(times.size) < lam / peak_rate
    return Trace(name=name, arrivals=times[keep], duration=duration)


def poisson_trace(
    rate: float, duration: float, seed: int = 0, name: str = "poisson"
) -> Trace:
    """Constant-rate Poisson arrivals."""
    rate_fn, peak = _poisson_envelope(rate, duration, seed)
    return arrivals_from_rate(rate_fn, duration, peak, seed, name)


def constant_trace(
    rate: float, duration: float, name: str = "constant"
) -> Trace:
    """Perfectly regular arrivals at ``rate`` (deterministic spacing)."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be > 0")
    n = int(rate * duration)
    return Trace(name=name, arrivals=np.arange(n) / rate, duration=duration)


#: Name -> rate-envelope builder ``(base_rate, duration, seed, **kwargs)
#: -> (rate_fn, peak_rate)``.  The envelope is the deterministic part of
#: a generator (its shape parameters draw from their own seeded rng);
#: eager generation samples it via Lewis-Shedler thinning, streaming
#: generation via windowed regeneration — one envelope, two samplers.
ENVELOPES: dict[str, Callable[..., tuple[RateFn, float]]] = {}


def _wiki_envelope(
    base_rate: float, duration: float, seed: int
) -> tuple[RateFn, float]:
    rng = np.random.default_rng(seed + 1)
    phase = rng.uniform(0, 2 * np.pi)
    period = duration / 1.5

    def rate(t: np.ndarray) -> np.ndarray:
        swing = 0.45 * np.sin(2 * np.pi * t / period + phase)
        ripple = 0.10 * np.sin(2 * np.pi * t / (period / 7.3) + 2 * phase)
        return base_rate * np.clip(1.0 + swing + ripple, 0.05, None)

    return rate, base_rate * (1.0 + 0.45 + 0.10) * 1.01


ENVELOPES["wiki"] = _wiki_envelope


@register_trace("wiki")
def wiki_trace(
    base_rate: float = 100.0,
    duration: float = 600.0,
    seed: int = 0,
    name: str = "wiki",
) -> Trace:
    """Wikipedia-like trace: smooth periodic swings, low burstiness.

    Rate oscillates between roughly 0.45x and 2.1x the base rate over long
    periods with mild noise, giving a windowed-rate CV near 0.47 (the value
    the paper reports for its wiki trace).
    """
    rate, peak = _wiki_envelope(base_rate, duration, seed)
    return arrivals_from_rate(rate, duration, peak, seed, name)


@register_trace("tweet")
def tweet_trace(
    base_rate: float = 100.0,
    duration: float = 600.0,
    seed: int = 0,
    name: str = "tweet",
    burst_at: float | None = None,
    burst_factor: float = 2.0,
    burst_len: float | None = None,
) -> Trace:
    """Twitter-like trace: moderate noise plus a sudden rate step burst.

    Reproduces the paper's key feature (Figure 2d / Figure 10): the input
    rate roughly doubles abruptly (default at ~70% through the trace) and
    stays elevated for a sustained window, on top of bursty fluctuations
    (windowed-rate CV near 1.0).
    """
    rate, peak = _tweet_envelope(
        base_rate, duration, seed,
        burst_at=burst_at, burst_factor=burst_factor, burst_len=burst_len,
    )
    return arrivals_from_rate(rate, duration, peak, seed, name)


def _tweet_envelope(
    base_rate: float,
    duration: float,
    seed: int,
    burst_at: float | None = None,
    burst_factor: float = 2.0,
    burst_len: float | None = None,
) -> tuple[RateFn, float]:
    rng = np.random.default_rng(seed + 2)
    burst_at = duration * 0.7 if burst_at is None else burst_at
    burst_len = duration * 0.12 if burst_len is None else burst_len
    # Bursty modulating noise: lognormal steps held for ~5 s.
    n_steps = max(2, int(duration / 5.0) + 1)
    steps = rng.lognormal(mean=-0.045, sigma=0.30, size=n_steps)

    def rate(t: np.ndarray) -> np.ndarray:
        idx = np.minimum((t / 5.0).astype(int), n_steps - 1)
        level = base_rate * steps[idx]
        in_burst = (t >= burst_at) & (t < burst_at + burst_len)
        return np.where(in_burst, level * burst_factor, level)

    return rate, base_rate * float(steps.max()) * burst_factor * 1.01


ENVELOPES["tweet"] = _tweet_envelope


@register_trace("azure")
def azure_trace(
    base_rate: float = 100.0,
    duration: float = 600.0,
    seed: int = 0,
    name: str = "azure",
) -> Trace:
    """Azure-Functions-like trace: spiky, the burstiest of the three.

    Short exponential-duration spikes of 1.6-2.6x amplitude arrive on top
    of a noisy baseline; the paper's azure trace peaks at roughly 1.5x its
    mean rate (Figure 10, left).
    """
    rate, peak = _azure_envelope(base_rate, duration, seed)
    return arrivals_from_rate(rate, duration, peak, seed, name)


def _azure_envelope(
    base_rate: float, duration: float, seed: int
) -> tuple[RateFn, float]:
    rng = np.random.default_rng(seed + 3)
    n_steps = max(2, int(duration / 3.0) + 1)
    steps = rng.lognormal(mean=-0.061, sigma=0.35, size=n_steps)
    # Poisson-arriving spikes.
    n_spikes = max(1, int(duration / 45.0))
    spike_times = np.sort(rng.uniform(0, duration * 0.9, size=n_spikes))
    spike_lens = rng.exponential(6.0, size=n_spikes) + 2.0
    spike_amps = rng.uniform(1.6, 2.6, size=n_spikes)

    def rate(t: np.ndarray) -> np.ndarray:
        idx = np.minimum((t / 3.0).astype(int), n_steps - 1)
        level = base_rate * steps[idx]
        boost = np.ones_like(t)
        for st, ln, amp in zip(spike_times, spike_lens, spike_amps):
            mask = (t >= st) & (t < st + ln)
            boost = np.where(mask, np.maximum(boost, amp), boost)
        return level * boost

    return rate, base_rate * float(steps.max()) * 2.6 * 1.01


ENVELOPES["azure"] = _azure_envelope


def step_trace(
    rates: list[tuple[float, float]],
    duration: float,
    seed: int = 0,
    name: str = "step",
) -> Trace:
    """Piecewise-constant-rate Poisson trace.

    ``rates`` is a list of (start_time, rate) change-points; the first entry
    must start at 0.  Used by the stress test (Figure 14a) and unit tests.
    """
    rate, peak = _step_envelope(1.0, duration, seed, rates=rates)
    return arrivals_from_rate(rate, duration, peak, seed, name)


# Synthetic baselines registered under the same pattern as the paper's
# traces, adapted to the uniform (base_rate, duration, seed, name) keyword
# signature so scenario files can declare them by name.
@register_trace("poisson")
def _poisson_by_name(
    base_rate: float, duration: float, seed: int = 0, name: str = "poisson"
) -> Trace:
    return poisson_trace(rate=base_rate, duration=duration, seed=seed, name=name)


@register_trace("constant")
def _constant_by_name(
    base_rate: float, duration: float, seed: int = 0, name: str = "constant"
) -> Trace:
    # Deterministic spacing: the seed is accepted for interface uniformity.
    return constant_trace(rate=base_rate, duration=duration, name=name)


@register_trace("step")
def _step_by_name(
    base_rate: float,
    duration: float,
    seed: int = 0,
    name: str = "step",
    rates: list[tuple[float, float]] | None = None,
) -> Trace:
    """Piecewise-constant trace; ``rates`` entries scale ``base_rate``.

    Declared as ``(start_time, rate_multiplier)`` change-points so the same
    step shape calibrates with any base rate.  Defaults to a flat 1.0x.
    """
    rate, peak = _step_envelope(base_rate, duration, seed, rates=rates)
    return arrivals_from_rate(rate, duration, peak, seed, name)


def _poisson_envelope(
    base_rate: float, duration: float, seed: int
) -> tuple[RateFn, float]:
    return (lambda t: np.full_like(t, base_rate)), base_rate


ENVELOPES["poisson"] = _poisson_envelope


def _step_envelope(
    base_rate: float,
    duration: float,
    seed: int,
    rates: list[tuple[float, float]] | None = None,
) -> tuple[RateFn, float]:
    shape = rates if rates is not None else [(0.0, 1.0)]
    if not shape or shape[0][0] != 0:
        raise ValueError("rates must start with a change-point at t=0")
    starts = np.array([float(s) for s, _ in shape])
    levels = np.array([float(m) * base_rate for _, m in shape])
    if np.any(np.diff(starts) <= 0):
        raise ValueError("change-points must be strictly increasing")

    def rate(t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(starts, t, side="right") - 1
        return levels[idx]

    return rate, float(levels.max())


ENVELOPES["step"] = _step_envelope


def get_trace(
    name: str, base_rate: float, duration: float, seed: int = 0, **kwargs
) -> Trace:
    """Build a registered trace; extra keywords reach the generator."""
    try:
        gen = TRACES[name]
    except KeyError:
        raise KeyError(f"unknown trace {name!r}; known: {sorted(TRACES)}") from None
    return gen(base_rate=base_rate, duration=duration, seed=seed, name=name, **kwargs)


def stream_trace(
    name: str,
    base_rate: float,
    duration: float,
    seed: int = 0,
    **kwargs,
):
    """Build a registered trace as a lazy :class:`~repro.workload.source.
    ArrivalSource` instead of a materialized :class:`Trace`.

    ``constant`` streams byte-identically to its eager form (no RNG);
    every envelope-backed generator (``poisson``/``wiki``/``tweet``/
    ``azure``/``step``) streams via windowed regeneration — the same
    inhomogeneous Poisson process, a different (seed-deterministic)
    realization.  Registered generators without an envelope fall back to
    materializing once and streaming the result, so the contract is
    total over the registry.
    """
    from .source import ConstantSource, GeneratorSource, TraceSource

    if name == "constant":
        return ConstantSource(rate=base_rate, duration=duration, name=name)
    envelope = ENVELOPES.get(name)
    if envelope is None:
        if name not in TRACES:
            raise KeyError(
                f"unknown trace {name!r}; known: {sorted(TRACES)}"
            )
        return TraceSource(
            get_trace(name, base_rate, duration, seed=seed, **kwargs)
        )
    rate_fn, peak = envelope(
        base_rate=base_rate, duration=duration, seed=seed, **kwargs
    )
    return GeneratorSource(rate_fn, duration, peak, seed=seed, name=name)
