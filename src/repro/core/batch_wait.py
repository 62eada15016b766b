"""Batch-wait-time estimation (the "sweet spot" w_k of §4.2).

A request's batch wait at one module is uniform on [0, d] (Figure 3b);
the *aggregated* wait over the remaining modules is a sum of weakly
correlated uniforms, which concentrates around half its support as modules
cascade (Figure 6, central limit theorem).  PARD estimates

    w_k = F^{-1}_{k+1 -> N}(lambda)

the lambda-quantile of that aggregated distribution, as its forward batch
wait estimate: lambda = 0 reproduces the PARD-lower ablation (w = 0),
lambda = 1 reproduces PARD-upper (w = sum d_i), and the default lambda = 0.1
balances mis-kept against mis-dropped requests.

Two estimators are provided:

* a closed-form Irwin-Hall model (equal-duration analysis; used to verify
  the paper's printed quantiles 0.31/0.28/0.22/0.10 in tests), and
* an empirical sampler that draws per-module waits from observed runtime
  samples when available, else uniform(0, d_i) — this is what the State
  Planner uses online (complexity O(M * (N - k + 1)), M = 10,000 default).

The sampler reads its lambda-quantile with :func:`linear_quantile`, which
is ``np.quantile(values, q)`` (the default ``"linear"`` method) without
the call's set-up: it partitions the sample array in place at the order
statistics numpy reads and repeats numpy's arithmetic, so the result is
numpy's to the last bit (``tests/core/test_batch_wait.py`` checks this
against ``np.quantile`` itself).  The latency percentiles of
:mod:`repro.metrics.analysis` and the profiler's p95 use it too.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


def linear_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` for a 1-d float64 array and ``q`` in [0, 1].

    Reorders ``values`` in place.  Mirrors numpy's ``"linear"`` method
    step by step: the virtual index ``v = (n - 1) * q``; its neighbours
    ``floor(v)`` and ``floor(v) + 1``, both ``-1`` (the maximum) once ``v
    >= n - 1``; one ``partition`` at numpy's own ``kth`` set ``{0, -1} |
    {neighbours}``, so equal values (``0.0`` and ``-0.0``) land where
    numpy's land; ``gamma = v - floor(v)``; the lerp ``a + (b - a) *
    gamma``, or ``b - (b - a) * (1 - gamma)`` when ``gamma >= 0.5``; and
    a NaN anywhere, which the partition sorts last, is the result.
    """
    n = len(values)
    v = (n - 1) * float(q)
    if v >= n - 1:
        lo = hi = -1
    else:
        lo = math.floor(v)
        hi = lo + 1
    values.partition(sorted({0, -1, lo, hi}))
    last = float(values[-1])
    if math.isnan(last):
        return last
    a = float(values[lo])
    b = float(values[hi])
    gamma = v - lo
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def irwin_hall_cdf(x: float, n: int) -> float:
    """CDF of the sum of ``n`` independent Uniform(0, 1) variables."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if x <= 0:
        return 0.0
    if x >= n:
        return 1.0
    total = 0.0
    for k in range(int(math.floor(x)) + 1):
        total += (-1) ** k * math.comb(n, k) * (x - k) ** n
    return total / math.factorial(n)


def irwin_hall_quantile(p: float, n: int, tol: float = 1e-10) -> float:
    """Inverse CDF of the Irwin-Hall(n) distribution via bisection."""
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if p == 0:
        return 0.0
    if p == 1:
        return float(n)
    lo, hi = 0.0, float(n)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if irwin_hall_cdf(mid, n) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def aggregated_wait_quantile_uniform(
    durations: list[float], lam: float
) -> float:
    """lambda-quantile of sum of independent Uniform(0, d_i) waits.

    For equal durations this is exactly ``d * IrwinHall_n^{-1}(lambda)``;
    for unequal durations we use a normal approximation refined by Monte
    Carlo only in the empirical estimator — here the equal-d fast path plus
    a moment-matched Irwin-Hall rescaling keeps the call cheap and exact in
    the common (profiled, similar-duration) case.
    """
    if not durations:
        return 0.0
    if any(d < 0 for d in durations):
        raise ValueError("durations must be >= 0")
    n = len(durations)
    # Sums left to right, as explicit loops: from Python 3.12 on, sum()
    # over floats is compensated and can give other last bits.
    total = squares = 0.0
    for d in durations:
        total += d
        squares += d * d
    if total == 0:
        return 0.0
    d_equal = total / n
    if all(abs(d - d_equal) < 1e-12 for d in durations):
        return d_equal * irwin_hall_quantile(lam, n)
    # Moment-matched Irwin-Hall: match mean and variance of the true sum.
    mean = total / 2
    var = squares / 12.0
    # An Irwin-Hall(m) scaled by s has mean s*m/2 and var s^2*m/12.
    m = max(1, round((mean * mean * 4) / (12.0 * var)))
    s = mean * 2 / m
    q = s * irwin_hall_quantile(lam, m)
    return float(min(q, total))


@dataclass
class BatchWaitEstimator:
    """Empirical estimator of the aggregated downstream batch wait.

    Per module it draws ``samples`` waits — from observed runtime samples
    when at least ``min_observed`` are available, otherwise from the
    uniform(0, d_i) model — sums across modules and returns the requested
    quantile.  This is the State Planner's "three-round heuristic":
    (1) sample recent arrivals, (2) pick quantile lambda, (3) invert.
    """

    lam: float = 0.1
    samples: int = 10_000
    min_observed: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.lam <= 1:
            raise ValueError("lambda must be in [0, 1]")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        self._rng = np.random.default_rng(self.seed)

    def estimate(
        self,
        durations: list[float],
        observed: Sequence[Sequence[float] | None] | None = None,
    ) -> float:
        """w_k for downstream modules with profiled ``durations``.

        ``observed[i]`` optionally holds recent runtime batch-wait samples
        of module i (same order as ``durations``), as a list or a float64
        array; the draws and the result do not depend on which.
        """
        if not durations:
            return 0.0
        if self.lam == 0.0:
            return 0.0
        if self.lam == 1.0:
            total = 0.0
            for d in durations:  # left to right, as in the uniform model
                total += d
            return float(total)
        total = np.zeros(self.samples)
        for i, d in enumerate(durations):
            obs = observed[i] if observed is not None else None
            if obs is not None and len(obs) and len(obs) >= self.min_observed:
                total += self._rng.choice(obs, self.samples)
            else:
                total += self._rng.uniform(0.0, d, self.samples)
        return linear_quantile(total, self.lam)
