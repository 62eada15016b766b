"""Arrival traces.

A :class:`Trace` is an ordered array of client send timestamps.  The paper
replays three real-world request-rate traces (Wikipedia, Twitter, Azure
Functions); we ship synthetic generators matched to their published shape
statistics (see :mod:`repro.workload.generators`) plus the machinery to
inspect and replay any trace.  Transforms (thinning, bursts, slicing,
concat, splice) live on :class:`~repro.workload.source.ArrivalSource`;
an eager trace is a source's :meth:`~repro.workload.source.ArrivalSource.
materialize` output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Trace:
    """Ordered request send-times (seconds from run start)."""

    name: str
    arrivals: np.ndarray  # float64, sorted ascending
    duration: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.arrivals, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("arrivals must be a 1-D array")
        if not math.isfinite(self.duration):
            raise ValueError(f"trace duration {self.duration!r} is not finite")
        finite = np.isfinite(arr)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(
                f"arrival {float(arr[bad])!r} at index {bad} is not finite"
            )
        if arr.size and (np.any(np.diff(arr) < 0)):
            raise ValueError("arrivals must be sorted ascending")
        if arr.size and (arr[0] < 0 or arr[-1] > self.duration):
            raise ValueError("arrivals must fall within [0, duration]")
        object.__setattr__(self, "arrivals", arr)

    def __len__(self) -> int:
        return int(self.arrivals.size)

    def __iter__(self):
        """Iterate arrival times as floats (the streaming protocol —
        :class:`~repro.workload.source.ArrivalSource` shares it)."""
        return iter(self.arrivals.tolist())

    @property
    def mean_rate(self) -> float:
        """Average requests/second over the trace duration."""
        if self.duration <= 0:
            return 0.0
        return len(self) / self.duration

    def rate_series(self, window: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """(window start times, requests/second) histogram of the trace."""
        if window <= 0:
            raise ValueError("window must be > 0")
        edges = np.arange(0.0, self.duration + window, window)
        counts, _ = np.histogram(self.arrivals, bins=edges)
        return edges[:-1], counts / window

    def rate_cv(self, window: float = 1.0) -> float:
        """Coefficient of variation of the windowed rate (burstiness).

        The paper characterises its traces by this statistic: wiki ~0.47,
        tweet ~1.0, azure ~1.3.
        """
        _, rates = self.rate_series(window)
        mean = rates.mean()
        if mean == 0:
            return 0.0
        return float(rates.std() / mean)
