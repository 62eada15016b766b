"""Run-level metric computations (§5.1 definitions).

* **Goodput** — requests completed within the latency objective per unit
  time.  Reported per window, normalized by the input rate, and as the
  minimum over all windows of a given size (Figure 2a).
* **Drop rate** — dropped requests / all requests, where completed requests
  that violate the SLO also count as dropped.
* **Invalid rate** — GPU time consumed by dropped requests / total GPU
  time (wasted computation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..simulation.request import RequestStatus
from .collector import MetricsCollector, RequestRecord


@dataclass(frozen=True)
class Summary:
    """Headline numbers for one run."""

    total: int
    completed: int
    good: int
    dropped: int  # includes SLO-violating completions
    drop_rate: float
    invalid_rate: float
    goodput: float  # good requests / active duration
    mean_goodput_normalized: float  # good / total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"total={self.total} good={self.good} "
            f"drop_rate={self.drop_rate:.2%} invalid_rate={self.invalid_rate:.2%} "
            f"goodput={self.goodput:.1f}/s"
        )


def summarize(collector: MetricsCollector, duration: float | None = None) -> Summary:
    """Aggregate a run's streaming counters into a :class:`Summary`.

    O(1): the collector maintains every summary input incrementally as
    requests reach terminal states, so summarising never reads the
    records (and works for ``lean`` collectors that keep none).
    """
    total = collector.count
    if total == 0:
        return Summary(0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0)
    good = collector.good_count
    total_gpu = collector.gpu_time_total
    if duration is None:
        duration = max(collector.last_sent - collector.first_sent, 1e-9)
    return Summary(
        total=total,
        completed=collector.completed_count,
        good=good,
        dropped=collector.dropped_count,
        drop_rate=collector.dropped_count / total,
        invalid_rate=(
            collector.wasted_gpu_total / total_gpu if total_gpu > 0 else 0.0
        ),
        goodput=good / duration,
        mean_goodput_normalized=good / total,
    )


def _summarize_records(
    records: Sequence[RequestRecord], duration: float | None
) -> Summary:
    """The record-scan definition the streaming counters reproduce."""
    total = len(records)
    if total == 0:
        return Summary(0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0)
    good = sum(1 for r in records if r.met_slo)
    completed = sum(1 for r in records if r.status is RequestStatus.COMPLETED)
    dropped = sum(1 for r in records if r.counts_as_dropped)
    total_gpu = sum(r.gpu_time for r in records)
    wasted_gpu = sum(r.wasted_gpu_time for r in records)
    if duration is None:
        first = min(r.sent_at for r in records)
        last = max(r.sent_at for r in records)
        duration = max(last - first, 1e-9)
    return Summary(
        total=total,
        completed=completed,
        good=good,
        dropped=dropped,
        drop_rate=dropped / total,
        invalid_rate=wasted_gpu / total_gpu if total_gpu > 0 else 0.0,
        goodput=good / duration,
        mean_goodput_normalized=good / total,
    )


def merge_collectors(
    collectors: "Mapping[str, MetricsCollector] | Sequence[MetricsCollector]",
) -> MetricsCollector:
    """One collector holding every input collector's records.

    The aggregate view of a shared (multi-tenant) cluster run: all the
    per-window and per-module analyses in this module work unchanged on
    the merged records.  Records are concatenated in input order, column
    by column, with module codes remapped into the merged table; the
    originals are not modified.  The merge is lean, and holds no records,
    when any part is lean: its records could not cover every request.
    """
    if isinstance(collectors, Mapping):
        parts = list(collectors.values())
    else:
        parts = list(collectors)
    merged = MetricsCollector(lean=any(c.lean for c in parts))
    # The aggregate only carries a goodput spec when every part declares
    # the same one; the counters are additive either way (each part's
    # requests were judged against that part's own constraints).
    specs = {c.goodput for c in parts if c.goodput is not None}
    if len(specs) == 1:
        merged.goodput = specs.pop()
    for collector in parts:
        merged._extend(collector)
    return merged


def per_app_summaries(
    collectors: Mapping[str, MetricsCollector],
    durations: "Mapping[str, float] | float | None" = None,
) -> dict[str, Summary]:
    """Per-application :class:`Summary` for a shared-cluster run.

    ``durations`` normalises each app's goodput: a mapping gives each app
    its own trace duration, a scalar applies to all, ``None`` falls back
    to each collector's observed send-time span.
    """
    out: dict[str, Summary] = {}
    for name, collector in collectors.items():
        if isinstance(durations, Mapping):
            duration = durations.get(name)
        else:
            duration = durations
        out[name] = summarize(collector, duration=duration)
    return out


def _window_edges(records: Sequence[RequestRecord], window: float) -> np.ndarray:
    t_end = max(r.sent_at for r in records)
    return np.arange(0.0, t_end + window, window)


def goodput_series(
    collector: MetricsCollector, window: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(window starts, good counts, arrival counts) per window of send time.

    Windows are keyed by *send* time so goodput lines up against the input
    rate, matching the paper's normalized-goodput plots (Figure 10).
    """
    if window <= 0:
        raise ValueError("window must be > 0")
    records = collector.records
    if not records:
        return np.array([]), np.array([]), np.array([])
    edges = _window_edges(records, window)
    sent = np.array([r.sent_at for r in records])
    good = np.array([r.met_slo for r in records], dtype=bool)
    arrivals, _ = np.histogram(sent, bins=edges)
    goods, _ = np.histogram(sent[good], bins=edges)
    return edges[:-1], goods, arrivals


def normalized_goodput_series(
    collector: MetricsCollector, window: float
) -> tuple[np.ndarray, np.ndarray]:
    """(window starts, goodput / input rate) per window; NaN where idle."""
    starts, goods, arrivals = goodput_series(collector, window)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(arrivals > 0, goods / np.maximum(arrivals, 1), np.nan)
    return starts, norm


def min_normalized_goodput(collector: MetricsCollector, window: float) -> float:
    """Minimum over windows of normalized goodput (Figure 2a's metric).

    Windows with fewer than 1% of the mean arrivals are ignored to avoid
    start/end artifacts.
    """
    starts, goods, arrivals = goodput_series(collector, window)
    if len(starts) == 0:
        return 0.0
    floor = max(1.0, 0.01 * arrivals.mean())
    mask = arrivals >= floor
    if not mask.any():
        return 0.0
    return float((goods[mask] / arrivals[mask]).min())


def time_to_recover(
    collector: MetricsCollector,
    after: float,
    target: float,
    window: float,
) -> float | None:
    """Delay from ``after`` until windowed goodput first recovers.

    Returns the gap (in seconds, >= 0) between ``after`` — typically a
    fault injection time — and the start of the first send-time window
    *starting at or after* ``after`` whose normalized goodput reaches
    ``target``.  The window containing ``after`` is excluded: its sends
    straddle the fault, so its good fraction dilutes the outage with
    pre-fault traffic.  Idle windows (no arrivals) cannot witness
    recovery.  ``None`` when goodput never recovers within the run.
    """
    starts, norm = normalized_goodput_series(collector, window)
    for start, value in zip(starts, norm):
        if start < after:
            continue
        if not np.isnan(value) and value >= target:
            return float(start - after)
    return None


def dispatch_amplification(collector: MetricsCollector) -> float:
    """(terminal + retries + hedges) / terminal: extra-dispatch overhead.

    1.0 means every request was dispatched exactly once per hop attempt;
    resilience policies (retries, hedges) push it above 1.  Streaming
    counters only, so this is lean-safe.
    """
    total = collector.count
    if total == 0:
        return 1.0
    return (total + collector.res_retries + collector.res_hedges) / total


def drop_rate_series(
    collector: MetricsCollector, window: float
) -> tuple[np.ndarray, np.ndarray]:
    """(window starts, transient drop rate) per send-time window (Fig. 2d)."""
    if window <= 0:
        raise ValueError("window must be > 0")
    records = collector.records
    if not records:
        return np.array([]), np.array([])
    edges = _window_edges(records, window)
    sent = np.array([r.sent_at for r in records])
    dropped = np.array([r.counts_as_dropped for r in records], dtype=bool)
    arrivals, _ = np.histogram(sent, bins=edges)
    drops, _ = np.histogram(sent[dropped], bins=edges)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(arrivals > 0, drops / np.maximum(arrivals, 1), 0.0)
    return edges[:-1], rate


def max_drop_rate(collector: MetricsCollector, window: float) -> float:
    """Maximum windowed drop rate over the run (Figure 9's metric)."""
    starts, rates = drop_rate_series(collector, window)
    if len(starts) == 0:
        return 0.0
    _, _, arrivals = goodput_series(collector, window)
    floor = max(1.0, 0.01 * arrivals.mean())
    mask = arrivals >= floor
    if not mask.any():
        return 0.0
    return float(rates[mask].max())


def drop_rate_at_min_goodput(collector: MetricsCollector, window: float) -> float:
    """Drop rate of the window where normalized goodput is minimal (Fig 2b)."""
    starts, goods, arrivals = goodput_series(collector, window)
    if len(starts) == 0:
        return 0.0
    floor = max(1.0, 0.01 * arrivals.mean())
    mask = arrivals >= floor
    if not mask.any():
        return 0.0
    norm = goods[mask] / arrivals[mask]
    _, rates = drop_rate_series(collector, window)
    return float(rates[mask][int(np.argmin(norm))])


def drops_per_module(
    collector: MetricsCollector, module_ids: list[str]
) -> dict[str, float]:
    """Share of *explicit* drops attributed to each module (Figures 2c, 11b).

    SLO-violating completions have no drop module and are excluded, matching
    the paper's per-module drop accounting.
    """
    counts = {mid: 0 for mid in module_ids}
    total = 0
    for r in collector.records:
        if r.dropped_at_module is None:
            continue
        total += 1
        if r.dropped_at_module in counts:
            counts[r.dropped_at_module] += 1
    if total == 0:
        return {mid: 0.0 for mid in module_ids}
    return {mid: c / total for mid, c in counts.items()}


def latency_component_cdf(
    collector: MetricsCollector, component: str
) -> tuple[np.ndarray, np.ndarray]:
    """CDF of a per-request end-to-end latency component (Figure 12b).

    ``component`` is one of ``queueing`` (sum of Q_i), ``wait`` (sum of
    W_i) or ``exec`` (sum of D_i), summed over every executed module visit.
    """
    pick = {
        "queueing": lambda v: v.queueing_delay,
        "wait": lambda v: v.batch_wait,
        "exec": lambda v: v.execution,
    }
    try:
        fn = pick[component]
    except KeyError:
        raise ValueError(
            f"unknown component {component!r}; expected one of {sorted(pick)}"
        ) from None
    totals = [
        sum(fn(v) for v in r.visits)
        for r in collector.records
        if r.visits
    ]
    if not totals:
        return np.array([]), np.array([])
    xs = np.sort(np.asarray(totals))
    ps = np.arange(1, len(xs) + 1) / len(xs)
    return xs, ps


def consumed_budget_per_module(
    collector: MetricsCollector, module_ids: list[str]
) -> dict[str, float]:
    """Mean latency budget consumed at each module by SLO-compliant
    requests (Figure 12a): Q_k + W_k + D_k averaged over good requests."""
    sums = {mid: 0.0 for mid in module_ids}
    counts = {mid: 0 for mid in module_ids}
    for r in collector.records:
        if not r.met_slo:
            continue
        for v in r.visits:
            if v.module_id in sums:
                sums[v.module_id] += v.queueing_delay + v.batch_wait + v.execution
                counts[v.module_id] += 1
    return {
        mid: (sums[mid] / counts[mid] if counts[mid] else 0.0)
        for mid in module_ids
    }


def latency_percentiles(
    collector: MetricsCollector, qs: Sequence[float] = (0.5, 0.9, 0.95, 0.99)
) -> dict[float, float]:
    """End-to-end latency percentiles over *completed* requests.

    Dropped requests have no meaningful end-to-end latency and are
    excluded; an empty result means nothing completed.
    """
    lats = [
        r.latency
        for r in collector.records
        if r.status is RequestStatus.COMPLETED
    ]
    if not lats:
        return {}
    arr = np.asarray(lats)
    return {float(q): float(np.quantile(arr, q)) for q in qs}


def slo_attainment_curve(
    collector: MetricsCollector, slos: Sequence[float]
) -> dict[float, float]:
    """Fraction of all requests that would have met each hypothetical SLO.

    Useful for picking SLOs (paper's Figure 14b regime): dropped requests
    count as misses at every SLO.
    """
    total = len(collector.records)
    if total == 0:
        return {float(s): 0.0 for s in slos}
    lats = [
        r.latency
        for r in collector.records
        if r.status is RequestStatus.COMPLETED
    ]
    arr = np.asarray(sorted(lats))
    out = {}
    for s in slos:
        met = int(np.searchsorted(arr, s, side="right"))
        out[float(s)] = met / total
    return out
