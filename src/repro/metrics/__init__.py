"""Metrics: per-request records and the paper's §5.1 measures."""

from .analysis import (
    Summary,
    consumed_budget_per_module,
    drop_rate_at_min_goodput,
    drop_rate_series,
    drops_per_module,
    goodput_series,
    latency_component_cdf,
    latency_percentiles,
    max_drop_rate,
    merge_collectors,
    min_normalized_goodput,
    normalized_goodput_series,
    per_app_summaries,
    slo_attainment_curve,
    summarize,
)
from .collector import MetricsCollector, RequestRecord, VisitRecord
from .goodput import GoodputReport, GoodputSpec, goodput_report

__all__ = [
    "GoodputReport",
    "GoodputSpec",
    "MetricsCollector",
    "RequestRecord",
    "Summary",
    "VisitRecord",
    "consumed_budget_per_module",
    "drop_rate_at_min_goodput",
    "drop_rate_series",
    "drops_per_module",
    "goodput_series",
    "latency_component_cdf",
    "latency_percentiles",
    "max_drop_rate",
    "merge_collectors",
    "min_normalized_goodput",
    "normalized_goodput_series",
    "per_app_summaries",
    "slo_attainment_curve",
    "summarize",
    "goodput_report",
]
