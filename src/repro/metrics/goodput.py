"""Goodput under per-metric SLO constraints (genai-perf style).

A :class:`GoodputSpec` declares constraints over the token-level request
metrics — TTFT (time to first token), TPOT (time per output token) and
e2e latency — on a :class:`~repro.experiments.scenario.Scenario` (per
app, via each tenant's scenario, in a ``MultiScenario``).  A request is
*good* iff it completed **and** satisfies every declared constraint; a
token constraint declared against a request that never produced the
needed tokens counts as not met, and drops are never good.

The :class:`~repro.metrics.collector.MetricsCollector` evaluates the
constraints once per terminal request and keeps streaming counters (so
the report works in lean mode and is O(1) to produce); this module holds
the spec, the per-request checks and the :class:`GoodputReport` built
from those counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..schema import Num, Opt, Spec, field
from ..simulation.request import RequestStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .collector import MetricsCollector

@dataclass(frozen=True)
class GoodputSpec(Spec):
    """Per-metric latency constraints, all in seconds; ``None`` = unconstrained.

    * ``ttft`` — first token within this budget of ``sent_at``.
    * ``tpot`` — mean inter-token gap ``(last - first) / (tokens - 1)``.
    * ``e2e``  — end-to-end completion latency.
    """

    _section, _prefix = "goodput", "goodput constraint "

    ttft: float | None = field(Opt(Num("> 0")), None)
    tpot: float | None = field(Opt(Num("> 0")), None)
    e2e: float | None = field(Opt(Num("> 0")), None)

    @property
    def declared(self) -> bool:
        """True when at least one constraint is set."""
        return self.ttft is not None or self.tpot is not None or self.e2e is not None


def constraint_checks(spec: GoodputSpec, request) -> tuple[bool, bool, bool]:
    """(ttft_ok, tpot_ok, e2e_ok) for a terminal request or record.

    Undeclared constraints pass vacuously.  Declared token constraints on
    a request without the needed token timestamps (a fixed-duration
    pipeline, or a single-token response for TPOT) fail: declaring a
    token SLO asserts the workload streams tokens.
    """
    ttft_ok = True
    if spec.ttft is not None:
        ttft_ok = (
            request.first_token_at is not None
            and request.first_token_at - request.sent_at <= spec.ttft
        )
    tpot_ok = True
    if spec.tpot is not None:
        tpot_ok = (
            request.tokens_out >= 2
            and request.first_token_at is not None
            and request.last_token_at is not None
            and (request.last_token_at - request.first_token_at)
            / (request.tokens_out - 1)
            <= spec.tpot
        )
    e2e_ok = True
    if spec.e2e is not None:
        e2e_ok = (
            request.finished_at is not None
            and request.finished_at - request.sent_at <= spec.e2e
        )
    return ttft_ok, tpot_ok, e2e_ok


def is_good(spec: GoodputSpec, request) -> bool:
    """Completed and met every declared constraint."""
    if request.status is not RequestStatus.COMPLETED:
        return False
    ttft_ok, tpot_ok, e2e_ok = constraint_checks(spec, request)
    return ttft_ok and tpot_ok and e2e_ok


@dataclass(frozen=True)
class GoodputReport:
    """Goodput-under-constraints numbers for one run (or one app).

    ``*_met`` count completed requests passing that single constraint
    (equal to ``completed`` when the constraint is undeclared);
    ``goodput`` is good requests per second of active duration and
    ``good_fraction`` the good share of all terminal requests.
    """

    spec: GoodputSpec
    total: int
    completed: int
    good: int
    ttft_met: int
    tpot_met: int
    e2e_met: int
    tokens_out: int
    goodput: float
    good_fraction: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "total": self.total,
            "completed": self.completed,
            "good": self.good,
            "ttft_met": self.ttft_met,
            "tpot_met": self.tpot_met,
            "e2e_met": self.e2e_met,
            "tokens_out": self.tokens_out,
            "goodput": self.goodput,
            "good_fraction": self.good_fraction,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"good={self.good}/{self.total} "
            f"({self.good_fraction:.2%}) goodput={self.goodput:.1f}/s"
        )


def goodput_report(
    collector: "MetricsCollector", duration: float | None = None
) -> GoodputReport | None:
    """Build the report from a collector's streaming goodput counters.

    ``None`` when the collector has no declared constraints.  Works for
    lean collectors: like :func:`~repro.metrics.analysis.summarize`, it
    never reads the records.
    """
    spec = collector.goodput
    if spec is None or not spec.declared:
        return None
    total = collector.count
    if total == 0:
        return GoodputReport(spec, 0, 0, 0, 0, 0, 0, 0, 0.0, 0.0)
    if duration is None:
        duration = max(collector.last_sent - collector.first_sent, 1e-9)
    return GoodputReport(
        spec=spec,
        total=total,
        completed=collector.completed_count,
        good=collector.gp_good,
        ttft_met=collector.gp_ttft_met,
        tpot_met=collector.gp_tpot_met,
        e2e_met=collector.gp_e2e_met,
        tokens_out=collector.gp_tokens_out,
        goodput=collector.gp_good / duration,
        good_fraction=collector.gp_good / total,
    )


def _report_from_records(
    spec: GoodputSpec, records, duration: float | None
) -> GoodputReport:
    """The record-scan definition the streaming counters reproduce."""
    total = len(records)
    if total == 0:
        return GoodputReport(spec, 0, 0, 0, 0, 0, 0, 0, 0.0, 0.0)
    completed = good = ttft_met = tpot_met = e2e_met = tokens = 0
    for r in records:
        tokens += r.tokens_out
        if r.status is not RequestStatus.COMPLETED:
            continue
        completed += 1
        ttft_ok, tpot_ok, e2e_ok = constraint_checks(spec, r)
        ttft_met += ttft_ok
        tpot_met += tpot_ok
        e2e_met += e2e_ok
        good += ttft_ok and tpot_ok and e2e_ok
    if duration is None:
        first = min(r.sent_at for r in records)
        last = max(r.sent_at for r in records)
        duration = max(last - first, 1e-9)
    return GoodputReport(
        spec=spec,
        total=total,
        completed=completed,
        good=good,
        ttft_met=ttft_met,
        tpot_met=tpot_met,
        e2e_met=e2e_met,
        tokens_out=tokens,
        goodput=good / duration,
        good_fraction=good / total,
    )
