"""Per-request outcome records and the run-level collector.

The collector is the single source of truth for every metric the paper
reports: goodput, drop rate, invalid rate (wasted GPU time), per-module
drop distribution, transient rates and latency decompositions.

Records are named tuples (:class:`~typing.NamedTuple`): immutable,
attribute-accessed, and cheap to build and to pickle.  A full-fidelity
sweep cell carries tens of thousands of them through the process pool
and the on-disk cell cache, and the generic pickle path of a frozen
slotted dataclass calls ``dataclasses.fields()`` once per object on
both dump and load.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import NamedTuple

from ..simulation.request import DropReason, Request, RequestStatus
from .goodput import GoodputSpec, constraint_checks


class VisitRecord(NamedTuple):
    """Latency decomposition of one executed module visit."""

    module_id: str
    queueing_delay: float
    batch_wait: float
    execution: float
    gpu_time: float
    batch_size: int


class RequestRecord(NamedTuple):
    """Immutable outcome of one request (terminal state)."""

    rid: int
    sent_at: float
    finished_at: float
    status: RequestStatus
    met_slo: bool
    slo: float
    gpu_time: float
    dropped_at_module: str | None
    drop_reason: DropReason | None
    visits: tuple[VisitRecord, ...] = ()
    # Token-level (LLM) outcomes; defaults keep fixed-duration records lean.
    first_token_at: float | None = None
    last_token_at: float | None = None
    tokens_out: int = 0

    @property
    def latency(self) -> float:
        return self.finished_at - self.sent_at

    @property
    def counts_as_dropped(self) -> bool:
        """Paper §5.1: completed-but-SLO-violating requests count as dropped."""
        return self.status is RequestStatus.DROPPED or not self.met_slo

    @property
    def wasted_gpu_time(self) -> float:
        """GPU time that produced no SLO-compliant result."""
        return self.gpu_time if self.counts_as_dropped else 0.0


#: Position of ``visits`` in a :class:`RequestRecord` and its pickled row.
_VISITS = RequestRecord._fields.index("visits")


def _visit_records(request: Request) -> tuple[VisitRecord, ...]:
    out = []
    for v in request.visits.values():
        if v.t_exec_end is None:
            continue  # never executed at this module (queued/forming when dropped)
        out.append(
            VisitRecord(
                module_id=v.module_id,
                queueing_delay=v.queueing_delay,
                batch_wait=v.batch_wait,
                execution=v.execution,
                gpu_time=v.gpu_time,
                batch_size=v.batch_size,
            )
        )
    return tuple(out)


class MetricsCollector:
    """Accumulates request outcomes during a simulation run.

    Alongside the per-request :class:`RequestRecord` list, the collector
    maintains *streaming* counters (counts, GPU-time totals, send-time
    span) updated once per terminal request, so run-level summaries are
    O(1) instead of a full pass over the records.

    ``lean=True`` keeps only the streaming counters: no ``RequestRecord``
    or :class:`VisitRecord` objects are materialised at all.  Sweep cells
    and benchmarks that only consume a
    :class:`~repro.metrics.analysis.Summary` use this to skip the
    dominant per-request allocation cost; per-window series, per-module
    drop shares and latency CDFs need full records and are unavailable.

    A collector pickles its records as two lists of plain tuples (see
    :meth:`__getstate__`), so its pickle holds the same few class
    references however many records it carries.  Sweep results reach the
    process pool and the on-disk cell cache this way.
    """

    def __init__(
        self, lean: bool = False, goodput: GoodputSpec | None = None
    ) -> None:
        self.records: list[RequestRecord] = []
        self.lean = lean
        self.submitted = 0
        # Streaming counters (single source of truth for summaries).
        self.count = 0
        self.completed_count = 0
        self.good_count = 0
        self.dropped_count = 0  # includes SLO-violating completions
        self.gpu_time_total = 0.0
        self.wasted_gpu_total = 0.0
        self.first_sent = float("inf")
        self.last_sent = float("-inf")
        # Goodput-under-constraints counters, evaluated per terminal
        # request against the declared spec (None = no constraints; the
        # counters stay zero and goodput_report() returns None).
        self.goodput = goodput
        self.gp_good = 0
        self.gp_ttft_met = 0
        self.gp_tpot_met = 0
        self.gp_e2e_met = 0
        self.gp_tokens_out = 0
        # Resilience counters (streamed, lean-safe): incremented by the
        # ResilienceManager as it acts, not per terminal request.  The
        # retry/hedge totals are the numerators of the dispatch
        # amplification factor.
        self.res_retries = 0
        self.res_hedges = 0
        self.res_timeouts = 0
        self.res_fallbacks = 0

    def __getstate__(self) -> dict:
        """Pickle state with ``records`` as flat rows of plain tuples.

        ``record_rows`` holds one row per record, in field order, with the
        record's visit count in the ``visits`` slot; ``visit_rows`` holds
        one row per executed visit, in record order.  A plain tuple loads
        without the constructor call a pickled NamedTuple makes per
        object; :meth:`__setstate__` rebuilds the records with
        ``tuple.__new__``.
        """
        state = self.__dict__.copy()
        records = state.pop("records")
        state["record_rows"] = [
            (*r[:_VISITS], len(r.visits), *r[_VISITS + 1:]) for r in records
        ]
        state["visit_rows"] = [tuple(v) for r in records for v in r.visits]
        return state

    def __setstate__(self, state: dict) -> None:
        rows = state.pop("record_rows")
        new = tuple.__new__
        visits = map(new, repeat(VisitRecord), state.pop("visit_rows"))
        self.__dict__.update(state)
        self.records = [
            new(RequestRecord, (*row[:_VISITS],
                                tuple(islice(visits, row[_VISITS])),
                                *row[_VISITS + 1:]))
            for row in rows
        ]

    def record_submitted(self) -> None:
        self.submitted += 1

    def record_request(self, request: Request) -> None:
        """Snapshot a request that has reached a terminal state."""
        status = request.status
        if status is RequestStatus.IN_FLIGHT:
            raise ValueError(f"request {request.rid} is still in flight")
        assert request.finished_at is not None
        met_slo = request.met_slo
        gpu_time = request.gpu_time
        counts_as_dropped = status is RequestStatus.DROPPED or not met_slo
        self.count += 1
        if status is RequestStatus.COMPLETED:
            self.completed_count += 1
        if met_slo:
            self.good_count += 1
        if counts_as_dropped:
            self.dropped_count += 1
            self.wasted_gpu_total += gpu_time
        self.gpu_time_total += gpu_time
        sent_at = request.sent_at
        if sent_at < self.first_sent:
            self.first_sent = sent_at
        if sent_at > self.last_sent:
            self.last_sent = sent_at
        gp = self.goodput
        if gp is not None and gp.declared:
            self.gp_tokens_out += request.tokens_out
            if status is RequestStatus.COMPLETED:
                ttft_ok, tpot_ok, e2e_ok = constraint_checks(gp, request)
                self.gp_ttft_met += ttft_ok
                self.gp_tpot_met += tpot_ok
                self.gp_e2e_met += e2e_ok
                self.gp_good += ttft_ok and tpot_ok and e2e_ok
        if self.lean:
            return
        self.records.append(
            RequestRecord(
                rid=request.rid,
                sent_at=sent_at,
                finished_at=request.finished_at,
                status=status,
                met_slo=met_slo,
                slo=request.slo,
                gpu_time=gpu_time,
                dropped_at_module=request.dropped_at_module,
                drop_reason=request.drop_reason,
                visits=_visit_records(request),
                first_token_at=request.first_token_at,
                last_token_at=request.last_token_at,
                tokens_out=request.tokens_out,
            )
        )

    # -- convenience views ---------------------------------------------------

    def __len__(self) -> int:
        return self.count if self.lean else len(self.records)

    @property
    def completed(self) -> list[RequestRecord]:
        return [r for r in self.records if r.status is RequestStatus.COMPLETED]

    @property
    def good(self) -> list[RequestRecord]:
        """Requests that completed within their SLO."""
        return [r for r in self.records if r.met_slo]

    @property
    def dropped(self) -> list[RequestRecord]:
        """Explicit drops plus SLO-violating completions (paper §5.1)."""
        return [r for r in self.records if r.counts_as_dropped]
