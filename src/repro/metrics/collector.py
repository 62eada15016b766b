"""Per-request outcome records and the run-level collector.

The collector is the single source of truth for every metric the paper
reports: goodput, drop rate, invalid rate (wasted GPU time), per-module
drop distribution, transient rates and latency decompositions.

Full-fidelity outcomes are stored column by column: one typed
:class:`array.array` per :class:`RequestRecord` field and one per
:class:`VisitRecord` field, with enum members and module ids kept as
small-int codes.  The records are a view over those columns, built on
first read.  A sweep cell carries tens of thousands of outcomes through
the process pool and the on-disk cell cache, and a column crosses both
as one raw byte string, where a list of records costs a Python object
per field on each side.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from functools import reduce
from itertools import compress, islice, repeat
from operator import add
from typing import NamedTuple

from ..simulation.request import DropReason, Request, RequestStatus
from .goodput import GoodputSpec, constraint_checks

# Members bound once (see repro.simulation.request).
_IN_FLIGHT = RequestStatus.IN_FLIGHT
_COMPLETED = RequestStatus.COMPLETED
_DROPPED = RequestStatus.DROPPED


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
        return self.status is _DROPPED or not self.met_slo

    @property
    def wasted_gpu_time(self) -> float:
        """GPU time that produced no SLO-compliant result."""
        return self.gpu_time if self.counts_as_dropped else 0.0


#: Code tables: a code column holds the member's index in its table.
_STATUSES = (_COMPLETED, _DROPPED)
_REASONS = (None, *DropReason)
_DROPPED_CODE = _STATUSES.index(_DROPPED)

#: Typecode of each request column, in :class:`RequestRecord` field order.
#: Integer columns are sized to the range their values need; a value out
#: of range raises OverflowError at append, never wraps.
_REQUEST_COLUMNS = {
    "rid": "q",
    "sent_at": "d",
    "finished_at": "d",
    "status": "B",  # index into _STATUSES
    "met_slo": "B",
    "slo": "d",
    "gpu_time": "d",
    "dropped_at_module": "H",  # index into the module table (0: None)
    "drop_reason": "B",  # index into _REASONS (0: None)
    "visits": "H",  # executed-visit count
    "first_token_at": "d",  # _NONE: None
    "last_token_at": "d",  # _NONE: None
    "tokens_out": "I",
}
#: Typecode of each visit column, in :class:`VisitRecord` field order.
_VISIT_COLUMNS = {
    "module_id": "H",  # index into the module table
    "queueing_delay": "d",
    "batch_wait": "d",
    "execution": "d",
    "gpu_time": "d",
    "batch_size": "I",
}
#: Positions of the module-coded columns in request-then-visit order.
_MODULE_COLUMNS = (
    RequestRecord._fields.index("dropped_at_module"),
    len(RequestRecord._fields) + VisitRecord._fields.index("module_id"),
)
#: Stands for None in a float column: no simulated time is -inf, and
#: unlike NaN it compares equal to itself, so equal columns compare equal.
_NONE = float("-inf")


class MetricsCollector:
    """Accumulates request outcomes during a simulation run.

    Alongside the per-request outcomes, the collector maintains
    *streaming* counters (counts, GPU-time totals, send-time span) updated
    once per terminal request, so run-level summaries are O(1) instead of
    a full pass over the records.

    The outcomes live in typed columns, one value per request field and
    one per executed-visit field (see the module docstring).
    :attr:`records` is a read-only view over them: a tuple of
    :class:`RequestRecord` built on first read and reused until the next
    :meth:`record_request`.

    ``lean=True`` keeps only the streaming counters: no column is ever
    written and ``records`` is empty.  Sweep cells and benchmarks that
    only consume a :class:`~repro.metrics.analysis.Summary` use this to
    skip the per-request cost; per-window series, per-module drop shares
    and latency CDFs need full records and are unavailable.

    A collector pickles as its counters, its module table and its
    columns; an array pickles as one raw byte string (protocol 3 and up),
    so the pickle holds the same few objects however many requests it
    carries.  Sweep results reach the process pool and the on-disk cell
    cache this way.
    """

    def __init__(
        self, lean: bool = False, goodput: GoodputSpec | None = None
    ) -> None:
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
        # Full-fidelity outcomes (never written when lean).
        self._request_columns = tuple(map(array, _REQUEST_COLUMNS.values()))
        self._visit_columns = tuple(map(array, _VISIT_COLUMNS.values()))
        self._modules: list[str | None] = [None]
        self._module_codes: dict[str | None, int] = {None: 0}
        self._records: tuple[RequestRecord, ...] | None = None

    def __getstate__(self) -> dict:
        """Pickle state: the counters, the module table and the columns."""
        state = self.__dict__.copy()
        del state["_module_codes"], state["_records"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._module_codes = {m: i for i, m in enumerate(self._modules)}
        self._records = None

    def _module_code(self, module_id: str) -> int:
        code = self._module_codes.get(module_id)
        if code is None:
            code = self._module_codes[module_id] = len(self._modules)
            self._modules.append(module_id)
        return code

    def record_submitted(self) -> None:
        self.submitted += 1

    def record_request(self, request: Request) -> None:
        """Snapshot a request that has reached a terminal state.

        A dropped request is recorded as a run of one
        (:meth:`record_drops`); this method records completions, which
        count as dropped when they miss their SLO (paper §5.1).
        """
        status = request.status
        if status is _DROPPED:
            self.record_drops((request,))
            return
        if status is _IN_FLIGHT:
            raise ValueError(f"request {request.rid} is still in flight")
        assert request.finished_at is not None
        met_slo = request.met_slo
        gpu_time = request.gpu_time
        self.count += 1
        self.completed_count += 1
        if met_slo:
            self.good_count += 1
        else:
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
            ttft_ok, tpot_ok, e2e_ok = constraint_checks(gp, request)
            self.gp_ttft_met += ttft_ok
            self.gp_tpot_met += tpot_ok
            self.gp_e2e_met += e2e_ok
            self.gp_good += ttft_ok and tpot_ok and e2e_ok
        if self.lean:
            return
        self._records = None
        self._append(request, _COMPLETED, met_slo, gpu_time)

    def record_drops(self, requests: Sequence[Request]) -> None:
        """Snapshot dropped ``requests``, in order, in one call.

        Every drop is counted here, a run of one included.  The counters
        end as if the requests were recorded one at a time: the GPU-time
        totals take one request at a time, in order, and the full-mode
        columns are written by the same code as a completion's.
        """
        gpu_total = self.gpu_time_total
        wasted = self.wasted_gpu_total
        first_sent = self.first_sent
        last_sent = self.last_sent
        for request in requests:
            if request.status is not _DROPPED:
                raise ValueError(f"request {request.rid} is not dropped")
            # A request that never opened a visit spent no GPU time.
            gpu_time = request.gpu_time if request.visits else 0.0
            wasted += gpu_time
            gpu_total += gpu_time
            sent_at = request.sent_at
            if sent_at < first_sent:
                first_sent = sent_at
            if sent_at > last_sent:
                last_sent = sent_at
        n = len(requests)
        self.count += n
        self.dropped_count += n
        self.gpu_time_total = gpu_total
        self.wasted_gpu_total = wasted
        self.first_sent = first_sent
        self.last_sent = last_sent
        gp = self.goodput
        if gp is not None and gp.declared:
            self.gp_tokens_out += sum(r.tokens_out for r in requests)
        if self.lean:
            return
        self._records = None
        for request in requests:
            self._append(request, _DROPPED, False, request.gpu_time)

    def _append(self, request: Request, status: RequestStatus, met_slo: bool,
                gpu_time: float) -> None:
        """Write one terminal request's row and its executed visits."""
        codes = self._module_codes
        v_module, v_queueing, v_wait, v_exec, v_gpu, v_batch = self._visit_columns
        visits = 0
        for v in request.visits.values():
            end = v.t_exec_end
            if end is None:
                continue  # never executed at this module (queued/forming when dropped)
            code = codes.get(v.module_id)
            if code is None:
                code = self._module_code(v.module_id)
            batched = v.t_batched
            start = v.t_exec_start
            v_module.append(code)
            v_queueing.append(batched - v.t_received)
            v_wait.append(start - batched)
            v_exec.append(end - start)
            v_gpu.append(v.gpu_time)
            v_batch.append(v.batch_size)
            visits += 1
        (c_rid, c_sent, c_finished, c_status, c_met, c_slo, c_gpu, c_drop_module,
         c_reason, c_visits, c_first, c_last, c_tokens) = self._request_columns
        first = request.first_token_at
        last = request.last_token_at
        c_rid.append(request.rid)
        c_sent.append(request.sent_at)
        c_finished.append(request.finished_at)
        c_status.append(_STATUSES.index(status))
        c_met.append(met_slo)
        c_slo.append(request.slo)
        c_gpu.append(gpu_time)
        drop_module = request.dropped_at_module
        c_drop_module.append(
            0 if drop_module is None else self._module_code(drop_module))
        c_reason.append(_REASONS.index(request.drop_reason))
        c_visits.append(visits)
        c_first.append(_NONE if first is None else first)
        c_last.append(_NONE if last is None else last)
        c_tokens.append(request.tokens_out)

    def _extend(self, other: MetricsCollector) -> None:
        """Fold in everything ``other`` holds, after what this one holds.

        Every counter ends up as if this collector had also recorded
        ``other``'s requests, in ``other``'s order.  The GPU-time totals
        fold from ``other``'s columns one request at a time, so they come
        out bit-identical to that; a lean ``other`` has no columns, and
        its subtotals are added instead.  Unless this collector is lean,
        ``other``'s columns are appended with module codes remapped into
        its table.
        """
        self.submitted += other.submitted
        self.count += other.count
        self.completed_count += other.completed_count
        self.good_count += other.good_count
        self.dropped_count += other.dropped_count
        self.first_sent = min(self.first_sent, other.first_sent)
        self.last_sent = max(self.last_sent, other.last_sent)
        self.gp_good += other.gp_good
        self.gp_ttft_met += other.gp_ttft_met
        self.gp_tpot_met += other.gp_tpot_met
        self.gp_e2e_met += other.gp_e2e_met
        self.gp_tokens_out += other.gp_tokens_out
        self.res_retries += other.res_retries
        self.res_hedges += other.res_hedges
        self.res_timeouts += other.res_timeouts
        self.res_fallbacks += other.res_fallbacks
        if other.lean:
            self.gpu_time_total += other.gpu_time_total
            self.wasted_gpu_total += other.wasted_gpu_total
            return
        columns = other._request_columns
        _, _, _, status, met, _, gpu, *_ = columns
        dropped = [s == _DROPPED_CODE or not m for s, m in zip(status, met)]
        self.gpu_time_total = reduce(add, gpu, self.gpu_time_total)
        self.wasted_gpu_total = reduce(
            add, compress(gpu, dropped), self.wasted_gpu_total)
        if self.lean:
            return
        self._records = None
        remap = [self._module_code(m) for m in other._modules]
        theirs = [*columns, *other._visit_columns]
        for i in _MODULE_COLUMNS:
            theirs[i] = map(remap.__getitem__, theirs[i])
        for column, values in zip(
            (*self._request_columns, *self._visit_columns), theirs
        ):
            column.extend(values)

    # -- convenience views ---------------------------------------------------

    @property
    def records(self) -> tuple[RequestRecord, ...]:
        """Every recorded request's outcome, in recording order.

        Built from the columns on first read and reused until the next
        :meth:`record_request`; empty when lean.
        """
        if self._records is None:
            self._records = self._build_records()
        return self._records

    def _build_records(self) -> tuple[RequestRecord, ...]:
        new = tuple.__new__
        modules = self._modules
        v_module, *v_values = self._visit_columns
        visits = map(new, repeat(VisitRecord),
                     zip(map(modules.__getitem__, v_module), *v_values))
        (rid, sent, finished, status, met, slo, gpu, drop_module, reason,
         n_visits, first, last, tokens) = self._request_columns
        rows = zip(
            rid, sent, finished, map(_STATUSES.__getitem__, status),
            map(bool, met), slo, gpu, map(modules.__getitem__, drop_module),
            map(_REASONS.__getitem__, reason),
            map(tuple, map(islice, repeat(visits), n_visits)),
            (None if t == _NONE else t for t in first),
            (None if t == _NONE else t for t in last),
            tokens,
        )
        return tuple(map(new, repeat(RequestRecord), rows))

    def __len__(self) -> int:
        return self.count

    @property
    def completed(self) -> list[RequestRecord]:
        return [r for r in self.records if r.status is _COMPLETED]

    @property
    def good(self) -> list[RequestRecord]:
        """Requests that completed within their SLO."""
        return [r for r in self.records if r.met_slo]

    @property
    def dropped(self) -> list[RequestRecord]:
        """Explicit drops plus SLO-violating completions (paper §5.1)."""
        return [r for r in self.records if r.counts_as_dropped]
