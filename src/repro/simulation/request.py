"""Request model and per-module lifecycle bookkeeping.

A request's life at one module follows Figure 5 of the paper::

    t_s ----------> t_r ---------> t_b ----------> t_e -----------> t_end
    sent            received       put into a      batch execution  batch done
    by client       by module      forming batch   starts

which decomposes the module latency into queueing delay ``Q = t_b - t_r``,
batch wait ``W = t_e - t_b`` and execution duration ``D = t_end - t_e``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

_rid_counter = itertools.count()


class RequestStatus(enum.Enum):
    """Terminal / non-terminal states of a request."""

    IN_FLIGHT = "in_flight"
    COMPLETED = "completed"  # finished the pipeline (may still violate SLO)
    DROPPED = "dropped"  # explicitly dropped by a policy


class DropReason(enum.Enum):
    """Why a policy dropped a request (recorded for the metrics layer)."""

    ESTIMATED_VIOLATION = "estimated_violation"  # proactive: L-hat > SLO
    ALREADY_EXPIRED = "already_expired"  # reactive: deadline already passed
    BUDGET_EXCEEDED = "budget_exceeded"  # per-module split budget exceeded
    ADMISSION_CONTROL = "admission_control"  # overload-control throttling
    SIBLING_DROPPED = "sibling_dropped"  # DAG: another branch was dropped
    TIMEOUT = "timeout"  # per-hop resilience budget exhausted


@dataclass(slots=True)
class ModuleVisit:
    """Timestamps and accounting for one request at one module."""

    module_id: str
    t_received: float
    t_batched: float | None = None  # drawn from queue into a forming batch
    t_exec_start: float | None = None  # batch execution actually began
    t_exec_end: float | None = None  # batch execution finished
    batch_size: int = 0
    worker_id: int = -1
    gpu_time: float = 0.0  # this request's share of the batch GPU time
    # Token-level modules (LLMWorker) only; 0 = not sampled yet.  Sticky
    # across failure re-dispatch: the lengths are part of the request's
    # identity, not of one execution attempt.
    prompt_tokens: int = 0
    output_tokens: int = 0  # sampled target output length

    @property
    def queueing_delay(self) -> float:
        """Q_k: time spent in the request queue before batching."""
        if self.t_batched is None:
            raise ValueError("request was never batched at this module")
        return self.t_batched - self.t_received

    @property
    def batch_wait(self) -> float:
        """W_k: time between joining a forming batch and execution start."""
        if self.t_batched is None or self.t_exec_start is None:
            raise ValueError("request never started execution at this module")
        return self.t_exec_start - self.t_batched

    @property
    def execution(self) -> float:
        """D_k: batch execution duration."""
        if self.t_exec_start is None or self.t_exec_end is None:
            raise ValueError("request never finished execution at this module")
        return self.t_exec_end - self.t_exec_start


@dataclass(slots=True)
class Request:
    """One client request flowing through the pipeline.

    For DAG pipelines a single :class:`Request` object is shared by all
    branches; the owning :class:`~repro.simulation.cluster.RequestFlow`
    tracks the token flow (tokens arrived and expected per join, exits
    still live) keyed by ``rid``, so the request itself stays lean.
    ``visits`` doubles as the token trail: :meth:`begin_visit` rejects a
    second arrival at the same module, which is how a join double-fire —
    impossible under token-flow accounting — would surface loudly.
    Slotted: requests are the highest-churn objects in the simulator and
    their fields are read on every queue/batch/drop decision.
    """

    sent_at: float
    slo: float
    # Clusters number their requests per run; the process-wide default
    # only serves requests built by hand.
    rid: int = field(default_factory=lambda: next(_rid_counter))
    app: str = ""  # owning application (set by multi-tenant clusters)
    status: RequestStatus = RequestStatus.IN_FLIGHT
    finished_at: float | None = None
    visits: dict[str, ModuleVisit] = field(default_factory=dict)
    dropped_at_module: str | None = None
    drop_reason: DropReason | None = None
    dropped_at_time: float | None = None
    # Client-observed token stream (token-level modules only).  first_
    # token_at is the earliest token of the whole pipeline (TTFT input);
    # tokens_out counts every streamed token, including ones produced by
    # an execution attempt a failure later aborted.
    first_token_at: float | None = None
    last_token_at: float | None = None
    tokens_out: int = 0

    @property
    def deadline(self) -> float:
        """Absolute wall-clock deadline ``t_s + SLO``."""
        return self.sent_at + self.slo

    def remaining_budget(self, now: float) -> float:
        """Latency budget left at ``now`` (negative once expired)."""
        return self.deadline - now

    @property
    def elapsed(self) -> float:
        """End-to-end latency; only valid for completed requests."""
        if self.finished_at is None:
            raise ValueError(f"request {self.rid} has not finished")
        return self.finished_at - self.sent_at

    @property
    def met_slo(self) -> bool:
        """True iff the request completed within its latency objective."""
        return (
            self.status is RequestStatus.COMPLETED
            and self.finished_at is not None
            and self.finished_at - self.sent_at <= self.slo
        )

    @property
    def gpu_time(self) -> float:
        """Total GPU time attributed to this request across all modules."""
        return sum(v.gpu_time for v in self.visits.values())

    def visit(self, module_id: str) -> ModuleVisit:
        """The :class:`ModuleVisit` for ``module_id`` (KeyError if absent)."""
        return self.visits[module_id]

    def begin_visit(self, module_id: str, now: float) -> ModuleVisit:
        """Record arrival at a module and return the fresh visit record."""
        if module_id in self.visits:
            raise ValueError(
                f"request {self.rid} already visited module {module_id!r}"
            )
        v = ModuleVisit(module_id=module_id, t_received=now)
        self.visits[module_id] = v
        return v

    def mark_dropped(self, module_id: str, reason: DropReason, now: float) -> None:
        """Transition to DROPPED (idempotent for DAG sibling branches)."""
        if self.status is RequestStatus.DROPPED:
            return
        if self.status is RequestStatus.COMPLETED:
            raise ValueError(f"request {self.rid} already completed")
        self.status = RequestStatus.DROPPED
        self.dropped_at_module = module_id
        self.drop_reason = reason
        self.dropped_at_time = now
        self.finished_at = now

    def mark_completed(self, now: float) -> None:
        """Transition to COMPLETED when the last module finishes."""
        if self.status is not RequestStatus.IN_FLIGHT:
            raise ValueError(f"request {self.rid} is {self.status}")
        self.status = RequestStatus.COMPLETED
        self.finished_at = now
