"""Nexus baseline: reactive "Early Drop" on the end-to-end SLO.

Nexus (SOSP '19) drops requests that cannot complete the *current
module's* execution within the latency objective — i.e. it accounts for
L_pre + L_cur but ignores everything downstream (the paper's Figure 1b).
Two faithful formulations are provided:

* **per-request** (default): at the decision point t_b, with the expected
  batch start t_e known, drop iff ``t_e - t_s + d_k > SLO``;
* **windowed scan** (``windowed=True``, the paper's §5.1 description):
  scan the FIFO queue in arrival order with a sliding window equal to the
  batch size, stop at the first position where *all* requests in the
  window can meet the latency objective, and drop everything earlier.
  The scan runs at t_b, one drawn head at a time: a head is dropped while
  its window (itself plus the requests queued behind it) holds an
  infeasible request, so its victims leave through the worker's drop
  path like every other drop.

Both reproduce Nexus's drop-too-late behaviour: early modules almost
never trigger the rule because d_k alone rarely exceeds the remaining
budget there, so drops cluster in the last modules.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import TYPE_CHECKING

from ..interfaces import DropContext, DropPolicy, FifoQueue, RequestQueue
from ..simulation.request import DropReason, RequestStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulation.module import Module


class NexusPolicy(DropPolicy):
    """Reactive early-drop on the full SLO, arrival order, FIFO queue."""

    name = "Nexus"

    def __init__(self, windowed: bool = False) -> None:
        super().__init__()
        self.windowed = windowed

    def make_queue(self, module: "Module") -> RequestQueue:
        if self.windowed:
            return _NexusScanQueue()
        return super().make_queue(module)

    def should_drop(self, ctx: DropContext) -> DropReason | None:
        if self.windowed and not self._window_feasible(ctx):
            return DropReason.ESTIMATED_VIOLATION
        finish_estimate = ctx.expected_start - ctx.request.sent_at + ctx.batch_duration
        if finish_estimate > ctx.slo:
            return DropReason.ESTIMATED_VIOLATION
        return None

    def _window_feasible(self, ctx: DropContext) -> bool:
        """Whether the drawn head and the batch-size window behind it can
        all meet their latency objective."""
        queue = ctx.worker.queue
        if not isinstance(queue, _NexusScanQueue):
            # A shared pool whose queue another tenant's policy picked:
            # there is no arrival-order window to scan.
            return True
        module = ctx.module
        now = ctx.now
        d_k = module.effective_duration(now)
        # The window spans requests that any worker may end up batching,
        # so its expected start is the module's earliest, not this
        # worker's ``ctx.expected_start``.
        t_e = min((w.expected_start for w in module.workers), default=now)
        t_e = max(t_e, now)
        window = queue.behind_head(max(1, module.target_batch) - 1)
        for request in chain((ctx.request,), window):
            if request.status is not RequestStatus.IN_FLIGHT:
                continue  # cancelled elsewhere: skipped when drawn
            if t_e - request.sent_at + d_k > request.slo:
                return False
        return True

    def describe(self) -> str:
        return f"{self.name} [windowed={self.windowed}]"


class _NexusScanQueue(FifoQueue):
    """Arrival-order queue whose head window the windowed scan reads."""

    def behind_head(self, n: int):
        """The next ``n`` queued requests, in pop order."""
        return islice(self._dq, n)
