"""Request Broker: per-request end-to-end latency estimation (Equation 3).

At decision time ``t_b`` (a request is drawn from the DEPQ toward a forming
batch) the broker has all bi-directional runtime information:

* backward — ``L_pre + Q_k + W_k = t_e - t_s`` (elapsed time to the expected
  batch start; t_s travels with the request, t_e is known because the next
  batch starts exactly when the executing one finishes);
* current — ``D_k = d_k`` from offline profiling at the planned batch size;
* forward — ``L_sub`` from the State Planner (Equation 3b's q/d/w sums,
  maximum over DAG paths).

``L_sub`` only changes when the planner synchronises, so
:meth:`RequestBroker.refresh`, which the policy calls right after every
planner sync (at bind and on each sync tick), writes it into one table
keyed by data-plane module, for whichever ``sub`` mode is configured:

* ``full`` — the planner's per-module estimate;
* ``durations`` (PARD-sf) — the heaviest downstream path of profiled
  durations, one reverse-topological pass over the DAG;
* ``none`` (PARD-back) — 0.

A module's row is its DAG position's value (a shared pool is translated
to the tenant's module id once, here), so a drop decision reads one dict
entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..interfaces import DropContext
from .state_planner import StatePlanner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulation.module import Module


class SubMode:
    """What the forward component L_sub includes (ablation knob)."""

    FULL = "full"  # PARD: sum q + sum d + w_k
    NONE = "none"  # PARD-back: L_sub = 0 (Clockwork/Nexus/Scrooge-like)
    DURATIONS = "durations"  # PARD-sf: sum d only (DREAM-like)

    ALL = (FULL, NONE, DURATIONS)


@dataclass(frozen=True)
class LatencyEstimate:
    """Decomposed end-to-end estimate for one request at one module."""

    backward: float  # t_e - t_s: everything up to the expected batch start
    current_exec: float  # d_k
    sub: float  # L_sub estimate for downstream modules

    @property
    def total(self) -> float:
        return self.backward + self.current_exec + self.sub


class RequestBroker:
    """Computes Equation 3 estimates from a bound State Planner."""

    def __init__(self, planner: StatePlanner, sub_mode: str = SubMode.FULL) -> None:
        if sub_mode not in SubMode.ALL:
            raise ValueError(f"unknown sub mode {sub_mode!r}")
        self.planner = planner
        self.sub_mode = sub_mode
        self._sub: dict[Module, float] = {}  # data-plane module -> L_sub

    def refresh(self) -> None:
        """Rebuild the ``L_sub`` table from the planner's last sync."""
        cluster = self.planner.cluster
        assert cluster is not None, "broker's planner is not bound"
        spec = cluster.spec
        if self.sub_mode == SubMode.NONE:
            by_hop = dict.fromkeys(spec.module_ids, 0.0)
        elif self.sub_mode == SubMode.DURATIONS:
            by_hop = spec.downstream_path_max(
                {mid: self.planner.state(mid).duration for mid in spec.module_ids}
            )
        else:
            by_hop = {mid: self.planner.sub_estimate(mid) for mid in spec.module_ids}
        # Translate each data-plane module to this pipeline's DAG position:
        # in a shared cluster the pool id is not the tenant's module id.
        self._sub = {
            module: by_hop[cluster.hop_id(module)]
            for module in cluster.modules.values()
        }

    def estimate(self, ctx: DropContext) -> LatencyEstimate:
        """End-to-end latency estimate for the request in ``ctx``."""
        return LatencyEstimate(
            backward=ctx.expected_start - ctx.request.sent_at,
            current_exec=ctx.batch_duration,
            sub=self._sub[ctx.module],
        )
