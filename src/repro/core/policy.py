"""The PARD drop policy: proactive dropping + adaptive priority.

This is the paper's primary contribution assembled from its parts:

* :class:`~repro.core.state_planner.StatePlanner` — synchronised module
  states and the forward estimate L_sub (with the quantile sweet-spot w_k);
* :class:`~repro.core.broker.RequestBroker` — Equation-3 end-to-end
  estimates at decision time t_b;
* :class:`~repro.core.priority.DeadlineDepqQueue` — remaining-budget DEPQ
  with adaptive HBF/LBF selection and delayed transition.

Every Table-1 ablation is a configuration of this class (see
:mod:`repro.policies.ablations`); ``PardPolicy()`` with defaults is PARD.
"""

from __future__ import annotations

from functools import partial

from ..interfaces import DropContext, DropPolicy, DropTest, FifoQueue, RequestQueue
from ..simulation.request import DropReason, Request
from .broker import RequestBroker, SubMode
from .priority import AdaptivePriorityController, DeadlineDepqQueue, PriorityMode
from .state_planner import PathMode, StatePlanner, WaitMode

# Bound once (see repro.simulation.request).
_ESTIMATED_VIOLATION = DropReason.ESTIMATED_VIOLATION
_BUDGET_EXCEEDED = DropReason.BUDGET_EXCEEDED


def _late(t_e: float, d: float, sub: float, request: Request) -> bool:
    """PARD's verdict: Equation 3's estimate ``(t_e - t_s) + d_k + L_sub``
    exceeds the request's SLO."""
    return t_e - request.sent_at + d + sub > request.slo


def _over_budget(t_e: float, d: float, share: float, request: Request) -> bool:
    """The split-budget verdict: the *cumulative* elapsed time plus the
    current module's execution exceeds the SLO share allocated to modules
    1..k.  It never sees downstream state (the point of the ablation)."""
    return t_e - request.sent_at + d > request.slo * share


class BudgetMode:
    """Which budget the estimate is compared against (ablation knob)."""

    E2E = "e2e"  # PARD: whole-pipeline SLO vs end-to-end estimate
    SPLIT = "split"  # PARD-split: fixed per-module budget split
    WCL = "wcl"  # PARD-WCL: dynamic worst-case-latency budget split

    ALL = (E2E, SPLIT, WCL)


class PardPolicy(DropPolicy):
    """Proactive request dropping with adaptive request priority."""

    name = "PARD"

    def __init__(
        self,
        lam: float = 0.1,
        samples: int = 10_000,
        sub_mode: str = SubMode.FULL,
        wait_mode: str = WaitMode.QUANTILE,
        priority_mode: str = PriorityMode.ADAPTIVE,
        budget_mode: str = BudgetMode.E2E,
        path_mode: str = PathMode.MAX,
        use_observed_waits: bool = True,
        seed: int = 0,
        name: str | None = None,
    ) -> None:
        super().__init__()
        if budget_mode not in BudgetMode.ALL:
            raise ValueError(f"unknown budget mode {budget_mode!r}")
        self.planner = StatePlanner(
            lam=lam,
            samples=samples,
            wait_mode=wait_mode,
            use_observed_waits=use_observed_waits,
            path_mode=path_mode,
            seed=seed,
        )
        self.broker = RequestBroker(self.planner, sub_mode=sub_mode)
        self.priority = AdaptivePriorityController(mode=priority_mode)
        self.budget_mode = budget_mode
        self._budget_shares: dict[str, float] = {}
        # module id -> share of the heaviest entry-to-module path
        # (inclusive), recomputed from the spec's topological reduction
        # whenever the shares change: O(1) per drop decision.
        self._cum_shares: dict[str, float] = {}
        if name is not None:
            self.name = name

    # -- wiring ---------------------------------------------------------------

    def bind(self, cluster) -> None:
        super().bind(cluster)
        self.planner.bind(cluster)
        self.broker.refresh()
        self._recompute_static_budgets()

    def make_queue(self, module) -> RequestQueue:
        if self.priority.mode == PriorityMode.FCFS:
            return FifoQueue()
        return DeadlineDepqQueue(module, self.priority)

    def on_tick(self, now: float) -> None:
        """Per-second state synchronisation (Figure 4, steps 1-3)."""
        assert self.cluster is not None
        self.planner.refresh(now)
        self.broker.refresh()
        for module in self.cluster.modules.values():
            self.priority.update(module, now)
        if self.budget_mode == BudgetMode.WCL:
            self._recompute_wcl_budgets(now)

    # -- dropping decision ------------------------------------------------------

    def should_drop(self, ctx: DropContext) -> DropReason | None:
        t_e, d, request = ctx.expected_start, ctx.batch_duration, ctx.request
        if self.budget_mode == BudgetMode.E2E:
            if _late(t_e, d, self.broker._sub[ctx.module], request):
                return _ESTIMATED_VIOLATION
            return None
        assert self.cluster is not None
        share = self._cum_shares[self.cluster.hop_id(ctx.module)]
        if _over_budget(t_e, d, share, request):
            return _BUDGET_EXCEEDED
        return None

    def drop_test(self, ctx: DropContext) -> DropTest:
        """:meth:`should_drop`'s expression with this draw's inputs bound.

        Every input but the request is fixed for the whole draw: no drop
        can end the executing batch (t_e), d_k is cached at ``now``, and
        L_sub and the budget shares change only on sync ticks.
        """
        t_e, d = ctx.expected_start, ctx.batch_duration
        if self.budget_mode == BudgetMode.E2E:
            return partial(_late, t_e, d, self.broker._sub[ctx.module])
        assert self.cluster is not None
        share = self._cum_shares[self.cluster.hop_id(ctx.module)]
        return partial(_over_budget, t_e, d, share)

    # -- split-budget ablations ---------------------------------------------------

    def _recompute_static_budgets(self) -> None:
        """PARD-split: fixed shares proportional to profiled duration(1)."""
        assert self.cluster is not None
        spec = self.cluster.spec
        d1 = {
            m.id: self.cluster.registry.get(m.model).duration(1)
            for m in spec.modules
        }
        total = sum(d1.values())
        self._budget_shares = {mid: d / total for mid, d in d1.items()}
        self._cum_shares = spec.cumulative_upstream_max(self._budget_shares)

    def _recompute_wcl_budgets(self, now: float) -> None:
        """PARD-WCL: shares proportional to runtime worst-case latency.

        WCL of a module = recent avg queueing delay + profiled duration +
        worst observed batch wait (falling back to the full duration when
        no samples exist yet).
        """
        assert self.cluster is not None
        wcl: dict[str, float] = {}
        for mid, module in self.cluster.modules.items():
            waits = module.stats.recent_batch_waits(now)
            worst_wait = max(waits) if waits else module.planned_duration
            wcl[mid] = (
                module.stats.avg_queue_delay(now)
                + module.planned_duration
                + worst_wait
            )
        total = sum(wcl.values())
        if total > 0:
            self._budget_shares = {mid: v / total for mid, v in wcl.items()}
            assert self.cluster is not None
            self._cum_shares = self.cluster.spec.cumulative_upstream_max(
                self._budget_shares
            )

    def _cumulative_budget(self, module_id: str, slo: float) -> float:
        """SLO share allocated to modules from the entry through ``module_id``.

        For DAGs the share of a module is counted on the heaviest upstream
        path (consistent with max-over-paths estimation) — read off the
        spec's :meth:`~repro.pipeline.spec.PipelineSpec.cumulative_upstream_max`
        table, which divides the budget over the token flow frozen in the
        spec instead of recursing over (exponentially many) paths.
        """
        return slo * self._cum_shares[module_id]

    def describe(self) -> str:
        # Bracketed so a param-bearing display name ("PARD(lam=0.3)") does
        # not read as nested calls.
        return (
            f"{self.name} [lam={self.planner.lam}, sub={self.broker.sub_mode}, "
            f"wait={self.planner.wait_mode}, prio={self.priority.mode}, "
            f"budget={self.budget_mode}]"
        )
