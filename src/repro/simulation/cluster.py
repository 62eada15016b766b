"""Cluster: wires a pipeline spec into modules and routes requests.

Handles the full request lifecycle across the DAG: entry dispatch, hop-by-hop
forwarding, fork (a module with several successors splits the request's token
across the chosen branches), join (a module with several predecessors merges
the tokens it will ever receive), drops (including DAG sibling invalidation)
and completion (every live exit finished).

The lifecycle itself lives in :class:`RequestFlow` so the single-application
:class:`Cluster` and the multi-tenant views in
:mod:`repro.simulation.tenancy` share one implementation of fork/join
accounting — per-tenant routing over shared worker pools only overrides how
a data-plane module maps back to a position in the pipeline DAG
(:meth:`RequestFlow.hop_id`).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from itertools import count

from ..metrics.collector import MetricsCollector
from ..pipeline.applications import Application
from ..pipeline.llm_profiles import LLMProfile
from ..pipeline.profiles import DEFAULT_PROFILES, ProfileRegistry
from ..interfaces import DropPolicy
from .batching import plan_batch_sizes
from .engine import Simulator
from .module import Module
from .request import DropReason, Request, RequestStatus
from .rng import RngStreams
from .routing import PathRouter, StaticRouter

_DROPPED = RequestStatus.DROPPED  # bound once (see .request)


class RequestFlow:
    """Request lifecycle over one pipeline DAG, with token-flow joins.

    Mixin consumed by :class:`Cluster` (modules are exclusively its own)
    and :class:`repro.simulation.tenancy.TenantView` (modules are shared
    pools).  Expects the host to provide ``sim``, ``spec``, ``slo``,
    ``metrics``, ``router``, ``hop_delay``, ``modules`` (DAG module id ->
    data-plane :class:`Module`), ``entry_id`` and ``_rids`` (the run's
    request-id counter), and to call :meth:`_init_flow_state` before the
    first request.

    Join accounting follows the token-flow model (see
    :mod:`repro.pipeline.spec`): a request carries one token per active
    branch, a fork splits its token across the chosen successors, and a
    join fires when every token it will ever receive has arrived.  Under
    full fan-out that demand is the join's in-degree; when a router picks
    a subset of branches, the spec's precomputed per-(fork, branch)
    :class:`~repro.pipeline.spec.KillPlan` says exactly how much demand
    each surviving join loses — no per-request graph walks, and a token
    that re-merges at an early join is never double-counted at later ones.
    """

    def _init_flow_state(self) -> None:
        # Token bookkeeping for DAG pipelines, keyed by request id and
        # populated lazily (chains never touch it):
        # ``_join_arrived``  join id -> tokens received so far;
        # ``_join_expected`` join id -> tokens the join will ever receive
        #                    (present only once a kill plan lowered it
        #                    below the in-degree default);
        # ``_exit_expected`` exits still due to execute (multi-exit DAGs).
        self._join_arrived: dict[int, dict[str, int]] = defaultdict(dict)
        self._join_expected: dict[int, dict[str, int]] = {}
        self._exit_expected: dict[int, int] = {}
        # Fault/resilience state, armed lazily so fault-free flows keep a
        # single is-None check on the hot path:
        # ``_severed``  (src, dst) -> handoffs parked while the link is
        #               partitioned (set by the FailureInjector, replayed
        #               on heal);
        # ``_fallback_origin`` rid -> (fallback module, origin module):
        #               the request executes the origin's hop on the
        #               fallback's workers, and completion is translated
        #               back to the origin for routing.
        self._severed: dict[tuple[str, str], list[Request]] | None = None
        self._fallback_origin: dict[int, tuple[str, str]] | None = None
        # Observed branch choices at forks: (module, successor) -> count.
        # Feeds the request-path prediction extension (§5.2 future work).
        self.branch_counts: dict[tuple[str, str], int] = defaultdict(int)
        # Per-hop DAG neighbourhood, flattened out of the spec: consulted
        # once per module completion / delivery on the request hot path.
        spec = self.spec
        self._successors = {mid: spec.successors(mid) for mid in spec.module_ids}
        self._pred_count = {
            mid: len(spec.predecessors(mid)) for mid in spec.module_ids
        }
        self._n_exits = spec.exit_count
        # Modules whose workers fold decoded tokens into a request late
        # (see repro.simulation.llm); a drop settles them first.
        self._llm_modules = tuple(
            m for m in self.modules.values()
            if isinstance(m.profile, LLMProfile)
        )

    # -- hop translation ---------------------------------------------------

    def hop_id(self, module: Module) -> str:
        """The DAG position a data-plane module represents for this flow.

        For a dedicated cluster the module *is* the DAG node.  Tenant views
        over shared pools override this to translate a pool back to the
        tenant's own module id; policies must use it (rather than
        ``module.spec.id``) whenever they key spec-derived structures by
        the module a request is at.
        """
        return module.spec.id

    def is_entry_module(self, module: Module) -> bool:
        """True when ``module`` serves this flow's pipeline entry."""
        return self.hop_id(module) == self.entry_id

    # -- request lifecycle -------------------------------------------------

    def submit(self, request: Request) -> None:
        """Inject a client request at the pipeline entry."""
        self.metrics.record_submitted()
        self.modules[self.entry_id].receive(request)

    def submit_at(self, t: float, slo: float | None = None) -> Request:
        """Schedule a request to be sent at simulation time ``t``."""
        request = Request(sent_at=t, slo=self.slo if slo is None else slo,
                          rid=next(self._rids))
        self.sim.schedule(t, self.submit, request)
        return request

    def submit_now(self, t: float, slo: float | None = None) -> Request:
        """Create and inject a request arriving at time ``t`` immediately.

        The streaming-replay entry point: the arrival pump calls this
        from inside its lane event, so the request object only exists
        once its send time is reached — unlike :meth:`submit_at`, which
        allocates the request up front.
        """
        request = Request(sent_at=t, slo=self.slo if slo is None else slo,
                          rid=next(self._rids))
        self.submit(request)
        return request

    def on_module_done(self, request: Request, module: Module) -> None:
        """A worker finished executing ``request`` at ``module``."""
        if request.status is _DROPPED:
            # A sibling DAG branch dropped the request while this branch was
            # executing; the GPU time is already attributed and will count
            # as invalid.  Do not forward further.
            return
        hop = self.hop_id(module)
        if self._fallback_origin is not None:
            origin = self._fallback_origin.get(request.rid)
            if origin is not None and origin[0] == hop:
                # The hop executed on its fallback's workers; route the
                # completion as if the origin module had finished.
                del self._fallback_origin[request.rid]
                hop = origin[1]
        subs = self._successors[hop]
        if not subs:
            self._finish_exit(request)
            return
        chosen = subs
        if len(subs) > 1:
            chosen = tuple(self.router.select(request, module, subs))
            for s in chosen:
                self.branch_counts[(hop, s)] += 1
            if chosen is not subs and chosen != subs:
                if len(chosen) > 1 and len(set(chosen)) != len(chosen):
                    raise ValueError(
                        f"router chose duplicate successors {chosen} at "
                        f"fork {hop!r}"
                    )
                self._record_branch_choice(request, hop, subs, chosen)
        severed = self._severed
        if severed is None:
            for sub in chosen:
                self._deliver(request, sub)
            return
        for sub in chosen:
            parked = severed.get((hop, sub))
            if parked is not None:
                parked.append(request)  # partitioned: replayed on heal
            else:
                self._deliver(request, sub)

    def _record_branch_choice(
        self,
        request: Request,
        fork_id: str,
        subs: tuple[str, ...],
        chosen: tuple[str, ...],
    ) -> None:
        """A fork routed ``request`` down a strict subset of its branches.

        Token-flow accounting: the token at the fork splits into one token
        per *chosen* successor, so every unchosen edge stops carrying a
        token.  The spec's precomputed per-(fork, branch)
        :class:`~repro.pipeline.spec.KillPlan` translates each dead edge
        into exit/join demand adjustments; overlapping choices by several
        forks compose through the per-request counters, with joins whose
        demand reaches zero propagating their own death plans.
        """
        spec = self.spec
        for s in subs:
            if s not in chosen:
                self._apply_kill_plan(request, spec.edge_kill_plan(fork_id, s))

    def _apply_kill_plan(self, request: Request, plan) -> None:
        """Apply one spec-level kill plan to this request's token state."""
        if plan.dead_exits:
            self._retire_exits(request, plan.dead_exits)
        for join_id, delta in plan.join_deltas:
            self._kill_join_edges(request, join_id, delta)

    def _retire_exits(self, request: Request, n: int) -> None:
        remaining = self._exit_expected.get(request.rid, self._n_exits) - n
        if remaining <= 0:
            # Impossible by construction: every chosen branch leads to a
            # still-pending exit, so at least one exit stays live.
            raise RuntimeError(
                f"request {request.rid}: token flow retired every exit"
            )
        self._exit_expected[request.rid] = remaining

    def _kill_join_edges(self, request: Request, join_id: str, k: int) -> None:
        """``k`` incoming edges of ``join_id`` will never carry a token."""
        rid = request.rid
        expected_map = self._join_expected.setdefault(rid, {})
        expected = expected_map.get(join_id, self._pred_count[join_id]) - k
        expected_map[join_id] = expected
        arrived_map = self._join_arrived.get(rid)
        arrived = arrived_map.get(join_id, 0) if arrived_map else 0
        if expected < arrived or expected < 0:
            raise RuntimeError(
                f"request {rid}: join {join_id!r} expects {expected} tokens "
                f"but already received {arrived}"
            )
        if expected == 0:
            # The join will never execute: it merges no tokens, and its
            # own outgoing edges go quiet.  Propagate.
            if not self._successors[join_id]:
                self._retire_exits(request, 1)
            self._apply_kill_plan(request, self.spec.death_plan(join_id))
        elif arrived == expected:
            # Every token still en route has already arrived — the fork
            # choice released the join.  Fire it now.
            del arrived_map[join_id]
            self._forward(request, join_id)

    def _deliver(self, request: Request, module_id: str) -> None:
        """Deliver one token to a successor, merging at joins."""
        n_preds = self._pred_count[module_id]
        if n_preds > 1:
            counts = self._join_arrived[request.rid]
            arrived = counts.get(module_id, 0) + 1
            expected_map = self._join_expected.get(request.rid)
            expected = (
                expected_map.get(module_id, n_preds)
                if expected_map
                else n_preds
            )
            if arrived < expected:
                counts[module_id] = arrived
                return  # wait for the remaining tokens
            counts.pop(module_id, None)
        self._forward(request, module_id)

    def _forward(self, request: Request, module_id: str) -> None:
        if self.hop_delay > 0:
            self.sim.schedule_after(
                self.hop_delay, self.modules[module_id].receive, request
            )
        else:
            self.modules[module_id].receive(request)

    def _finish_exit(self, request: Request) -> None:
        """A token reached an exit; complete once every live exit has."""
        if self._n_exits > 1:
            rid = request.rid
            remaining = self._exit_expected.get(rid, self._n_exits) - 1
            if remaining > 0:
                self._exit_expected[rid] = remaining
                return
        request.mark_completed(self.sim.now)
        self._forget((request,))
        self.metrics.record_request(request)

    def drop(self, request: Request, module_id: str, reason: DropReason) -> None:
        """Drop a request at ``module_id`` (idempotent for DAG siblings)."""
        if request.status is not _DROPPED:
            self.drop_run((request,), module_id, reason)

    def drop_run(
        self, requests: Sequence[Request], module_id: str, reason: DropReason
    ) -> None:
        """Drop in-flight ``requests`` at ``module_id`` now, in order.

        Every LLM worker first settles the tokens it decoded for them;
        then each is marked dropped and its token state forgotten, and the
        collector records them all in one call.
        """
        for module in self._llm_modules:
            for worker in module.workers:
                for request in requests:
                    worker.before_drop(request)
        now = self.sim.now
        for request in requests:
            request.mark_dropped(module_id, reason, now)
        self._forget(requests)
        self.metrics.record_drops(requests)

    def _forget(self, requests: Sequence[Request]) -> None:
        """Discard the token state of terminal ``requests``."""
        # Chains without fallbacks never hold token state: nothing to pop.
        if self._join_arrived or self._join_expected or self._exit_expected:
            for request in requests:
                rid = request.rid
                self._join_arrived.pop(rid, None)
                self._join_expected.pop(rid, None)
                self._exit_expected.pop(rid, None)
        if self._fallback_origin:
            for request in requests:
                self._fallback_origin.pop(request.rid, None)

    def branch_probability(self, module_id: str, successor: str) -> float:
        """Observed probability that a request at a fork takes ``successor``.

        Laplace-smoothed over the fork's successors; 1.0 for non-forks.
        Used by the path-prediction extension of the State Planner.
        """
        subs = self.spec.successors(module_id)
        if len(subs) <= 1:
            return 1.0
        counts = {s: self.branch_counts.get((module_id, s), 0) for s in subs}
        total = sum(counts.values()) + len(subs)
        return (counts.get(successor, 0) + 1) / total

    # -- introspection -----------------------------------------------------

    def module_list(self) -> list[Module]:
        """Modules in declaration order (M1..MN for chains)."""
        return [self.modules[mid] for mid in self.spec.module_ids]

    def total_queue_length(self) -> int:
        return sum(m.queue_length() for m in self.modules.values())


class Cluster(RequestFlow):
    """A simulated serving cluster for one pipeline application."""

    def __init__(
        self,
        sim: Simulator,
        app: Application,
        policy: DropPolicy,
        workers: int | dict[str, int],
        registry: ProfileRegistry | None = None,
        batch_plan: dict[str, int] | None = None,
        metrics: MetricsCollector | None = None,
        rng: RngStreams | None = None,
        sync_interval: float = 1.0,
        stats_window: float = 5.0,
        router: PathRouter | None = None,
        hop_delay: float = 0.0,
        resilience: dict | None = None,
    ) -> None:
        if hop_delay < 0:
            raise ValueError("hop_delay must be >= 0")
        self.sim = sim
        self.app = app
        self.spec = app.spec
        self.slo = app.slo
        self.policy = policy
        self.registry = registry or DEFAULT_PROFILES
        # `metrics or ...` would discard a supplied *empty* collector
        # (len() == 0 makes it falsy) — compare against None explicitly.
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.rng = rng or RngStreams(seed=0)
        self.sync_interval = sync_interval
        self.router = router or StaticRouter()
        self.hop_delay = hop_delay
        # Request ids count from 0 per cluster, so a run's records do not
        # depend on what else ran in the process before it.
        self._rids = count()

        entries = self.spec.entry_ids
        if len(entries) != 1:
            raise ValueError(
                f"pipeline {self.spec.name!r} must have exactly one entry module"
            )
        self.entry_id = entries[0]

        plan = batch_plan or plan_batch_sizes(self.spec, self.registry, self.slo)
        self.modules: dict[str, Module] = {}
        for mspec in self.spec.modules:
            if isinstance(workers, dict):
                n = workers[mspec.id]
            else:
                n = workers
            self.modules[mspec.id] = Module(
                cluster=self,
                spec=mspec,
                profile=self.registry.get(mspec.model),
                target_batch=plan[mspec.id],
                n_workers=n,
                stats_window=stats_window,
            )

        # Per-hop resilience (module id -> HopResilience): resolved once
        # into a manager; unconfigured clusters keep every fast path.
        self.resilience = None
        if resilience:
            from .resilience import HopResilience, ResilienceManager

            hops = {
                mid: hop if isinstance(hop, HopResilience)
                else HopResilience.from_dict(hop)
                for mid, hop in resilience.items()
            }
            self.resilience = ResilienceManager(self, hops)
            for mid, hop in hops.items():
                self.modules[mid]._resilience = hop

        self._init_flow_state()
        self._tick_started = False
        self._tick_handle = None
        self._periodics: list = []  # controllers with a stop() method

        self.policy.bind(self)

    # -- periodic control plane ----------------------------------------------

    def start_ticks(self) -> None:
        """Begin the periodic state-synchronisation loop (idempotent)."""
        if self._tick_started:
            return
        self._tick_started = True
        self._tick_handle = self.sim.schedule_after(self.sync_interval, self._tick)

    def _tick(self) -> None:
        self.policy.on_tick(self.sim.now)
        self._tick_handle = self.sim.schedule_after(self.sync_interval, self._tick)

    def register_periodic(self, controller) -> None:
        """Track a periodic controller (e.g. a scaler) to stop at drain."""
        self._periodics.append(controller)

    def stop_ticks(self) -> None:
        """Cancel periodic ticks so the event queue can drain."""
        if self._tick_handle is not None:
            self.sim.cancel(self._tick_handle)
            self._tick_handle = None
        self._tick_started = False
        for controller in self._periodics:
            controller.stop()
