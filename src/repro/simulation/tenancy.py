"""Multi-tenant serving: several pipeline applications on one cluster.

A :class:`SharedCluster` hosts N applications over shared, name-keyed
worker pools.  Modules from different apps that use the same model profile
share a pool — their requests queue, batch and execute together on the same
workers, so every policy observes the *aggregate* load — while each app
keeps its own SLO, drop policy, router, token-flow join accounting and
:class:`~repro.metrics.collector.MetricsCollector`.

Three pieces make that work:

* **Pool assignment** (:func:`assign_pools`) — deterministically maps every
  (app, module) to a pool key.  The first module of an app using model
  ``X`` maps to pool ``X``; later modules of the *same app* reusing the
  model get a qualified key ``X:<module id>`` (they are distinct DAG hops
  and a request may be queued at both concurrently, so they cannot share
  request-visit identity).  Apps share a pool whenever their keys collide.
* **Tenant views** (:class:`TenantView`) — one per app, carrying the app's
  spec/SLO/metrics and the pool mapping.  The view inherits the full
  fork/join request lifecycle from
  :class:`~repro.simulation.cluster.RequestFlow`; only
  :meth:`~TenantView.hop_id` differs, translating a shared pool back to
  the tenant's own DAG position.
* **The admission seam** (:class:`SharedPolicy`) — the single policy object
  the data plane sees.  It demultiplexes every decision to the owning
  tenant's policy, after an optional cross-app ``admission`` hook that
  observes the pool's aggregate state — the place fairness/throttling
  policies that must see *all* tenants plug in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Sequence

from ..interfaces import DropPolicy, RequestQueue
from ..metrics.collector import MetricsCollector
from ..pipeline.applications import Application
from ..pipeline.profiles import DEFAULT_PROFILES, ProfileRegistry
from ..pipeline.spec import ModuleSpec
from .batching import plan_batch_sizes
from .cluster import RequestFlow
from .engine import Simulator
from .module import Module
from .request import DropReason, Request
from .rng import RngStreams
from .routing import PathRouter, StaticRouter

__all__ = ["PoolSpec", "SharedCluster", "SharedPolicy", "Tenant", "TenantView",
           "assign_pools"]

#: Cross-app admission hook: (request, pool module, now) -> drop reason.
AdmissionHook = Callable[[Request, Module, float], "DropReason | None"]


@dataclass
class Tenant:
    """One application hosted on a shared cluster.

    ``quota`` caps how many workers of a shared pool this tenant's
    requests may dispatch to: an int applies to every pool the tenant is
    a member of, a ``{pool key: n}`` dict caps per pool.
    """

    name: str
    app: Application
    policy: DropPolicy
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    router: PathRouter | None = None
    batch_plan: dict[str, int] | None = None  # module id -> target batch
    quota: int | dict[str, int] | None = None


@dataclass(frozen=True)
class PoolSpec:
    """One shared worker pool: a model served for one or more tenants."""

    key: str
    model: str
    members: tuple[tuple[str, str], ...]  # (tenant name, module id) pairs


def assign_pools(
    apps: Sequence[tuple[str, Application]],
) -> tuple[dict[str, PoolSpec], dict[tuple[str, str], str]]:
    """Deterministic (tenant, module) -> pool assignment.

    Takes ``(tenant name, application)`` pairs and returns ``(pools by
    key, pool key by (tenant name, module id))``.  Pool order follows
    first use across the tenant list, so the layout is stable for
    fingerprinting and cross-process determinism.
    """
    members: dict[str, list[tuple[str, str]]] = {}
    models: dict[str, str] = {}
    by_member: dict[tuple[str, str], str] = {}
    for tname, app in apps:
        first_use: dict[str, str] = {}  # model -> module id within this app
        for m in app.spec.modules:
            if m.model not in first_use:
                first_use[m.model] = m.id
                key = m.model
            else:
                # A second hop of the same app reusing the model: a request
                # can occupy both hops, so this hop needs its own visit
                # identity (and therefore its own pool key).
                key = f"{m.model}:{m.id}"
            if key in models and models[key] != m.model:  # pragma: no cover
                raise ValueError(
                    f"pool key {key!r} maps to both {models[key]!r} and "
                    f"{m.model!r}"
                )
            models[key] = m.model
            members.setdefault(key, []).append((tname, m.id))
            by_member[(tname, m.id)] = key
    pools = {
        key: PoolSpec(key=key, model=models[key], members=tuple(mem))
        for key, mem in members.items()
    }
    return pools, by_member


class TenantView(RequestFlow):
    """One tenant's routing surface over the shared pools.

    Implements the cluster interface per-tenant policies are bound to:
    ``spec``/``slo``/``registry`` are the tenant's own, ``modules`` maps the
    tenant's module ids onto the *shared* pool modules (so policy state
    like the PARD planner reads aggregate pool load), and the inherited
    :class:`~repro.simulation.cluster.RequestFlow` methods give it the same
    token-flow fork/join semantics as a dedicated cluster: per-tenant token
    counters over the tenant's own DAG, translated back from pool ids via
    :meth:`hop_id`, so a shared pool never mixes two tenants' join demand.
    """

    def __init__(
        self,
        shared: "SharedCluster",
        tenant: Tenant,
        pool_of: dict[str, str],  # tenant module id -> pool key
    ) -> None:
        self.shared = shared
        self.name = tenant.name
        self.sim = shared.sim
        self.app = tenant.app
        self.spec = tenant.app.spec
        self.slo = tenant.app.slo
        self.policy = tenant.policy
        self.registry = shared.registry
        self.metrics = tenant.metrics
        self.rng = shared.rng
        self.router = tenant.router or StaticRouter()
        self.hop_delay = shared.hop_delay
        self._rids = shared._rids
        entries = self.spec.entry_ids
        if len(entries) != 1:
            raise ValueError(
                f"pipeline {self.spec.name!r} must have exactly one entry module"
            )
        self.entry_id = entries[0]
        self.modules = {
            mid: shared.pools[key] for mid, key in pool_of.items()
        }
        self._mid_of_pool = {key: mid for mid, key in pool_of.items()}
        self._init_flow_state()

    def hop_id(self, module: Module) -> str:
        """Translate a shared pool back to this tenant's DAG position."""
        return self._mid_of_pool[module.spec.id]

    def submit(self, request: Request) -> None:
        request.app = self.name
        super().submit(request)


class SharedPolicy(DropPolicy):
    """The admission seam: one data-plane policy, demultiplexed per tenant.

    Pool modules and workers consult a single bound policy; this object
    routes every decision to the policy of the request's owning app.  The
    optional ``admission`` hook runs first on every module entry with the
    shared pool in hand — aggregate queue lengths, input rates and worker
    state across *all* tenants — which is where cross-app drop/fairness
    policies belong.
    """

    name = "shared"

    def __init__(
        self,
        shared: "SharedCluster",
        admission: AdmissionHook | None = None,
    ) -> None:
        super().__init__()
        self.shared = shared
        self.admission = admission

    def _tenant_policy(self, request: Request) -> DropPolicy:
        return self.shared.tenants[request.app].policy

    def make_queue(self, module: Module) -> RequestQueue:
        # Queue discipline is a pool-level property (one queue per worker,
        # shared by every tenant's requests): the pool's first tenant picks.
        return self.shared.queue_owner(module).policy.make_queue(module)

    def on_admit(self, request: Request, module: Module, now: float):
        if self.admission is not None:
            reason = self.admission(request, module, now)
            if reason is not None:
                return reason
        return self._tenant_policy(request).on_admit(request, module, now)

    def should_drop(self, ctx):
        return self._tenant_policy(ctx.request).should_drop(ctx)

    def on_tick(self, now: float) -> None:
        for view in self.shared.views.values():
            view.policy.on_tick(now)


class SharedCluster:
    """A simulated cluster serving several pipeline applications at once.

    The counterpart of :class:`~repro.simulation.cluster.Cluster` for the
    shared setting: worker pools are keyed by model name (see
    :func:`assign_pools`) and hold the aggregate load; per-app state lives
    in the :class:`TenantView` built for each tenant.  Reactive scalers and
    failure injectors operate on ``modules`` (the pools) exactly as they do
    on a dedicated cluster.
    """

    def __init__(
        self,
        sim: Simulator,
        tenants: Sequence[Tenant],
        workers: int | dict[str, int],
        registry: ProfileRegistry | None = None,
        rng: RngStreams | None = None,
        sync_interval: float = 1.0,
        stats_window: float = 5.0,
        hop_delay: float = 0.0,
        admission: AdmissionHook | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("a shared cluster needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {sorted(names)}")
        if hop_delay < 0:
            raise ValueError("hop_delay must be >= 0")
        self.sim = sim
        self.registry = registry or DEFAULT_PROFILES
        self.rng = rng or RngStreams(seed=0)
        self.sync_interval = sync_interval
        self.hop_delay = hop_delay
        # One request-id counter for every tenant: LLM workers in a shared
        # pool key KV reservations by rid.
        self._rids = count()
        self.tenants: dict[str, Tenant] = {t.name: t for t in tenants}

        self.pool_specs, self._pool_by_member = assign_pools(
            [(t.name, t.app) for t in tenants]
        )
        # Pool target batch: each tenant plans for its own SLO; a shared
        # pool takes the tightest plan so the most latency-constrained app
        # still fits its budget.
        plans: dict[str, dict[str, int]] = {}
        for tenant in tenants:
            plans[tenant.name] = tenant.batch_plan or plan_batch_sizes(
                tenant.app.spec, self.registry, tenant.app.slo
            )
        self._queue_owners: dict[str, str] = {}
        pool_batch: dict[str, int] = {}
        for key, pool in self.pool_specs.items():
            self._queue_owners[key] = pool.members[0][0]
            pool_batch[key] = min(
                plans[tname][mid] for tname, mid in pool.members
            )

        # The demux policy must exist before the pools: workers pull their
        # queue discipline from it at construction.
        self.policy = SharedPolicy(self, admission=admission)
        self.pools: dict[str, Module] = {}
        for key, pool in self.pool_specs.items():
            if isinstance(workers, dict):
                try:
                    n = workers[key]
                except KeyError:
                    raise ValueError(
                        f"workers must cover every pool; missing {key!r} "
                        f"(pools: {sorted(self.pool_specs)})"
                    ) from None
            else:
                n = workers
            self.pools[key] = Module(
                cluster=self,
                spec=ModuleSpec(id=key, model=pool.model),
                profile=self.registry.get(pool.model),
                target_batch=pool_batch[key],
                n_workers=n,
                stats_window=stats_window,
            )

        # Per-pool worker quotas, installed only where a member tenant
        # declares one (dedicated clusters and quota-free pools keep the
        # None fast path in Module.receive).
        for key, pool in self.pool_specs.items():
            quota_map: dict[str, int] = {}
            for tname, _ in pool.members:
                quota = self.tenants[tname].quota
                if isinstance(quota, dict):
                    if key in quota:
                        quota_map[tname] = quota[key]
                elif quota is not None:
                    quota_map[tname] = quota
            if quota_map:
                self.pools[key]._quota_of = quota_map

        self.views: dict[str, TenantView] = {}
        for tenant in tenants:
            pool_of = {
                mid: self._pool_by_member[(tenant.name, mid)]
                for mid in tenant.app.spec.module_ids
            }
            self.views[tenant.name] = TenantView(self, tenant, pool_of)

        self._tick_started = False
        self._tick_handle = None
        self._periodics: list = []

        self.policy.bind(self)
        for view in self.views.values():
            view.policy.bind(view)
        # Admission (fairness) policies that need cluster state — pool
        # membership, tenant views, aggregate queues — bind last, once the
        # views exist (see repro.policies.fairness.AdmissionPolicy).
        if admission is not None and hasattr(admission, "bind"):
            admission.bind(self)

    # -- cluster interface consumed by modules/workers/scalers -------------

    @property
    def modules(self) -> dict[str, Module]:
        """The shared pools, keyed by pool name.

        Named ``modules`` so scaling engines and failure injectors written
        against :class:`~repro.simulation.cluster.Cluster` operate on a
        shared cluster unchanged — a pool is their unit of capacity.
        """
        return self.pools

    @property
    def slo(self) -> float:
        """Tightest tenant SLO — the pool-level latency yardstick.

        Used only where a single module-level bound is needed (e.g. the
        priority controller's backlog normalisation); per-request decisions
        always use ``request.slo``.
        """
        return min(v.slo for v in self.views.values())

    def queue_owner(self, module: Module) -> Tenant:
        """The tenant whose policy defines ``module``'s queue discipline."""
        return self.tenants[self._queue_owners[module.spec.id]]

    def view(self, name: str) -> TenantView:
        """The routing view of one tenant (KeyError when unknown)."""
        return self.views[name]

    def _view_of(self, request: Request) -> TenantView:
        try:
            return self.views[request.app]
        except KeyError:
            raise ValueError(
                f"request {request.rid} belongs to unknown app "
                f"{request.app!r}; submit through SharedCluster.submit_at"
            ) from None

    def on_module_done(self, request: Request, module: Module) -> None:
        self._view_of(request).on_module_done(request, module)

    def drop(self, request: Request, module_id: str, reason: DropReason) -> None:
        self._view_of(request).drop(request, module_id, reason)

    def drop_run(
        self, requests: Sequence[Request], module_id: str, reason: DropReason
    ) -> None:
        """Drop each of ``requests`` through its own tenant's view."""
        for request in requests:
            self._view_of(request).drop_run((request,), module_id, reason)

    def hop_id(self, module: Module) -> str:
        """Pool-level identity (per-tenant translation lives on the views)."""
        return module.spec.id

    # -- submission --------------------------------------------------------

    def submit_at(self, tenant: str, t: float, slo: float | None = None) -> Request:
        """Schedule one request for ``tenant`` at simulation time ``t``."""
        view = self.views[tenant]
        request = Request(
            sent_at=t, slo=view.slo if slo is None else slo, app=tenant,
            rid=next(self._rids),
        )
        self.sim.schedule(t, view.submit, request)
        return request

    def submit_now(self, tenant: str, t: float,
                   slo: float | None = None) -> Request:
        """Create and inject one request for ``tenant`` arriving at ``t``.

        The streaming-replay entry point (see ``Cluster.submit_now``):
        called from inside a per-tenant arrival-lane event, so requests
        materialize one at a time instead of all before the run.
        """
        view = self.views[tenant]
        request = Request(
            sent_at=t, slo=view.slo if slo is None else slo, app=tenant,
            rid=next(self._rids),
        )
        view.submit(request)
        return request

    # -- periodic control plane --------------------------------------------

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

    # -- introspection -----------------------------------------------------

    def pool_ids(self) -> list[str]:
        """Pool keys in deterministic first-use order."""
        return list(self.pools)

    def total_queue_length(self) -> int:
        return sum(m.queue_length() for m in self.pools.values())
