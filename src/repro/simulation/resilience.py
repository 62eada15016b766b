"""Per-hop resilience: timeouts, retries with backoff, hedging, fallback.

A :class:`HopResilience` declares, for one module of a pipeline, how a
request that gets stuck there is rescued:

* **timeout** — a watchdog armed at arrival; a request still waiting in
  a queue when it fires is acted on per ``on_timeout``:
  ``"retry"`` re-dispatches it (below), ``"drop"`` kills it (a request
  already *executing* is only ever killed, never duplicated).
* **retry** — up to ``retry.max`` re-dispatches with deterministic
  seeded exponential backoff (``base * 2**attempt``, optionally
  jittered from the cluster's named RNG stream).
* **hedge** — one duplicate dispatch to a second worker after a fixed
  delay, first draw wins.
* **fallback** — after retries are exhausted, the hop executes on a
  declared degraded module's workers instead of dropping; the flow
  continues downstream as if the origin module had completed.

Mechanically every rescue is a *duplicate queue entry* for the same
request: the first worker to draw an entry claims the hop by stamping
``visit.t_batched``, and every other entry is lazily skipped at draw
time — the same tombstone discipline the event heap uses for cancelled
events, so a request still terminates exactly once.  Watchdog and hedge
timers are plain heap events that no-op when they fire stale.  A request
queued at the pipeline entry has no visit there until a worker draws it
(see :meth:`Module.receive`), so a missing visit reads as queued and not
yet claimed.

Fallback targets execute the *origin's* visit on their own workers and
must therefore be branches the request will not otherwise visit (e.g. a
sibling branch the router did not choose); a fallback to a module the
request already visited degrades to a drop.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..schema import Int, Num, Opt, Spec, Str, field
from .request import DropReason, Request, RequestStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cluster import Cluster
    from .module import Module

ON_TIMEOUT = ("retry", "drop")


def descendants(spec, module_id: str) -> set[str]:
    """All modules reachable strictly downstream of ``module_id``."""
    out: set[str] = set()
    frontier = list(spec.successors(module_id))
    while frontier:
        mid = frontier.pop()
        if mid in out:
            continue
        out.add(mid)
        frontier.extend(spec.successors(mid))
    return out


@dataclass(frozen=True)
class HopResilience(Spec):
    """Declarative resilience configuration for one pipeline module.

    The dict form nests the retry knobs under one ``retry`` key, which
    (like ``on_timeout``) is emitted only with a timeout.
    """

    _section, _prefix = "resilience", "resilience "

    timeout: float | None = field(Opt(Num("> 0")), None)
    on_timeout: str = field(Str(ON_TIMEOUT), "retry")
    retry_max: int = field(Int(">= 0"), 1, key="retry.max")
    backoff_base: float = field(Num("> 0"), 0.05, key="retry.base")
    backoff_jitter: float = field(Num(">= 0"), 0.0, key="retry.jitter")
    hedge: float | None = field(Opt(Num()), None, omit_default=True)
    fallback: str | None = field(Opt(Str()), None, omit_default=True)

    def _check(self) -> None:
        if self.timeout is None and self.hedge is None:
            raise ValueError(
                "a resilience hop needs at least a timeout or a hedge delay"
            )
        if self.hedge is not None and self.hedge <= 0:
            raise ValueError(
                f"resilience hedge delay must be > 0, got {self.hedge!r}"
            )
        if self.fallback is not None and self.timeout is None:
            raise ValueError("fallback requires a timeout")

    @classmethod
    def _read(cls, data: Any) -> Any:
        if not isinstance(data, Mapping) or "retry" not in data:
            return data
        data = dict(data)
        retry = data.pop("retry")
        if not isinstance(retry, Mapping):
            raise ValueError(
                f"resilience retry must be a mapping, got {retry!r}"
            )
        unknown = set(retry) - {"max", "base", "jitter"}
        if unknown:
            raise ValueError(f"unknown retry keys: {sorted(unknown)}")
        data.update((f"retry.{k}", v) for k, v in retry.items())
        return data

    def _write(self, out: dict) -> dict:
        retry = {k[len("retry."):]: out.pop(k)
                 for k in ("retry.max", "retry.base", "retry.jitter")}
        timeout, on_timeout = out.pop("timeout"), out.pop("on_timeout")
        if timeout is None:
            return out
        return {"timeout": timeout, "on_timeout": on_timeout,
                "retry": retry, **out}


class ResilienceManager:
    """Runtime for the per-hop :class:`HopResilience` configs of a cluster."""

    def __init__(self, cluster: "Cluster", hops: dict[str, HopResilience]) -> None:
        for mid, hop in hops.items():
            if mid not in cluster.modules:
                raise ValueError(f"resilience targets unknown module {mid!r}")
            if hop.fallback is not None:
                if hop.fallback not in cluster.modules:
                    raise ValueError(
                        f"resilience fallback targets unknown module "
                        f"{hop.fallback!r}"
                    )
                if hop.fallback == mid:
                    raise ValueError(
                        f"module {mid!r} cannot fall back to itself"
                    )
                if hop.fallback in descendants(cluster.spec, mid):
                    # The flow would route into the fallback again after
                    # the substituted hop completes — a guaranteed
                    # double-visit.  Valid targets are off-path branches
                    # (e.g. a router-skipped sibling).
                    raise ValueError(
                        f"module {mid!r} cannot fall back to its "
                        f"downstream module {hop.fallback!r}"
                    )
        self.cluster = cluster
        self.sim = cluster.sim
        self.hops = dict(hops)
        self._rng = cluster.rng.stream("resilience")

    # -- arming --------------------------------------------------------------

    def arm(self, request: Request, module: "Module") -> None:
        """Called by a resilient module for every accepted arrival."""
        hop = self.hops[module.spec.id]
        if hop.hedge is not None:
            self.sim.schedule_after(hop.hedge, self._hedge_fire, request, module)
        if hop.timeout is not None:
            self.sim.schedule_after(
                hop.timeout, self._deadline, request, module, 0
            )

    # -- hedging -------------------------------------------------------------

    def _hedge_fire(self, request: Request, module: "Module") -> None:
        if request.status is not RequestStatus.IN_FLIGHT:
            return
        visit = request.visits.get(module.spec.id)
        if visit is not None and visit.t_batched is not None:
            return  # already claimed by a worker: the hedge is moot
        if len(module.candidates(request)) < 2:
            return  # no second machine dispatch may hedge onto
        self.cluster.metrics.res_hedges += 1
        module.dispatch(request)

    # -- timeout / retry / fallback ------------------------------------------

    def _deadline(
        self, request: Request, module: "Module", attempt: int
    ) -> None:
        if request.status is not RequestStatus.IN_FLIGHT:
            return
        mid = module.spec.id
        visit = request.visits.get(mid)
        if visit is not None and visit.t_exec_end is not None:
            return  # the hop completed in time
        hop = self.hops[mid]
        if visit is not None and visit.t_batched is not None:
            # Claimed: forming or executing somewhere.  Duplication cannot
            # help (the claim would make the duplicate a no-op), so the
            # only meaningful action is a kill.
            if hop.on_timeout == "drop":
                self.cluster.metrics.res_timeouts += 1
                self.cluster.drop(request, mid, DropReason.TIMEOUT)
            return
        if module.n_workers == 0:
            # Total outage: the request is parked at the module.  Restart
            # the clock so recovery gets a full budget before retries.
            self.sim.schedule_after(
                hop.timeout, self._deadline, request, module, attempt
            )
            return
        self.cluster.metrics.res_timeouts += 1
        if hop.on_timeout == "drop" or attempt >= hop.retry_max:
            if hop.on_timeout == "retry" and hop.fallback is not None:
                self._fallback(request, module, hop)
            else:
                self.cluster.drop(request, mid, DropReason.TIMEOUT)
            return
        self.sim.schedule_after(
            self._backoff(hop, attempt), self._redispatch, request, module,
            attempt,
        )

    def _backoff(self, hop: HopResilience, attempt: int) -> float:
        delay = hop.backoff_base * (2.0 ** attempt)
        if hop.backoff_jitter:
            delay *= 1.0 + hop.backoff_jitter * float(self._rng.random())
        return delay

    def _redispatch(
        self, request: Request, module: "Module", attempt: int
    ) -> None:
        if request.status is not RequestStatus.IN_FLIGHT:
            return
        mid = module.spec.id
        visit = request.visits.get(mid)
        if visit is not None and visit.t_batched is not None:
            return  # claimed during the backoff window
        hop = self.hops[mid]
        if module.n_workers == 0:
            self.sim.schedule_after(
                hop.timeout, self._deadline, request, module, attempt
            )
            return
        self.cluster.metrics.res_retries += 1
        module.dispatch(request)
        self.sim.schedule_after(
            hop.timeout, self._deadline, request, module, attempt + 1
        )

    def _fallback(
        self, request: Request, module: "Module", hop: HopResilience
    ) -> None:
        mid = module.spec.id
        if hop.fallback in request.visits:
            # The request already visited (or is visiting) the fallback
            # branch; executing the origin's work there would collide.
            self.cluster.drop(request, mid, DropReason.TIMEOUT)
            return
        visit = request.visits[mid]
        # Claim the origin hop so its stale queue entries skip at draw.
        visit.t_batched = self.sim.now
        self.cluster.metrics.res_fallbacks += 1
        flow = self.cluster
        if flow._fallback_origin is None:
            flow._fallback_origin = {}
        flow._fallback_origin[request.rid] = (hop.fallback, mid)
        flow.modules[hop.fallback].receive(request)
