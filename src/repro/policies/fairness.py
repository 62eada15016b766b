"""Cross-app fairness policies for the shared-cluster admission seam.

A :class:`~repro.simulation.tenancy.SharedCluster` consults one optional
``admission`` hook on every module entry *before* the owning tenant's own
drop policy runs — the only place a policy observes the aggregate state of
all tenants at once.  The two policies here are the seam's first
parameterized occupants, declared entirely from JSON via
``MultiScenario.admission`` (a :class:`~repro.policies.spec.PolicySpec`):

* ``weighted-fair`` — weighted fair *dropping*: when a shared pool's
  backlog exceeds capacity, requests of tenants consuming more than their
  weighted share of the pool's recent demand are shed first, so a
  well-behaved victim keeps its share through an aggressor's burst.
* ``token-bucket`` — per-tenant *rate limiting*: each tenant refills a
  token bucket at ``rate x weight`` requests/s (burst capacity
  ``burst`` seconds of that rate) and is charged one token at its entry
  hop; requests beyond the sustained rate are rejected up front.

Both are deterministic (no RNG draw), so shared-cluster sweeps stay
bitwise-identical across worker counts.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Mapping

from ..simulation.request import DropReason, Request
from .spec import ParamSpec
from .registry import register_admission

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulation.module import Module
    from ..simulation.tenancy import SharedCluster

__all__ = ["AdmissionPolicy", "TokenBucketPolicy", "WeightedFairDropPolicy"]


class AdmissionPolicy:
    """Base of cross-app admission policies (the ``admission`` hook).

    Instances are callables matching :data:`~repro.simulation.tenancy.
    AdmissionHook` and are bound to the shared cluster before the run
    (:meth:`bind` — called by ``SharedCluster.__init__``), which is where
    tenant views, pool membership and weights meet.
    """

    name = "admission"

    def __init__(self, weights: Mapping[str, float]) -> None:
        self.weights = {str(k): float(v) for k, v in weights.items()}
        self.shared: "SharedCluster | None" = None

    def bind(self, shared: "SharedCluster") -> None:
        self.shared = shared

    def weight_of(self, tenant: str) -> float:
        """Declared weight of a tenant (1.0 when not declared)."""
        return self.weights.get(tenant, 1.0)

    def __call__(
        self, request: Request, module: "Module", now: float
    ) -> DropReason | None:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class WeightedFairDropPolicy(AdmissionPolicy):
    """Drop over-share tenants first when a shared pool backs up.

    Demand is tracked per (pool, tenant) over a sliding ``window`` of
    arrivals.  While the pool's queue exceeds ``backlog`` requests per
    worker, an arriving request is shed iff its tenant's share of the
    pool's windowed demand exceeds ``slack`` times its weighted fair share
    among the pool's member tenants — dropping *only* the tenants pushing
    past their share, never the ones under it.
    """

    name = "weighted-fair"

    def __init__(
        self,
        weights: Mapping[str, float],
        backlog: float = 4.0,
        window: float = 5.0,
        slack: float = 1.25,
    ) -> None:
        super().__init__(weights)
        if backlog <= 0:
            raise ValueError("backlog must be > 0")
        if window <= 0:
            raise ValueError("window must be > 0")
        if slack < 1.0:
            raise ValueError("slack must be >= 1.0 (a tolerance)")
        self.backlog = backlog
        self.window = window
        self.slack = slack
        self._demand: dict[tuple[str, str], deque[float]] = {}

    def _record(self, pool: str, tenant: str, now: float) -> None:
        q = self._demand.setdefault((pool, tenant), deque())
        q.append(now)
        cutoff = now - self.window
        while q and q[0] < cutoff:
            q.popleft()

    def __call__(
        self, request: Request, module: "Module", now: float
    ) -> DropReason | None:
        assert self.shared is not None, "admission policy used unbound"
        pool_key = module.spec.id
        self._record(pool_key, request.app, now)
        if module.queue_length() <= self.backlog * max(1, module.n_workers):
            return None
        # Sorted member order: float sums must not depend on set-iteration
        # order (salted string hashing), or cached cells could disagree
        # bitwise with their recomputation.
        members = sorted({
            tname for tname, _ in self.shared.pool_specs[pool_key].members
        })
        # Prune every member's deque to the window and count via len():
        # timestamps only ever leave from the left, so this is amortized
        # O(1) per arrival instead of rescanning the window each time.
        cutoff = now - self.window
        counts: dict[str, int] = {}
        for t in members:
            q = self._demand.get((pool_key, t))
            if q is not None:
                while q and q[0] < cutoff:
                    q.popleft()
            counts[t] = len(q) if q is not None else 0
        total = sum(counts.values())
        if total == 0:
            return None
        total_weight = sum(self.weight_of(t) for t in members)
        fair = self.weight_of(request.app) / total_weight
        share = counts[request.app] / total
        if share > self.slack * fair:
            return DropReason.ADMISSION_CONTROL
        return None

    def describe(self) -> str:
        return (f"{self.name}(backlog={self.backlog}, window={self.window}, "
                f"slack={self.slack})")


class TokenBucketPolicy(AdmissionPolicy):
    """Per-tenant token-bucket rate limit at the pipeline entry.

    Tenant ``t`` refills at ``rate x weight_t`` tokens/s up to a capacity
    of ``burst`` seconds of that rate; each request is charged one token
    when it enters its *entry* hop (downstream hops are free — the request
    was already admitted).  An empty bucket rejects the request with
    ``ADMISSION_CONTROL``, bounding every tenant's sustained rate no
    matter how aggressively it submits.
    """

    name = "token-bucket"

    def __init__(
        self,
        weights: Mapping[str, float],
        rate: float = 50.0,
        burst: float = 2.0,
    ) -> None:
        super().__init__(weights)
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if burst <= 0:
            raise ValueError("burst must be > 0")
        self.rate = rate
        self.burst = burst
        # tenant -> (token level, last refill time); buckets start full.
        self._buckets: dict[str, tuple[float, float]] = {}

    def _tenant_rate(self, tenant: str) -> float:
        return self.rate * self.weight_of(tenant)

    def __call__(
        self, request: Request, module: "Module", now: float
    ) -> DropReason | None:
        assert self.shared is not None, "admission policy used unbound"
        view = self.shared.views.get(request.app)
        if view is None or view.hop_id(module) != view.entry_id:
            return None
        rate = self._tenant_rate(request.app)
        # Capacity is floored at one token: a low-weight tenant whose
        # burst allowance rounds below a single request must still be
        # *rate-limited* (admitted as tokens accrue), never starved.
        cap = max(1.0, self.burst * rate)
        level, last = self._buckets.get(request.app, (cap, now))
        level = min(cap, level + (now - last) * rate)
        if level < 1.0:
            self._buckets[request.app] = (level, now)
            return DropReason.ADMISSION_CONTROL
        self._buckets[request.app] = (level - 1.0, now)
        return None

    def describe(self) -> str:
        return f"{self.name}(rate={self.rate}, burst={self.burst})"


@register_admission("weighted-fair", params=(
    ParamSpec("backlog", "float", 4.0, low=0, exclusive=True,
              help="queued requests per worker marking the pool congested"),
    ParamSpec("window", "float", 5.0, low=0, exclusive=True,
              help="sliding demand-measurement window (s)"),
    ParamSpec("slack", "float", 1.25, low=1,
              help="tolerated overshoot of the weighted fair share"),
))
def _weighted_fair(
    weights: Mapping[str, float], seed: int, **params
) -> WeightedFairDropPolicy:
    return WeightedFairDropPolicy(weights, **params)


@register_admission("token-bucket", params=(
    ParamSpec("rate", "float", 50.0, low=0, exclusive=True,
              help="tokens/s per unit of tenant weight"),
    ParamSpec("burst", "float", 2.0, low=0, exclusive=True,
              help="bucket capacity, in seconds of the sustained rate"),
))
def _token_bucket(
    weights: Mapping[str, float], seed: int, **params
) -> TokenBucketPolicy:
    return TokenBucketPolicy(weights, **params)
