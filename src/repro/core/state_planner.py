"""State Planner: per-module controller state, synchronised cluster-wide.

Each module's State Planner (Figure 4, steps 1-3) monitors worker runtime
state — queueing delay, batch size, throughput — synchronises it across
modules once per ``sync_interval``, and derives the latency budget the
current module must leave for its successors:

    L_sub(k) = sum_{i>k} q_i  +  sum_{i>k} d_i  +  w_k

with w_k the lambda-quantile batch-wait estimate of §4.2.  For DAG
pipelines the estimate is computed per downstream path and the maximum is
used (§4.2 / §5.1).

Each sync reads every module's batch-wait window once, as one float64
array that every path through the module hands to the estimator as is.
Only modules on some downstream path get one: an entry module's waits
are never part of an estimate, so its window is only evicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .batch_wait import BatchWaitEstimator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulation.cluster import Cluster


@dataclass(frozen=True)
class ModuleState:
    """One module's synchronised runtime snapshot."""

    module_id: str
    avg_queue_delay: float  # q_i: sliding-window average queueing delay
    batch_size: int  # current planned batch size
    duration: float  # d_i: profiled execution duration at that batch size
    input_rate: float  # T_in
    throughput: float  # T_m


class WaitMode:
    """How the forward batch wait is estimated (ablation knob)."""

    QUANTILE = "quantile"  # PARD: w_k = F^{-1}(lambda)
    LOWER = "lower"  # PARD-lower: w_k = 0
    UPPER = "upper"  # PARD-upper: w_k = sum d_i

    ALL = (QUANTILE, LOWER, UPPER)


class PathMode:
    """How per-path downstream estimates combine at a fork."""

    #: PARD: worst case over all downstream DAG paths (correct for static
    #: fan-out DAGs, conservative for dynamic per-request paths).
    MAX = "max"
    #: §5.2 future-work extension: weight each path by its observed branch
    #: probability (for pipelines with request-specific dynamic paths).
    PREDICTED = "predicted"

    ALL = (MAX, PREDICTED)


class StatePlanner:
    """Synchronises module states and serves downstream-latency estimates."""

    def __init__(
        self,
        lam: float = 0.1,
        samples: int = 10_000,
        wait_mode: str = WaitMode.QUANTILE,
        use_observed_waits: bool = True,
        path_mode: str = PathMode.MAX,
        seed: int = 0,
    ) -> None:
        if wait_mode not in WaitMode.ALL:
            raise ValueError(f"unknown wait mode {wait_mode!r}")
        if path_mode not in PathMode.ALL:
            raise ValueError(f"unknown path mode {path_mode!r}")
        self.lam = lam
        self.wait_mode = wait_mode
        self.path_mode = path_mode
        self.use_observed_waits = use_observed_waits
        self._estimator = BatchWaitEstimator(lam=lam, samples=samples, seed=seed)
        self.cluster: "Cluster | None" = None
        self._states: dict[str, ModuleState] = {}
        # Recent batch waits of each module on some downstream path, as of
        # the last sync (empty when observed waits are off).
        self._waits: dict[str, np.ndarray] = {}
        self._path_modules: frozenset[str] = frozenset()
        self._sub_estimates: dict[str, float] = {}
        self._path_details: dict[str, list[dict[str, float]]] = {}

    def bind(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        spec = cluster.spec
        self._path_modules = frozenset(
            mid
            for source in spec.module_ids
            for path in spec.paths_from(source)
            for mid in path
        )
        self.refresh(0.0)

    # -- state synchronisation (steps 1-2 in Figure 4) -----------------------

    def snapshot(self, now: float) -> dict[str, ModuleState]:
        """Collect every module's current runtime state."""
        assert self.cluster is not None, "planner not bound to a cluster"
        states: dict[str, ModuleState] = {}
        for mid, module in self.cluster.modules.items():
            states[mid] = ModuleState(
                module_id=mid,
                avg_queue_delay=module.stats.avg_queue_delay(now),
                batch_size=module.effective_batch(now),
                duration=module.effective_duration(now),
                input_rate=module.stats.input_rate(now),
                throughput=module.throughput(),
            )
        return states

    def _observed_waits(self, now: float) -> dict[str, np.ndarray]:
        """Each path module's batch-wait window at ``now``, as one array."""
        assert self.cluster is not None, "planner not bound to a cluster"
        waits: dict[str, np.ndarray] = {}
        path_modules = self._path_modules
        for mid, module in self.cluster.modules.items():
            window = module.stats.batch_waits
            if mid in path_modules:
                waits[mid] = window.values_array(now)
            else:
                window.evict(now)  # never read; keeps its memory bounded
        return waits

    def refresh(self, now: float) -> None:
        """Synchronise states and recompute every module's L_sub estimate."""
        assert self.cluster is not None, "planner not bound to a cluster"
        if self.use_observed_waits:
            self._waits = self._observed_waits(now)
        self._states = self.snapshot(now)
        spec = self.cluster.spec
        self._sub_estimates = {}
        self._path_details = {}
        for mid in spec.module_ids:
            details: list[dict[str, float]] = []
            estimates: list[float] = []
            weights: list[float] = []
            for path in spec.paths_from(mid):
                est, parts = self._path_estimate(path)
                details.append(parts)
                estimates.append(est)
                weights.append(self._path_probability(mid, path))
            if not estimates:
                combined = 0.0
            elif self.path_mode == PathMode.PREDICTED:
                total_w = weighted = 0.0
                for e, w in zip(estimates, weights):
                    total_w += w
                    weighted += e * w
                combined = weighted / total_w if total_w > 0 else max(estimates)
            else:
                combined = max(estimates)
            self._sub_estimates[mid] = combined
            self._path_details[mid] = details

    def _path_probability(self, module_id: str, path: list[str]) -> float:
        """Observed probability of a request taking ``path`` from here.

        Product of branch probabilities at every fork along the path; 1.0
        everywhere for chains (so PREDICTED == MAX on chains).
        """
        assert self.cluster is not None
        prob = 1.0
        prev = module_id
        for nxt in path:
            prob *= self.cluster.branch_probability(prev, nxt)
            prev = nxt
        return prob

    def _path_estimate(self, path: list[str]) -> tuple[float, dict[str, float]]:
        """(L_sub, components) along one downstream path."""
        if not path:
            return 0.0, {"queue": 0.0, "exec": 0.0, "wait": 0.0}
        states = [self._states[mid] for mid in path]
        # Left to right, not sum(): Python 3.12's sum() over floats is
        # compensated, and these sums are pinned bit for bit.
        sum_q = sum_d = 0.0
        for s in states:
            sum_q += s.avg_queue_delay
            sum_d += s.duration
        durations = [s.duration for s in states]
        if self.wait_mode == WaitMode.LOWER:
            w = 0.0
        elif self.wait_mode == WaitMode.UPPER:
            w = sum_d
        else:
            observed = [self._waits.get(mid) for mid in path]
            w = self._estimator.estimate(durations, observed)
        parts = {"queue": sum_q, "exec": sum_d, "wait": w}
        return sum_q + sum_d + w, parts

    # -- queries (step 3 in Figure 4) ----------------------------------------

    def sub_estimate(self, module_id: str) -> float:
        """L_sub for a request currently at ``module_id``.

        Maximum over all downstream DAG paths.  Returns 0 for exit modules.
        """
        return self._sub_estimates.get(module_id, 0.0)

    def path_components(self, module_id: str) -> list[dict[str, float]]:
        """Per-path (queue, exec, wait) components — for analysis/benches."""
        return self._path_details.get(module_id, [])

    def state(self, module_id: str) -> ModuleState:
        """Last synchronised state of one module."""
        return self._states[module_id]

    def sync_payload_bytes(self) -> int:
        """Approximate per-sync state payload size in bytes (overhead bench).

        Mirrors the paper's §5.4 accounting: queueing delay, batch size,
        throughput, drop rate and the batch-wait distribution digest.
        """
        per_module = 8 * 4  # four float64 scalars
        digest = 8 * 32  # 32-point wait-distribution digest
        return (per_module + digest) * len(self._states)
