"""Request dispatch among a module's workers."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .worker import Worker


class LeastLoadedDispatcher:
    """Send each request to the worker with the fewest outstanding requests.

    Ties break on worker id, which keeps runs deterministic.
    """

    def pick(self, workers: list["Worker"]) -> "Worker":
        if not workers:
            raise ValueError("no workers available to dispatch to")
        # Manual scan: equivalent to min(key=(load, worker_id)) without
        # allocating a key tuple per worker on the dispatch hot path.
        best = workers[0]
        best_load = best.load
        for i in range(1, len(workers)):
            w = workers[i]
            load = w.load
            if load < best_load or (
                load == best_load and w.worker_id < best.worker_id
            ):
                best = w
                best_load = load
        return best
