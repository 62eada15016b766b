"""Path selection for DAG pipelines.

Static DAG pipelines fan a request out to *every* successor at a fork and
merge at joins.  Recent pipelines (paper §5.2, "request-specific dynamic
paths") instead choose a branch per request based on intermediate results —
e.g. the adapted ``da`` application sends each request down either the pose
branch or the face branch, probabilistically.  This module provides the
router seam the cluster uses at every fork.  The probabilistic router
keeps one table per successor tuple, the CDF ``Generator.choice(p=...)``
builds, so a fork costs one uniform draw and a bisection.
"""

from __future__ import annotations

import abc
from bisect import bisect_right
from typing import TYPE_CHECKING

import numpy as np

from .request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .module import Module


class PathRouter(abc.ABC):
    """Chooses which successors a request is forwarded to at a fork."""

    @abc.abstractmethod
    def select(
        self, request: Request, module: "Module", subs: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Non-empty subset of ``subs`` the request should take."""


class StaticRouter(PathRouter):
    """Default fan-out-to-all semantics (the paper's static DAG)."""

    def select(self, request, module, subs):
        return subs


class ProbabilisticRouter(PathRouter):
    """Pick exactly one successor per request, with given weights.

    Models the paper's dynamic-path variant of ``da`` where each request
    probabilistically takes either the pose or the face branch.

    Each fork draws what ``Generator.choice(len(subs), p=w / w.sum())``
    would, without its per-call set-up: the table for a successor tuple
    is the CDF ``choice`` builds (``cdf = p.cumsum(); cdf /= cdf[-1]``,
    after numpy's NaN, sign and sums-to-one checks), built once, and a
    fork answers ``bisect_right(cdf, rng.random())``, the one double
    ``choice`` draws and the index its right-sided ``searchsorted``
    returns.  ``weights`` is read when a successor tuple is first seen.
    """

    #: ``Generator.choice``'s tolerance on the probabilities' sum.
    _SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

    def __init__(
        self,
        weights: dict[str, float] | None = None,
        seed: int = 0,
    ) -> None:
        self.weights = weights
        self._rng = np.random.default_rng(seed)
        self._cdfs: dict[tuple[str, ...], list[float]] = {}

    def select(self, request, module, subs):
        if len(subs) <= 1:
            return subs
        cdf = self._cdfs.get(subs)
        if cdf is None:
            cdf = self._cdfs[subs] = self._cdf(subs)
        return (subs[bisect_right(cdf, self._rng.random())],)

    def _cdf(self, subs: tuple[str, ...]) -> list[float]:
        """The branch CDF ``Generator.choice`` builds for ``subs``."""
        if self.weights:
            w = np.array([self.weights.get(s, 1.0) for s in subs], dtype=float)
        else:
            w = np.ones(len(subs))
        total = w.sum()
        if total <= 0:
            raise ValueError("path weights must sum to a positive value")
        p = w / total
        p_sum = p.sum()
        if np.isnan(p_sum):
            raise ValueError("path weights contain NaN")
        if (p < 0).any():
            raise ValueError("path weights must be non-negative")
        if abs(p_sum - 1.0) > self._SUM_ATOL:
            raise ValueError("path weight probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return cdf.tolist()


class ResultDependentRouter(PathRouter):
    """Route by a caller-supplied function of the request.

    The hook receives the request and the candidate successors and returns
    the chosen subset — the general form of content-dependent routing
    (e.g. "only run face recognition when a face was detected").
    """

    def __init__(self, chooser) -> None:
        self._chooser = chooser

    def select(self, request, module, subs):
        chosen = tuple(self._chooser(request, subs))
        if not chosen:
            raise ValueError("router must choose at least one successor")
        unknown = set(chosen) - set(subs)
        if unknown:
            raise ValueError(f"router chose non-successor modules {unknown}")
        return chosen
