"""Tests for the trace container and the synthetic generators."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.workload.generators import (
    arrivals_from_rate,
    azure_trace,
    constant_trace,
    get_trace,
    poisson_trace,
    step_trace,
    tweet_trace,
    wiki_trace,
)
from repro.workload.source import TraceSource
from repro.workload.trace import Trace


class TestTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trace("bad", np.array([2.0, 1.0]), duration=5.0)  # unsorted
        with pytest.raises(ValueError):
            Trace("bad", np.array([1.0, 6.0]), duration=5.0)  # out of range

    def test_non_finite_arrival_rejected(self):
        # nan fails every ordering comparison, so only an explicit
        # finiteness check stops it.
        with pytest.raises(ValueError, match=r"^arrival nan at index 1 is not finite$"):
            Trace("bad", np.array([1.0, np.nan, 2.0]), duration=5.0)

    def test_non_finite_duration_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            Trace("bad", np.array([1.0]), duration=float("inf"))
        with pytest.raises(ValueError, match="not finite"):
            Trace("bad", np.array([1.0]), duration=float("nan"))

    def test_mean_rate(self):
        t = Trace("t", np.linspace(0, 9.9, 100), duration=10.0)
        assert t.mean_rate == pytest.approx(10.0)

    def test_rate_series_counts_everything(self):
        t = poisson_trace(rate=50, duration=20, seed=1)
        _, rates = t.rate_series(window=2.0)
        assert rates.sum() * 2.0 == len(t)

    def test_slice_rebased(self):
        t = constant_trace(rate=10, duration=10)
        s = TraceSource(t).slice(2.0, 5.0).materialize()
        assert s.duration == pytest.approx(3.0)
        assert s.arrivals.min() >= 0
        assert s.arrivals.max() < 3.0
        assert len(s) == pytest.approx(30, abs=1)

    def test_slice_bounds_checked(self):
        t = constant_trace(rate=10, duration=10)
        with pytest.raises(ValueError):
            TraceSource(t).slice(5.0, 3.0)

    def test_thinning(self):
        t = poisson_trace(rate=100, duration=30, seed=2)
        half = TraceSource(t).scaled(0.5)
        assert half.count() == pytest.approx(len(t) / 2, rel=0.15)
        with pytest.raises(ValueError):
            TraceSource(t).scaled(2.0)


class TestGenerators:
    def test_determinism(self):
        a = tweet_trace(base_rate=50, duration=60, seed=5)
        b = tweet_trace(base_rate=50, duration=60, seed=5)
        assert np.array_equal(a.arrivals, b.arrivals)

    def test_seeds_differ(self):
        a = tweet_trace(base_rate=50, duration=60, seed=5)
        b = tweet_trace(base_rate=50, duration=60, seed=6)
        assert not np.array_equal(a.arrivals, b.arrivals)

    def test_poisson_mean_rate(self):
        t = poisson_trace(rate=80, duration=100, seed=0)
        assert t.mean_rate == pytest.approx(80, rel=0.05)

    def test_burstiness_ordering(self):
        """The paper's characterisation: wiki is the calmest trace, azure
        the burstiest."""
        wiki = wiki_trace(base_rate=100, duration=300, seed=0)
        tweet = tweet_trace(base_rate=100, duration=300, seed=0)
        azure = azure_trace(base_rate=100, duration=300, seed=0)
        assert wiki.rate_cv() < azure.rate_cv()
        assert tweet.rate_cv() < azure.rate_cv()

    def test_tweet_burst_doubles_rate(self):
        t = tweet_trace(
            base_rate=100, duration=100, seed=1, burst_at=50, burst_len=20,
            burst_factor=2.0,
        )
        starts, rates = t.rate_series(window=5.0)
        before = rates[(starts >= 25) & (starts < 45)].mean()
        during = rates[(starts >= 55) & (starts < 65)].mean()
        assert during > 1.5 * before

    def test_step_trace_levels(self):
        t = step_trace([(0.0, 20.0), (10.0, 80.0)], duration=20.0, seed=3)
        starts, rates = t.rate_series(window=5.0)
        low = rates[starts < 10].mean()
        high = rates[starts >= 10].mean()
        assert low == pytest.approx(20, rel=0.35)
        assert high == pytest.approx(80, rel=0.25)

    def test_step_realizations_pinned(self):
        """No golden uses a step trace, so pin its bytes here: both entry
        points sample the shared step envelope."""
        pinned = [
            (step_trace([(0.0, 20.0), (10.0, 80.0)], 20.0, seed=3),
             "63ecee7844a3a8c41ae2e691e1eb3d51aa73a1c46ab5335c4280dc57573e18ce"),
            (get_trace("step", base_rate=7.0, duration=10.0, seed=4,
                       rates=[(0.0, 1.0), (5.0, 2.5)]),
             "871cd26ea3c11ba4800e0c9ab6ce006d0794c73dd104e198462b3da90ca85324"),
        ]
        for trace, digest in pinned:
            assert hashlib.sha256(trace.arrivals.tobytes()).hexdigest() == digest

    def test_step_trace_validation(self):
        with pytest.raises(ValueError):
            step_trace([(1.0, 10.0)], duration=5.0)
        with pytest.raises(ValueError):
            step_trace([(0.0, 10.0), (0.0, 20.0)], duration=5.0)

    def test_thinning_bias_guard(self):
        with pytest.raises(ValueError, match="peak_rate"):
            arrivals_from_rate(
                lambda t: np.full_like(t, 100.0), 10.0, 50.0, 0, "bad"
            )

    def test_get_trace_lookup(self):
        t = get_trace("wiki", base_rate=50, duration=30, seed=0)
        assert t.name == "wiki"
        with pytest.raises(KeyError):
            get_trace("nope", base_rate=50, duration=30)

    def test_arrivals_within_duration(self):
        for gen in (wiki_trace, tweet_trace, azure_trace):
            t = gen(base_rate=60, duration=45, seed=9)
            assert t.arrivals.min() >= 0
            assert t.arrivals.max() < 45
