"""Tests for batch-wait estimation, including the paper's printed quantiles."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batch_wait import (
    BatchWaitEstimator,
    aggregated_wait_quantile_uniform,
    irwin_hall_cdf,
    irwin_hall_quantile,
    linear_quantile,
)


def same_float(got: float, want: float) -> bool:
    """Bit-identical (so ``0.0`` is not ``-0.0``), or both NaN."""
    if math.isnan(want):
        return math.isnan(got)
    return struct.pack("<d", got) == struct.pack("<d", want)


@st.composite
def sample_arrays(draw) -> np.ndarray:
    """1-20,000 float64 values: uniform, heavily tied (signed zeros among
    the ties) or spread over 600 decades, with an optional NaN anywhere."""
    n = draw(st.integers(min_value=1, max_value=20_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("uniform", "ties", "wide")))
    if shape == "uniform":
        values = rng.uniform(0.0, 1.0, n)
    elif shape == "ties":
        values = rng.choice(np.array([-0.0, 0.0, 0.25, 1.0, 3.0]), n)
    else:
        values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-300, 301, n)
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = np.nan
    return values


#: Any float64 at all, infinities and NaN included, in small arrays.
small_arrays = st.lists(st.floats(width=64), min_size=1, max_size=40).map(
    lambda xs: np.array(xs, dtype=float)
)

#: What the State Planner quantiles: a sum of 10,000 draws.
PLANNER_SUM = np.random.default_rng(0).uniform(0.0, 0.2, 10_000)


class TestIrwinHall:
    def test_cdf_bounds(self):
        assert irwin_hall_cdf(-1.0, 3) == 0.0
        assert irwin_hall_cdf(0.0, 3) == 0.0
        assert irwin_hall_cdf(3.0, 3) == 1.0
        assert irwin_hall_cdf(5.0, 3) == 1.0

    def test_n1_is_uniform(self):
        for x in (0.1, 0.5, 0.9):
            assert irwin_hall_cdf(x, 1) == pytest.approx(x)

    def test_n2_triangular(self):
        # Sum of two U(0,1): CDF(x) = x^2/2 for x <= 1.
        assert irwin_hall_cdf(0.5, 2) == pytest.approx(0.125)
        assert irwin_hall_cdf(1.0, 2) == pytest.approx(0.5)

    def test_median_is_half_n(self):
        for n in (1, 2, 3, 4, 7):
            assert irwin_hall_quantile(0.5, n) == pytest.approx(n / 2, abs=1e-6)

    def test_quantile_inverts_cdf(self):
        for n in (1, 3, 5):
            for p in (0.05, 0.25, 0.5, 0.9):
                x = irwin_hall_quantile(p, n)
                assert irwin_hall_cdf(x, n) == pytest.approx(p, abs=1e-6)

    def test_paper_figure6_quantiles(self):
        """The paper's worked example: lambda = 0.1 in a 4-module pipeline
        with equal durations d gives w = 1.24d (4 modules), 0.84d (3),
        0.44d (2) and 0.10d (1)."""
        assert irwin_hall_quantile(0.1, 4) == pytest.approx(1.24, abs=0.01)
        assert irwin_hall_quantile(0.1, 3) == pytest.approx(0.84, abs=0.01)
        assert irwin_hall_quantile(0.1, 2) == pytest.approx(0.44, abs=0.01)
        assert irwin_hall_quantile(0.1, 1) == pytest.approx(0.10, abs=0.01)

    def test_paper_figure6_fractions_of_total(self):
        """Same numbers expressed as the paper does: fractions of sum d_i
        (0.31, 0.28, 0.22, 0.10)."""
        for n, frac in ((4, 0.31), (3, 0.28), (2, 0.22), (1, 0.10)):
            assert irwin_hall_quantile(0.1, n) / n == pytest.approx(frac, abs=0.005)

    @given(st.integers(min_value=1, max_value=20),
           st.floats(min_value=0.01, max_value=0.99))
    def test_property_cdf_monotone(self, n, p):
        x = irwin_hall_quantile(p, n)
        assert 0 <= x <= n
        assert irwin_hall_cdf(x - 0.01, n) <= irwin_hall_cdf(x + 0.01, n)


class TestAggregatedQuantile:
    def test_empty_durations(self):
        assert aggregated_wait_quantile_uniform([], 0.5) == 0.0

    def test_equal_durations_match_irwin_hall(self):
        q = aggregated_wait_quantile_uniform([0.1, 0.1, 0.1], 0.25)
        assert q == pytest.approx(0.1 * irwin_hall_quantile(0.25, 3), abs=1e-6)

    def test_extremes(self):
        ds = [0.1, 0.2, 0.3]
        assert aggregated_wait_quantile_uniform(ds, 0.0) == 0.0
        assert aggregated_wait_quantile_uniform(ds, 1.0) == pytest.approx(0.6)

    def test_unequal_durations_close_to_monte_carlo(self):
        ds = [0.05, 0.10, 0.20]
        rng = np.random.default_rng(0)
        samples = sum(rng.uniform(0, d, 200_000) for d in ds)
        for lam in (0.1, 0.5, 0.9):
            approx = aggregated_wait_quantile_uniform(ds, lam)
            exact = np.quantile(samples, lam)
            assert approx == pytest.approx(exact, rel=0.12, abs=0.01)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            aggregated_wait_quantile_uniform([-0.1], 0.5)

    def test_sums_left_to_right(self):
        # The moments add 0.1, 0.2 and 0.3 left to right; Python 3.12's
        # compensated sum() would give 0.2999999999912688.
        q = aggregated_wait_quantile_uniform([0.1, 0.2, 0.3], 0.5)
        assert q == 0.2999999999912689

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=6),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_quantile_within_support(self, ds, lam):
        q = aggregated_wait_quantile_uniform(ds, lam)
        assert 0.0 <= q <= sum(ds) + 1e-9


class TestLinearQuantile:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(sample_arrays(), small_arrays), st.floats(0.0, 1.0))
    @example(PLANNER_SUM, 0.0)
    @example(PLANNER_SUM, 0.1)
    @example(PLANNER_SUM, 0.5)
    @example(PLANNER_SUM, 1.0)
    @example(np.array([0.0, -0.0, 0.0]), 0.5)
    @example(np.array([-93.28288493890713, 71.48085531751387]), 0.5)  # lerp forms differ
    @example(np.array([1.0, np.inf]), 0.0)
    @example(np.array([np.inf]), 0.5)
    @example(np.array([0.5, np.nan, 0.1]), 0.1)
    def test_property_equals_numpy_bit_for_bit(self, values, lam):
        """np.quantile is the reference; CI installs numpy unpinned, so
        this also catches a numpy release that changes its lerp."""
        with np.errstate(all="ignore"):
            want = float(np.quantile(values, lam))
            got = linear_quantile(values.copy(), lam)
        assert type(got) is float
        assert same_float(got, want), (got, want)


class TestBatchWaitEstimator:
    def test_lambda_zero_is_lower_bound(self):
        est = BatchWaitEstimator(lam=0.0)
        assert est.estimate([0.1, 0.2]) == 0.0

    def test_lambda_one_is_upper_bound(self):
        est = BatchWaitEstimator(lam=1.0)
        assert est.estimate([0.1, 0.2]) == pytest.approx(0.3)

    def test_lambda_one_sums_left_to_right(self):
        # 0.1 + 0.2 + 0.3 left to right; Python 3.12's compensated sum()
        # would give 0.6.
        est = BatchWaitEstimator(lam=1.0)
        assert est.estimate([0.1, 0.2, 0.3]) == 0.6000000000000001

    def test_default_matches_irwin_hall(self):
        est = BatchWaitEstimator(lam=0.1, samples=50_000, seed=1)
        got = est.estimate([0.1, 0.1, 0.1, 0.1])
        expected = 0.1 * irwin_hall_quantile(0.1, 4)
        assert got == pytest.approx(expected, rel=0.05)

    def test_quantile_monotone_in_lambda(self):
        ds = [0.1, 0.15]
        qs = [
            BatchWaitEstimator(lam=lam, samples=20_000, seed=2).estimate(ds)
            for lam in (0.1, 0.3, 0.5, 0.9)
        ]
        assert qs == sorted(qs)

    def test_observed_samples_override_uniform_model(self):
        # All observed waits pinned at the maximum: the estimate must rise
        # far above the uniform-model quantile.
        est = BatchWaitEstimator(lam=0.1, samples=5_000, min_observed=10, seed=3)
        observed = [[0.1] * 50]
        got = est.estimate([0.1], observed=observed)
        assert got == pytest.approx(0.1, abs=1e-9)

    def test_too_few_observed_falls_back_to_uniform(self):
        est = BatchWaitEstimator(lam=0.5, samples=50_000, min_observed=30, seed=4)
        got = est.estimate([0.1], observed=[[0.1] * 5])
        assert got == pytest.approx(0.05, rel=0.05)  # uniform median

    def test_empty_durations(self):
        assert BatchWaitEstimator().estimate([]) == 0.0

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            BatchWaitEstimator(lam=1.5)

    def test_list_and_array_observations_draw_alike(self):
        """The planner hands arrays, callers may hand lists: same float,
        same generator state afterwards."""
        waits = [0.01 * (i % 7) for i in range(40)]
        durations = [0.05, 0.08, 0.03]
        results, states = [], []
        for observed in (
            [waits, None, [0.02] * 5],
            [np.array(waits), None, np.array([0.02] * 5)],
        ):
            est = BatchWaitEstimator(lam=0.1, samples=4_000, seed=9)
            results.append(est.estimate(durations, observed))
            states.append(est._rng.bit_generator.state)
        assert same_float(results[0], results[1])
        assert states[0] == states[1]
