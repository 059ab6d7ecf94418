"""Interval arithmetic and descriptive statistics."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intgarch import (
    DataError,
    Interval,
    IntervalSeries,
    aumann_mean,
    component_acf,
    rho2_distance,
    sample_acf,
    sample_covariance,
    sample_variance,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
radius = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def make_interval(c, r):
    return Interval(center=c, radius=r)


class TestInterval:
    def test_bounds_round_trip(self):
        iv = Interval.from_bounds(-1.0, 3.0)
        assert iv.center == 1.0
        assert iv.radius == 2.0
        assert iv.lower == -1.0
        assert iv.upper == 3.0

    def test_degenerate_point(self):
        iv = Interval.from_bounds(2.5, 2.5)
        assert iv.radius == 0.0
        assert 2.5 in iv
        assert 2.6 not in iv

    def test_contains(self):
        iv = Interval(center=0.0, radius=1.0)
        assert -1.0 in iv and 1.0 in iv and 0.3 in iv
        assert 1.0000001 not in iv

    def test_rejects_negative_radius(self):
        with pytest.raises(DataError, match="radius"):
            Interval(center=0.0, radius=-0.1)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(DataError, match="exceeds"):
            Interval.from_bounds(1.0, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError, match="finite"):
            Interval(center=np.nan, radius=1.0)
        with pytest.raises(DataError, match="finite"):
            Interval(center=0.0, radius=np.inf)


class TestIntervalSeries:
    def test_from_bounds_components(self):
        s = IntervalSeries.from_bounds([-1.0, 1.0], [0.0, 2.0])
        np.testing.assert_array_equal(s.centers, [-0.5, 1.5])
        np.testing.assert_array_equal(s.radii, [0.5, 0.5])
        np.testing.assert_array_equal(s.lowers, [-1.0, 1.0])
        np.testing.assert_array_equal(s.uppers, [0.0, 2.0])

    def test_from_intervals(self):
        s = IntervalSeries.from_intervals([Interval(0.0, 1.0), Interval(2.0, 0.5)])
        assert len(s) == 2
        assert s[1] == Interval(2.0, 0.5)

    def test_iteration_and_slicing(self):
        s = IntervalSeries([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert [iv.center for iv in s] == [0.0, 1.0, 2.0]
        tail = s[1:]
        assert isinstance(tail, IntervalSeries)
        assert len(tail) == 2 and tail[0].center == 1.0

    def test_slicing_keeps_dates(self):
        d = [dt.date(2020, 1, 1), dt.date(2020, 1, 2), dt.date(2020, 1, 3)]
        s = IntervalSeries([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], dates=d)
        assert s[1:].dates == tuple(d[1:])

    def test_rejects_negative_radius_with_position(self):
        with pytest.raises(DataError, match="position 2"):
            IntervalSeries([0.0, 0.0, 0.0], [1.0, 1.0, -1.0])

    def test_rejects_crossed_bounds_with_position(self):
        with pytest.raises(DataError, match="position 1"):
            IntervalSeries.from_bounds([0.0, 1.0], [1.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="equal length"):
            IntervalSeries([0.0, 1.0], [1.0])

    def test_rejects_nonincreasing_dates(self):
        d = [dt.date(2020, 1, 2), dt.date(2020, 1, 2)]
        with pytest.raises(DataError, match="strictly increasing"):
            IntervalSeries([0.0, 1.0], [0.0, 0.0], dates=d)

    def test_equality(self):
        a = IntervalSeries([0.0, 1.0], [1.0, 2.0])
        b = IntervalSeries([0.0, 1.0], [1.0, 2.0])
        c = IntervalSeries([0.0, 1.0], [1.0, 2.5])
        assert a == b
        assert a != c


class TestMeanVariance:
    def test_mean_of_two_intervals(self):
        # mean of [-1, 0] and [1, 2] is [0, 1]
        s = IntervalSeries.from_bounds([-1.0, 1.0], [0.0, 2.0])
        m = aumann_mean(s)
        assert m.lower == pytest.approx(0.0)
        assert m.upper == pytest.approx(1.0)

    def test_mean_empty_raises(self):
        with pytest.raises(DataError, match="empty"):
            aumann_mean(IntervalSeries([], []))

    def test_variance_point_intervals(self):
        # centers {-1, 1}, zero radii: component variance 2 + 0
        s = IntervalSeries([-1.0, 1.0], [0.0, 0.0])
        assert sample_variance(s) == pytest.approx(2.0)

    def test_variance_needs_two(self):
        with pytest.raises(DataError, match="at least 2"):
            sample_variance(IntervalSeries([1.0], [0.5]))

    def test_variance_is_component_sum(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=40)
        r = rng.gamma(2.0, 1.0, size=40)
        s = IntervalSeries(c, r)
        assert sample_variance(s) == pytest.approx(np.var(c, ddof=1) + np.var(r, ddof=1))

    def test_constant_series_zero_variance(self):
        s = IntervalSeries([3.0] * 5, [1.0] * 5)
        assert sample_variance(s) == 0.0

    def test_frechet_minimality(self):
        # the mean interval minimizes the average squared rho2 distance
        rng = np.random.default_rng(11)
        s = IntervalSeries(rng.normal(size=25), rng.gamma(2.0, 0.5, size=25))
        m = aumann_mean(s)

        def objective(a):
            return sum(rho2_distance(iv, a) ** 2 for iv in s)

        base = objective(m)
        for dc, dr in [(0.05, 0.0), (-0.05, 0.0), (0.0, 0.05), (0.02, -0.03)]:
            r = m.radius + dr
            if r < 0:
                continue
            assert objective(Interval(m.center + dc, r)) > base


class TestDistance:
    def test_hand_value(self):
        # centers differ by 3, radii by 4
        assert rho2_distance(Interval(0.0, 1.0), Interval(3.0, 5.0)) == pytest.approx(5.0)

    @given(finite, radius, finite, radius)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_identity(self, c1, r1, c2, r2):
        x, y = Interval(c1, r1), Interval(c2, r2)
        assert rho2_distance(x, y) == rho2_distance(y, x)
        assert rho2_distance(x, x) == 0.0
        if (c1, r1) != (c2, r2):
            assert rho2_distance(x, y) > 0.0

    @given(finite, radius, finite, radius, finite, radius)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, c1, r1, c2, r2, c3, r3):
        x, y, z = Interval(c1, r1), Interval(c2, r2), Interval(c3, r3)
        lhs = rho2_distance(x, z)
        rhs = rho2_distance(x, y) + rho2_distance(y, z)
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-12

    def test_translation_invariance(self):
        x, y = Interval(0.3, 0.7), Interval(-1.1, 0.2)
        shifted = rho2_distance(Interval(x.center + 5, x.radius), Interval(y.center + 5, y.radius))
        assert shifted == pytest.approx(rho2_distance(x, y))


class TestCovarianceCorrelation:
    def test_cov_with_self_is_variance(self):
        # one kernel gives every second moment, so the two agree to the bit
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 300))
            scale = rng.uniform(0.1, 10.0)
            s = IntervalSeries(scale * rng.normal(size=n), scale * rng.gamma(1.5, 1.0, size=n))
            assert sample_covariance(s, s) == sample_variance(s)

    def test_cov_symmetric(self):
        rng = np.random.default_rng(6)
        a = IntervalSeries(rng.normal(size=20), rng.gamma(2.0, 1.0, size=20))
        b = IntervalSeries(rng.normal(size=20), rng.gamma(2.0, 1.0, size=20))
        assert sample_covariance(a, b) == pytest.approx(sample_covariance(b, a))

    def test_corr_self_is_one(self):
        # the covariance scales with each argument, so a series and a scaled
        # copy of it correlate perfectly
        rng = np.random.default_rng(7)
        s = IntervalSeries(rng.normal(size=20), rng.gamma(2.0, 1.0, size=20))
        scaled = IntervalSeries(3.0 * s.centers, 3.0 * s.radii)
        corr = sample_covariance(s, scaled) / np.sqrt(sample_variance(s) * sample_variance(scaled))
        assert corr == pytest.approx(1.0)

    def test_corr_bounded(self):
        # Cauchy-Schwarz: the covariance is an inner product, so any
        # correlation it gives lies in [-1, 1]
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = IntervalSeries(rng.normal(size=15), rng.gamma(2.0, 1.0, size=15))
            b = IntervalSeries(rng.normal(size=15), rng.gamma(2.0, 1.0, size=15))
            assert sample_covariance(a, b) ** 2 <= sample_variance(a) * sample_variance(b) * (1.0 + 1e-12)
        for _ in range(50):
            s = IntervalSeries(rng.normal(size=15), rng.gamma(1.5, 1.0, size=15))
            mirror = IntervalSeries(-s.centers, s.radii.max() - s.radii)
            bound = np.sqrt(sample_variance(s) * sample_variance(mirror))
            assert sample_covariance(s, mirror) >= -bound * (1.0 + 1e-12)

    def test_corr_of_variances_whose_product_overflows(self):
        # each variance is near 1e200, so their product is past the float
        # range; the covariance itself stays finite and scales exactly
        z = np.random.default_rng(0).normal(size=50)
        x = z * 1e100
        s, flipped = IntervalSeries(x, np.abs(x)), IntervalSeries(-x, np.abs(x))
        assert sample_variance(s) > 1e200
        assert sample_covariance(s, s) == sample_variance(s)
        small = IntervalSeries(z, np.abs(z)), IntervalSeries(-z, np.abs(z))
        assert sample_covariance(s, flipped) == pytest.approx(1e200 * sample_covariance(*small), rel=1e-12)
        corr = sample_covariance(s, flipped) / (np.sqrt(sample_variance(s)) * np.sqrt(sample_variance(flipped)))
        assert corr == pytest.approx(sample_covariance(*small) / sample_variance(small[0]), rel=1e-12)

    def test_corr_degenerate_raises(self):
        # a scalar series with no variation has no autocorrelation
        with pytest.raises(DataError, match="degenerate"):
            component_acf([0.4] * 10, 2)

    def test_cov_length_mismatch(self):
        a = IntervalSeries([0.0, 1.0], [0.5, 0.5])
        b = IntervalSeries([0.0, 1.0, 2.0], [0.5, 0.5, 0.5])
        with pytest.raises(DataError, match="lengths differ"):
            sample_covariance(a, b)


class TestAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(9)
        s = IntervalSeries(rng.normal(size=50), rng.gamma(2.0, 1.0, size=50))
        acf = sample_acf(s, 5)
        assert acf.shape == (6,)
        assert acf[0] == 1.0

    def test_alternating_series(self):
        # period-2 sign flips: lag-1 autocorrelation -(n-1)/n under the
        # biased estimator, approaching -1
        n = 200
        c = np.tile([1.0, -1.0], n // 2)
        s = IntervalSeries(c, np.full(n, 0.3))
        acf = sample_acf(s, 2)
        assert acf[1] == pytest.approx(-(n - 1) / n)
        assert acf[1] == pytest.approx(-1.0, abs=0.01)
        assert acf[2] == pytest.approx((n - 2) / n)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(12, 60))
            s = IntervalSeries(rng.normal(size=n), rng.gamma(2.0, 1.0, size=n))
            acf = sample_acf(s, min(8, n - 2))
            assert np.all(np.abs(acf) <= 1.0 + 1e-12)

    def test_component_acf_matches_on_constant_radii(self):
        # constant radii contribute nothing: interval ACF equals center ACF
        rng = np.random.default_rng(12)
        c = rng.normal(size=80)
        s = IntervalSeries(c, np.full(80, 2.0))
        np.testing.assert_allclose(sample_acf(s, 4), component_acf(c, 4), rtol=1e-12)

    @pytest.mark.parametrize("values, message", [
        ([0.1, np.nan, -0.2, 0.3, 0.0], "must be finite"),
        ([0.1, np.inf, -0.2, 0.3, 0.0], "must be finite"),
        ([0.1, -np.inf, -0.2, 0.3, 0.0], "must be finite"),
        ([[0.1, -0.2], [0.3, 0.0], [0.2, 0.1]], "1-d"),
    ])
    def test_component_acf_rejects_non_finite_and_2d_input(self, values, message):
        with pytest.raises(DataError, match=message):
            component_acf(values, 1)

    def test_insufficient_length(self):
        s = IntervalSeries([0.0, 1.0, 2.0], [0.1, 0.1, 0.1])
        with pytest.raises(DataError, match="insufficient"):
            sample_acf(s, 2)

    def test_degenerate_raises(self):
        s = IntervalSeries([1.0] * 10, [1.0] * 10)
        with pytest.raises(DataError, match="degenerate"):
            sample_acf(s, 2)

    def test_negative_lag_rejected(self):
        s = IntervalSeries([0.0, 1.0, 0.0, 1.0], [0.1, 0.2, 0.1, 0.2])
        with pytest.raises(DataError, match="max_lag"):
            sample_acf(s, -1)


class TestMomentsThatOverflow:
    """Centers near 1e200 have squares past the float range: each second
    moment refuses them with a DataError, and numpy warns of nothing."""

    HUGE = IntervalSeries(np.array([-1.0, 1.0] * 30) * 1e200, np.full(60, 1e200))

    @pytest.mark.parametrize("moment", [
        lambda s: sample_covariance(s, s),
        sample_variance,
        lambda s: sample_acf(s, 0),
        lambda s: sample_acf(s, 2),
        lambda s: component_acf(s.centers, 2),
    ], ids=["covariance", "variance", "correlation", "acf", "component-acf"])
    def test_refused(self, moment):
        with pytest.raises(DataError, match="second moments overflow"):
            moment(self.HUGE)


class TestSummarize:
    """The moments that summarize a series (the Aumann mean, the variance
    and the autocorrelations) agree with one another and with their formulas."""

    def test_acov_zero_equals_variance(self):
        # the lag-0 autocovariance, the squared rho2 distances to the mean
        # interval over n-1, is the variance
        rng = np.random.default_rng(13)
        s = IntervalSeries(rng.normal(size=40), rng.gamma(2.0, 1.0, size=40))
        m = aumann_mean(s)
        acov0 = sum(rho2_distance(iv, m) ** 2 for iv in s) / (len(s) - 1)
        assert acov0 == pytest.approx(sample_variance(s), rel=1e-12)

    def test_mean_matches(self):
        # the bounds of the mean interval are the means of the bounds
        rng = np.random.default_rng(15)
        s = IntervalSeries(rng.normal(size=30), rng.gamma(2.0, 1.0, size=30))
        m = aumann_mean(s)
        assert m.lower == pytest.approx(s.lowers.mean(), rel=1e-12)
        assert m.upper == pytest.approx(s.uppers.mean(), rel=1e-12)

    def test_acov_consistent_with_acf(self):
        # each autocorrelation is the summed center and radius cross-products
        # at that lag over the same sum at lag 0
        rng = np.random.default_rng(14)
        n = 60
        s = IntervalSeries(rng.normal(size=n), rng.gamma(2.0, 1.0, size=n))
        c, r = s.centers - s.centers.mean(), s.radii - s.radii.mean()
        acov = np.array([c[: n - k] @ c[k:] + r[: n - k] @ r[k:] for k in range(4)])
        np.testing.assert_allclose(sample_acf(s, 3), acov / acov[0], rtol=1e-12)

    def test_short_series_raises(self):
        # one observation has no second moment of any kind
        s = IntervalSeries([1.0], [0.1])
        for moment in (sample_variance, lambda s: sample_covariance(s, s), lambda s: sample_acf(s, 0)):
            with pytest.raises(DataError, match="insufficient"):
                moment(s)

    @pytest.mark.parametrize("max_lag", [-1, -2])
    def test_negative_max_lag_raises(self, max_lag):
        # a DataError from both ACFs, not an IndexError or numpy's ValueError
        s = IntervalSeries([0.0, 1.0, 0.0, 1.0], [0.1, 0.2, 0.1, 0.2])
        with pytest.raises(DataError, match="max_lag"):
            sample_acf(s, max_lag)
        with pytest.raises(DataError, match="max_lag"):
            component_acf(s.centers, max_lag)
