"""Model definition, stationarity conditions, and closed-form moments."""

import json
import math

import numpy as np
import pytest

from intgarch import (
    ABS_NORMAL_MEAN,
    ModelError,
    ModelOrders,
    ModelParams,
    mean_stationarity,
    strict_stationarity_check,
    theoretical_acf,
    theoretical_acov,
    theoretical_moments,
    volatility,
    weak_stationarity,
)
from intgarch.process import recurse

# Benchmark parameter set used throughout: k=1.8147, mu=0.0906,
# alpha1=0.0318, beta1=0.374, gamma1=0.1265.
MODEL_I = ModelParams.first_order(k=1.8147, mu=0.0906, alpha1=0.0318, beta1=0.374, gamma1=0.1265)

# Frozen oracles for MODEL_I, computed from the closed forms
#   c1 = a1*sqrt(2/pi) + b1*k + g1
#   c2 = a1^2 + b1^2*k(k+1) + g1^2 + 2a1b1*sqrt(2/pi)*k + 2a1g1*sqrt(2/pi) + 2b1g1*k
#   E(h) = mu/(1-c1),  E(h^2) = mu^2(1+c1)/((1-c1)(1-c2))
#   Var(r) = (1+k+k^2) E(h^2) - k^2 E(h)^2
# and cross-checked against long-run Monte Carlo averages.
C1_I = 0.8305705290335312
C2_I = 0.9440478455204308
MEAN_H_I = 0.5347357781570973
MEAN_H2_I = 1.5850285628312912
VAR_R_I = 8.739447579257927
ACOV1_I = 5.505410260803645


class TestModelOrders:
    def test_scalars(self):
        o = ModelOrders(2, 1, 3)
        assert o.max_lag == 3
        assert o.n_params == 7

    def test_w_zero_allowed(self):
        assert ModelOrders(1, 1, 0).n_params == 3

    @pytest.mark.parametrize("pqw", [(0, 1, 1), (1, 0, 1), (1, 1, -1)])
    def test_invalid_orders(self, pqw):
        with pytest.raises(ModelError):
            ModelOrders(*pqw)


class TestModelParams:
    def test_first_order_fields(self):
        m = MODEL_I
        assert m.orders == ModelOrders(1, 1, 1)
        assert m.alpha == (0.0318,)
        assert m.beta == (0.374,)
        assert m.gamma == (0.1265,)

    def test_first_order_without_gamma(self):
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=0.2, beta1=0.3)
        assert m.orders == ModelOrders(1, 1, 0)
        assert m.gamma == ()

    def test_theta_round_trip(self):
        theta = MODEL_I.theta
        np.testing.assert_array_equal(theta, [0.0906, 0.0318, 0.374, 0.1265])
        again = MODEL_I.with_theta(theta * 1.5)
        assert again.mu == pytest.approx(0.1359)
        assert again.k == MODEL_I.k
        assert again.orders == MODEL_I.orders

    def test_with_theta_wrong_length(self):
        with pytest.raises(ModelError, match="length"):
            MODEL_I.with_theta([0.1, 0.2])

    def test_param_names(self):
        assert MODEL_I.param_names() == ["mu", "alpha1", "beta1", "gamma1"]
        m = ModelParams(ModelOrders(2, 1, 0), 1.0, 0.1, (0.1, 0.1), (0.1,), ())
        assert m.param_names() == ["mu", "alpha1", "alpha2", "beta1"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=-1.0, mu=0.1, alpha1=0.1, beta1=0.1, gamma1=0.1),
            dict(k=0.0, mu=0.1, alpha1=0.1, beta1=0.1, gamma1=0.1),
            dict(k=1.0, mu=0.0, alpha1=0.1, beta1=0.1, gamma1=0.1),
            dict(k=1.0, mu=-0.1, alpha1=0.1, beta1=0.1, gamma1=0.1),
            dict(k=1.0, mu=0.1, alpha1=-0.1, beta1=0.1, gamma1=0.1),
            dict(k=1.0, mu=0.1, alpha1=0.1, beta1=np.nan, gamma1=0.1),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ModelError):
            ModelParams.first_order(**kwargs)

    def test_coefficient_length_checks(self):
        with pytest.raises(ModelError, match="alpha"):
            ModelParams(ModelOrders(2, 1, 1), 1.0, 0.1, (0.1,), (0.1,), (0.1,))

    def test_dict_round_trip(self):
        d = MODEL_I.to_dict()
        assert d["orders"] == [1, 1, 1]
        assert ModelParams.from_dict(json.loads(json.dumps(d))) == MODEL_I

    def test_malformed_document(self):
        from intgarch import DataError

        with pytest.raises(DataError, match="malformed"):
            ModelParams.from_dict({"orders": [1, 1, 1], "k": 1.0})


class TestVarianceScales:
    def test_volatility(self):
        # (1 + k/3) h^2
        assert volatility(MODEL_I, 0.5) == pytest.approx(0.25 * (1 + 1.8147 / 3))

    def test_volatility_vectorized(self):
        h = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(volatility(MODEL_I, h), (1 + 1.8147 / 3) * h**2)


class TestStationarity:
    def test_benchmark_weights(self):
        ok, s = mean_stationarity(MODEL_I)
        assert ok
        assert s == pytest.approx(C1_I, rel=1e-14)

    def test_benchmark_weak(self):
        ok, c1, c2 = weak_stationarity(MODEL_I)
        assert ok
        assert c1 == pytest.approx(C1_I, rel=1e-14)
        assert c2 == pytest.approx(C2_I, rel=1e-14)

    def test_c1_formula(self):
        # c1 = alpha1 sqrt(2/pi) + beta1 k + gamma1, assembled by hand
        _, c1, _ = weak_stationarity(MODEL_I)
        by_hand = 0.0318 * math.sqrt(2 / math.pi) + 0.374 * 1.8147 + 0.1265
        assert c1 == pytest.approx(by_hand, rel=1e-15)
        assert ABS_NORMAL_MEAN == pytest.approx(math.sqrt(2 / math.pi), rel=1e-15)

    def test_c2_formula(self):
        a, b, g, k = 0.0318, 0.374, 0.1265, 1.8147
        e_abs = math.sqrt(2 / math.pi)
        by_hand = (
            a * a
            + b * b * k * (k + 1)
            + g * g
            + 2 * a * b * e_abs * k
            + 2 * a * g * e_abs
            + 2 * b * g * k
        )
        _, _, c2 = weak_stationarity(MODEL_I)
        assert c2 == pytest.approx(by_hand, rel=1e-14)

    def test_mean_stationary_but_not_weak(self):
        # push second moment past 1 while keeping the mean condition
        m = ModelParams.first_order(k=3.0, mu=0.1, alpha1=0.05, beta1=0.28, gamma1=0.05)
        ok_mean, s = mean_stationarity(m)
        ok_weak, c1, c2 = weak_stationarity(m)
        assert ok_mean and s < 1.0
        assert not ok_weak and c2 >= 1.0

    def test_nonstationary(self):
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=0.5, beta1=0.9, gamma1=0.3)
        ok, s = mean_stationarity(m)
        assert not ok and s >= 1.0

    def test_strict_condition(self):
        assert strict_stationarity_check(MODEL_I)
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=0.5, beta1=0.9, gamma1=0.3)
        assert not strict_stationarity_check(m)

    def test_weak_requires_first_order(self):
        m = ModelParams(ModelOrders(2, 1, 1), 1.0, 0.1, (0.1, 0.1), (0.1,), (0.1,))
        with pytest.raises(ModelError):
            weak_stationarity(m)


class TestTheoreticalMoments:
    def test_benchmark_moments(self):
        tm = theoretical_moments(MODEL_I)
        assert tm.mean_h == pytest.approx(MEAN_H_I, rel=1e-14)
        assert tm.mean_h2 == pytest.approx(MEAN_H2_I, rel=1e-14)
        assert tm.var_r == pytest.approx(VAR_R_I, rel=1e-14)
        # published rounded figures stay inside loose bands
        assert tm.c2 == pytest.approx(0.94409, abs=5e-5)
        assert tm.mean_h2 == pytest.approx(1.5866, abs=2e-3)

    def test_mean_return_interval(self):
        tm = theoretical_moments(MODEL_I)
        assert tm.mean_r.center == 0.0
        assert tm.mean_r.radius == pytest.approx(1.8147 * MEAN_H_I, rel=1e-14)
        assert tm.mean_r.radius == pytest.approx(0.9703850166216844, rel=1e-14)

    def test_constant_scale_edge(self):
        # alpha=beta=gamma=0 collapses h to mu
        m = ModelParams(ModelOrders(1, 1, 0), 2.0, 0.7, (0.0,), (0.0,), ())
        tm = theoretical_moments(m)
        assert tm.mean_h == pytest.approx(0.7)
        assert tm.mean_h2 == pytest.approx(0.49)
        # Var(r) = (1+k+k^2) mu^2 - k^2 mu^2 = mu^2 (1+k)
        assert tm.var_r == pytest.approx(0.49 * 3.0)
        assert theoretical_acov(m, 1) == pytest.approx(0.0, abs=1e-15)

    def test_nonstationary_raises(self):
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=0.5, beta1=0.9, gamma1=0.3)
        with pytest.raises(ModelError, match="nonstationary"):
            theoretical_moments(m)

    def test_weakly_nonstationary_has_no_second_moments(self):
        m = ModelParams.first_order(k=3.0, mu=0.1, alpha1=0.05, beta1=0.28, gamma1=0.05)
        tm = theoretical_moments(m)
        assert tm.mean_h is not None
        assert tm.mean_h2 is None and tm.var_r is None
        with pytest.raises(ModelError, match=f"^second moments do not exist: c2 = {tm.c2:.6g} >= 1$"):
            theoretical_acov(m, 1)

    def test_higher_order_has_mean_moments_only(self):
        # a (2,1,1) model is mean stationary with weight sum 0.556; c1
        # holds that sum, and no closed-form second moments exist
        m = ModelParams(ModelOrders(2, 1, 1), 1.5, 0.05, (0.05, 0.02), (0.2,), (0.2,))
        ok, s = mean_stationarity(m)
        assert ok and s == pytest.approx(0.07 * ABS_NORMAL_MEAN + 0.2 * 1.5 + 0.2, rel=1e-15)
        tm = theoretical_moments(m)
        assert tm.c1 == s and tm.mean_h == 0.05 / (1.0 - s)
        assert tm.mean_r.center == 0.0 and tm.mean_r.radius == 1.5 * tm.mean_h
        assert tm.c2 is None and tm.mean_h2 is None and tm.var_r is None
        message = r"^closed-form autocovariances need a first-order model, got orders \(2,1,1\)$"
        for lag in (0, 1):
            with pytest.raises(ModelError, match=message):
                theoretical_acov(m, lag)
        with pytest.raises(ModelError, match=message):
            theoretical_acf(m, 3)


class TestAutocovariance:
    def test_lag_zero_is_variance(self):
        assert theoretical_acov(MODEL_I, 0) == pytest.approx(VAR_R_I, rel=1e-14)

    def test_benchmark_lag_one(self):
        assert theoretical_acov(MODEL_I, 1) == pytest.approx(ACOV1_I, rel=1e-13)

    def test_lag_one_from_first_principles(self):
        # E(h_t h_{t+1} eta_t) = mu k E(h) + [a1 sqrt(2/pi) k + b1 k(k+1) + g1 k] E(h^2)
        # acov(1) = k E(h_t h_{t+1} eta_t) - k^2 E(h)^2
        a, b, g, k, mu = 0.0318, 0.374, 0.1265, 1.8147, 0.0906
        e_abs = math.sqrt(2 / math.pi)
        a1 = mu * k * MEAN_H_I + (a * e_abs * k + b * k * (k + 1) + g * k) * MEAN_H2_I
        by_hand = k * a1 - (k * MEAN_H_I) ** 2
        assert theoretical_acov(MODEL_I, 1) == pytest.approx(by_hand, rel=1e-13)

    def test_geometric_decay(self):
        # acov(s+1) = c1 * acov(s) for s >= 1
        prev = theoretical_acov(MODEL_I, 1)
        for s in range(2, 8):
            cur = theoretical_acov(MODEL_I, s)
            assert cur == pytest.approx(C1_I * prev, rel=1e-12)
            prev = cur

    def test_acf_normalization(self):
        acf = theoretical_acf(MODEL_I, 5)
        assert acf.shape == (6,)
        assert acf[0] == 1.0
        for s in range(1, 6):
            assert acf[s] == pytest.approx(theoretical_acov(MODEL_I, s) / VAR_R_I, rel=1e-12)

    def test_positive_and_decreasing(self):
        acf = theoretical_acf(MODEL_I, 10)
        assert np.all(acf > 0)
        assert np.all(np.diff(acf) < 0)

    def test_negative_lag_rejected(self):
        with pytest.raises(ModelError, match="lag"):
            theoretical_acov(MODEL_I, -1)


def reference_recurse(source, coefs) -> np.ndarray:
    """Plain loop: y_t = source_t + sum_i c_{t,i} y_{t-i}, zero pre-sample."""
    coefs = np.asarray(coefs, dtype=float)
    y = np.array(source, dtype=float)
    if coefs.ndim > 1:
        y = y + np.zeros(coefs.shape[:-1])
    for t in range(len(y)):
        for i in range(1, min(coefs.shape[-1], t) + 1):
            c = coefs[t, ..., i - 1] if coefs.ndim > 1 else coefs[i - 1]
            y[t] = y[t] + c * y[t - i]
    return y


class TestRecurse:
    """The one linear-recurrence kernel against a plain loop."""

    # zero coefficients in the middle and at the end of the lag group
    CONSTANT = [(), (0.6,), (0.3, 0.0, 0.25), (0.2, 0.1, 0.0), (0.5, 0.3)]

    @pytest.mark.parametrize("coefs", CONSTANT)
    @pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 300])
    def test_constant_coefficients(self, coefs, length):
        source = np.random.default_rng(length).uniform(0.1, 1.0, (length, 3))
        np.testing.assert_allclose(
            recurse(source, coefs), reference_recurse(source, coefs), rtol=1e-12
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("length", [1, 5, 300])
    def test_time_varying_coefficients(self, m, length):
        rng = np.random.default_rng(10 * m + length)
        coefs = rng.uniform(0.0, 1.1 / m, (length, 4, m))
        coefs[:, 1, m // 2] = 0.0
        source = rng.uniform(0.1, 1.0, (length, 1))  # broadcasts over the 4 paths
        got = recurse(source, coefs)
        assert got.shape == (length, 4)
        np.testing.assert_allclose(got, reference_recurse(source, coefs), rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 3])
    def test_prefix_is_bit_identical(self, m):
        # element t's operations depend only on t, never on the length
        rng = np.random.default_rng(m)
        coefs = rng.uniform(0.0, 0.9 / m, (500, 2, m))
        source = rng.uniform(0.1, 1.0, (500, 2))
        full = recurse(source, coefs)
        for n in (1, 37, 256, 257):
            np.testing.assert_array_equal(recurse(source[:n], coefs[:n]), full[:n])
        np.testing.assert_array_equal(recurse(source[:, :1], coefs[:, :1]), full[:, :1])

    def test_underflowed_products_stop_the_passes(self):
        # c^2 is subnormal and c^4 is 0, so the passes stop after s = 2
        source = np.r_[1.0, np.zeros(40), 1.0, np.zeros(9)]
        want = reference_recurse(source, [1e-160])
        assert want[2] > 0 and want[3] == 0
        np.testing.assert_array_equal(recurse(source, [1e-160]), want)
        np.testing.assert_array_equal(recurse(source, np.full((51, 1), 1e-160)), want)
