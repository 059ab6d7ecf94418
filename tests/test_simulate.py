"""Process simulation: reproducibility, shock laws, and moment checks."""

import math

import numpy as np
import pytest
from scipy import stats

from intgarch import (
    InitMode,
    ModelError,
    ModelOrders,
    ModelParams,
    NumericalError,
    SimConfig,
    simulate,
    mean_stationarity,
    simulate_paths,
    theoretical_moments,
)

MODEL_I = ModelParams.first_order(k=1.8147, mu=0.0906, alpha1=0.0318, beta1=0.374, gamma1=0.1265)

# orders (1,1,0), (1,1,1), (2,1,1) and (1,2,3), with coefficients of 0 in
# the middle and at the end of a lag group
REFERENCE_MODELS = [
    ModelParams(ModelOrders(1, 1, 0), 1.5, 0.1, (0.1,), (0.3,), ()),
    ModelParams(ModelOrders(1, 1, 1), 1.8147, 0.0906, (0.0318,), (0.374,), (0.1265,)),
    ModelParams(ModelOrders(2, 1, 1), 1.2, 0.1, (0.08, 0.0), (0.3,), (0.2,)),
    ModelParams(ModelOrders(1, 2, 3), 1.1, 0.1, (0.05,), (0.2, 0.0), (0.15, 0.0, 0.1)),
]


def reference_simulate_paths(params, n_paths, length, seed, burn_in=0, init_mode=InitMode.ZERO_H):
    """The time loop with rolling lag buffers that the kernel replaced."""
    o = params.orders
    m = o.max_lag
    total = length + burn_in
    seq_eps, seq_eta = np.random.SeedSequence(seed).spawn(2)
    eps = np.random.default_rng(seq_eps).standard_normal((n_paths, total))
    eta = np.random.default_rng(seq_eta).gamma(params.k, 1.0, (n_paths, total))
    level = params.mu / (1.0 - mean_stationarity(params)[1])
    h_init = level if init_mode is InitMode.MEAN_H else 0.0
    abs_lam = np.zeros((n_paths, m))  # most recent lag in column 0
    dlt = np.full((n_paths, m), params.k * level)
    h_lag = np.full((n_paths, max(o.w, 1)), h_init)
    out = np.empty((3, n_paths, length))
    for t in range(total):
        h = params.mu + abs_lam[:, : o.p] @ params.alpha + dlt[:, : o.q] @ params.beta
        if o.w:
            h += h_lag[:, : o.w] @ params.gamma
        if t >= burn_in:
            out[:, :, t - burn_in] = h * eps[:, t], h * eta[:, t], h
        abs_lam = np.roll(abs_lam, 1, axis=1)
        dlt = np.roll(dlt, 1, axis=1)
        h_lag = np.roll(h_lag, 1, axis=1)
        abs_lam[:, 0] = np.abs(h * eps[:, t])
        dlt[:, 0] = h * eta[:, t]
        h_lag[:, 0] = h
    return out


class TestReproducibility:
    def test_same_seed_identical(self):
        cfg = SimConfig(MODEL_I, length=500, seed=42, burn_in=100)
        s1, h1 = simulate(cfg)
        s2, h2 = simulate(cfg)
        assert s1 == s2
        np.testing.assert_array_equal(h1, h2)

    def test_different_seeds_differ(self):
        s1, _ = simulate(SimConfig(MODEL_I, length=200, seed=1))
        s2, _ = simulate(SimConfig(MODEL_I, length=200, seed=2))
        assert not np.array_equal(s1.centers, s2.centers)

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(42)
        s1, _ = simulate(SimConfig(MODEL_I, length=100, seed=seq))
        s2, _ = simulate(SimConfig(MODEL_I, length=100, seed=42))
        assert s1 == s2

    def test_burn_in_is_a_prefix_drop(self):
        # burn_in=B retained output equals the tail of a burn_in=0 run
        full, h_full = simulate(SimConfig(MODEL_I, length=400, seed=9, burn_in=0))
        tail, h_tail = simulate(SimConfig(MODEL_I, length=300, seed=9, burn_in=100))
        np.testing.assert_array_equal(tail.centers, full.centers[100:])
        np.testing.assert_array_equal(tail.radii, full.radii[100:])
        np.testing.assert_array_equal(h_tail, h_full[100:])

    def test_multi_path_first_row_matches_single(self):
        c, r, h = simulate_paths(MODEL_I, n_paths=4, length=250, seed=7, burn_in=50)
        s1, h1 = simulate(SimConfig(MODEL_I, length=250, seed=7, burn_in=50))
        np.testing.assert_array_equal(c[0], s1.centers)
        np.testing.assert_array_equal(r[0], s1.radii)
        np.testing.assert_array_equal(h[0], h1)

    def test_paths_mutually_independent_streams(self):
        c, r, _ = simulate_paths(MODEL_I, n_paths=3, length=100, seed=3)
        assert not np.array_equal(c[0], c[1])
        assert not np.array_equal(c[1], c[2])


class TestLoopReference:
    @pytest.mark.parametrize("mode", list(InitMode))
    @pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: "%d%d%d" % (
        m.orders.p, m.orders.q, m.orders.w))
    def test_matches_time_loop(self, model, mode):
        got = simulate_paths(model, n_paths=3, length=400, seed=12, burn_in=30, init_mode=mode)
        want = reference_simulate_paths(model, 3, 400, 12, burn_in=30, init_mode=mode)
        for x, y in zip(got, want):
            np.testing.assert_allclose(x, y, rtol=1e-12)


class TestShapeAndBounds:
    def test_shapes(self):
        c, r, h = simulate_paths(MODEL_I, n_paths=5, length=123, seed=0)
        assert c.shape == r.shape == h.shape == (5, 123)

    def test_h_floor(self):
        # every term of the recursion is nonnegative, so h >= mu
        _, h = simulate(SimConfig(MODEL_I, length=2000, seed=11))
        assert np.all(h >= MODEL_I.mu)

    def test_radii_positive(self):
        s, _ = simulate(SimConfig(MODEL_I, length=2000, seed=12))
        assert np.all(s.radii > 0)

    def test_bounds_ordering(self):
        s, _ = simulate(SimConfig(MODEL_I, length=500, seed=13))
        assert np.all(s.lowers <= s.uppers)

    def test_series_and_h_aligned(self):
        # the recovered shocks are exactly centers/h and radii/h
        s, h = simulate(SimConfig(MODEL_I, length=300, seed=14))
        eps = s.centers / h
        eta = s.radii / h
        assert np.all(np.isfinite(eps)) and np.all(eta > 0)


class TestShockLaws:
    def test_recovered_normals(self):
        s, h = simulate(SimConfig(MODEL_I, length=20000, seed=101, burn_in=200))
        eps = s.centers / h
        assert stats.kstest(eps, "norm").pvalue > 0.01
        assert abs(eps.mean()) < 0.02
        assert abs(eps.std() - 1.0) < 0.02

    def test_recovered_gammas(self):
        s, h = simulate(SimConfig(MODEL_I, length=20000, seed=102, burn_in=200))
        eta = s.radii / h
        assert stats.kstest(eta, "gamma", args=(MODEL_I.k,)).pvalue > 0.01
        assert eta.mean() == pytest.approx(MODEL_I.k, abs=0.05)

    def test_small_shape_gamma(self):
        # rejection sampler stays exact for shape < 1
        m = ModelParams.first_order(k=0.4, mu=0.1, alpha1=0.05, beta1=0.2, gamma1=0.1)
        s, h = simulate(SimConfig(m, length=20000, seed=103, burn_in=200))
        eta = s.radii / h
        assert stats.kstest(eta, "gamma", args=(0.4,)).pvalue > 0.01

    def test_independent_components(self):
        s, h = simulate(SimConfig(MODEL_I, length=20000, seed=104, burn_in=200))
        eps = s.centers / h
        eta = s.radii / h
        assert abs(np.corrcoef(eps, eta)[0, 1]) < 0.02


class TestStationaryAverages:
    def test_long_run_levels(self):
        tm = theoretical_moments(MODEL_I)
        c, r, h = simulate_paths(MODEL_I, n_paths=40, length=5000, seed=21, burn_in=500)
        assert h.mean() == pytest.approx(tm.mean_h, rel=0.02)
        # E(radius) = k E(h) ~= 0.97039, E|center| = sqrt(2/pi) E(h) ~= 0.42666
        assert r.mean() == pytest.approx(0.9703850166216844, rel=0.03)
        assert np.abs(c).mean() == pytest.approx(0.42665742150045405, rel=0.03)
        assert c.mean() == pytest.approx(0.0, abs=0.02)

    def test_second_moment_level(self):
        # a light-tailed model (small c2) whose h^2 averages concentrate;
        # Model I itself has infinite Var(h^2) and mixes far too slowly
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=0.1, beta1=0.2, gamma1=0.2)
        tm = theoretical_moments(m)
        _, _, h = simulate_paths(m, n_paths=40, length=5000, seed=22, burn_in=500)
        assert (h**2).mean() == pytest.approx(tm.mean_h2, rel=0.02)
        assert h.mean() == pytest.approx(tm.mean_h, rel=0.01)


class TestInitialization:
    def test_zero_h_first_step(self):
        # with no burn-in, t=1 sees zero h lag and expectation-level radii:
        # h_1 = mu + beta1 * k * E(h)
        tm = theoretical_moments(MODEL_I)
        _, h = simulate(SimConfig(MODEL_I, length=5, seed=31, burn_in=0))
        expected = MODEL_I.mu + MODEL_I.beta[0] * MODEL_I.k * tm.mean_h
        assert h[0] == pytest.approx(expected, rel=1e-12)

    def test_mean_h_first_step(self):
        tm = theoretical_moments(MODEL_I)
        _, h = simulate(SimConfig(MODEL_I, length=5, seed=31, init_mode=InitMode.MEAN_H))
        expected = (
            MODEL_I.mu
            + MODEL_I.beta[0] * MODEL_I.k * tm.mean_h
            + MODEL_I.gamma[0] * tm.mean_h
        )
        assert h[0] == pytest.approx(expected, rel=1e-12)

    def test_mean_h_refuses_nonstationary(self):
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=0.5, beta1=0.9, gamma1=0.3)
        with pytest.raises(ModelError, match="nonstationary"):
            simulate(SimConfig(m, length=10, seed=0, init_mode=InitMode.MEAN_H))

    def test_zero_h_allows_nonstationary(self):
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=0.5, beta1=0.9, gamma1=0.3)
        s, h = simulate(SimConfig(m, length=50, seed=0, init_mode=InitMode.ZERO_H))
        assert len(s) == 50 and np.all(np.isfinite(h))

    def test_init_modes_decouple_after_burn_in(self):
        # same shocks, different starts: gap shrinks geometrically
        a, ha = simulate(SimConfig(MODEL_I, length=100, seed=5, init_mode=InitMode.ZERO_H))
        b, hb = simulate(SimConfig(MODEL_I, length=100, seed=5, init_mode=InitMode.MEAN_H))
        gap = np.abs(ha - hb)
        assert gap[0] > 0
        assert gap[-1] < gap[0] * 1e-3


class TestValidation:
    def test_bad_length(self):
        with pytest.raises(ModelError, match="length"):
            SimConfig(MODEL_I, length=0, seed=0)
        with pytest.raises(ModelError, match="length"):
            simulate_paths(MODEL_I, n_paths=1, length=0, seed=0)

    def test_bad_burn_in(self):
        with pytest.raises(ModelError, match="burn_in"):
            SimConfig(MODEL_I, length=10, seed=0, burn_in=-1)

    def test_bad_n_paths(self):
        with pytest.raises(ModelError, match="n_paths"):
            simulate_paths(MODEL_I, n_paths=0, length=10, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ModelError, match="seed must be a nonnegative integer, got -1"):
            simulate_paths(MODEL_I, n_paths=1, length=10, seed=-1)
        with pytest.raises(ModelError, match="got -7"):
            simulate(SimConfig(MODEL_I, length=10, seed=-7))

    def test_overflow_detected(self):
        # explosive recursion: h multiplies by ~10 each step
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=0.0, beta1=0.0, gamma1=10.0)
        with pytest.raises(NumericalError, match="overflow"):
            simulate(SimConfig(m, length=500, seed=0, init_mode=InitMode.ZERO_H))
