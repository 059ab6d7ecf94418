"""Tests for forecast evaluation: losses, the GARCH(1,1) baseline, backtests."""

import concurrent.futures
import csv
import importlib
import math
from dataclasses import replace

import numpy as np
import pytest

from intgarch import (
    BENCHMARK_DESIGNS,
    DataError,
    Garch11Params,
    IntGarchError,
    IntervalSeries,
    ModelError,
    ModelOrders,
    ModelParams,
    NumericalError,
    SimConfig,
    compare,
    fit_garch11,
    fit_mle,
    garch11_forecast,
    garch11_path,
    hmse,
    loglik_eval,
    mz_r2,
    qlike,
    render_reports,
    render_study,
    rolling_forecast,
    run_backtest,
    rv_proxy,
    simulate,
    simulation_study,
    weak_stationarity,
)
from intgarch.estimate import FitRun
from intgarch.evaluate import _garch_variance, _report_rows, _study_rows
from intgarch.marketdata import _csv_lines

MODEL_I = BENCHMARK_DESIGNS["I"]


# ---------------------------------------------------------------------------
# loss functions


class TestQlike:
    def test_unit_case(self):
        assert qlike([1.0], [1.0]) == pytest.approx(1.0)

    def test_log_term_only(self):
        # zero proxy leaves just log(sigma2)
        assert qlike([0.0], [math.e]) == pytest.approx(1.0)

    def test_proxy_enters_as_a_variance(self):
        # mean(log 1 + 1, log 1 + 2) = 1.5
        assert qlike([1.0, 2.0], [1.0, 1.0]) == pytest.approx(1.5)

    def test_conventional_variance_proxy(self):
        # mean(log 4 + 2/4, log 2 + 3/2)
        expected = 0.5 * (math.log(4.0) + 0.5 + math.log(2.0) + 1.5)
        assert qlike([2.0, 3.0], [4.0, 2.0]) == pytest.approx(expected, rel=1e-15)

    def test_minimised_at_proxy_mean(self):
        rng = np.random.default_rng(8)
        v = np.abs(rng.normal(size=400)) + 0.1
        target = float(np.mean(v))
        grid = np.linspace(0.25 * target, 4.0 * target, 301)
        losses = [qlike(v, np.full(v.shape, g)) for g in grid]
        best = grid[int(np.argmin(losses))]
        assert best == pytest.approx(target, rel=0.02)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="equal-length"):
            qlike([1.0], [1.0, 2.0])

    def test_nonpositive_sigma2(self):
        with pytest.raises(DataError, match="strictly positive"):
            qlike([1.0, 1.0], [1.0, 0.0])

    def test_empty(self):
        with pytest.raises(DataError, match="empty"):
            qlike([], [])


class TestHmse:
    def test_zero_at_perfect_forecast(self):
        v = np.array([0.7, 1.3, 2.0])
        assert hmse(v, v) == pytest.approx(0.0, abs=1e-15)

    def test_double_variance(self):
        assert hmse([2.0], [1.0]) == pytest.approx(1.0)

    def test_signed_errors_cancel(self):
        # ratios 0.5 and 1.5 average out without the outer square
        assert hmse([0.5, 1.5], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_conventional_variance_proxy(self):
        # ratios 0.5 and 1.5 again, on unequal forecasts; then 1/4 - 1
        assert hmse([0.5, 3.0], [1.0, 2.0]) == pytest.approx(0.0, abs=1e-15)
        assert hmse([1.0], [4.0]) == pytest.approx(-0.75)


@pytest.mark.parametrize("loss", [qlike, hmse])
def test_negative_proxy_is_rejected(loss):
    with pytest.raises(DataError, match="nonnegative"):
        loss([1.0, -0.1], [1.0, 1.0])
    assert loss([0.0, 1.0], [1.0, 1.0]) == pytest.approx(loss([1.0, 0.0], [1.0, 1.0]))


def test_losses_consistent_for_a_noisy_variance_proxy():
    """Scale sweep (Patton 2011): with rv_proxy's mean-one noise on the true
    variance of a design-I path, QLIKE over c * sigma2 is lowest at c = 1
    (measured argmin 1.00 on this grid) and the signed HMSE changes sign
    there. A proxy that entered squared would move both far from 1."""
    series, h = simulate(SimConfig(MODEL_I, length=200_000, seed=2011, burn_in=100))
    sigma2 = (1.0 + MODEL_I.k / 3.0) * h * h
    rv = rv_proxy(h, MODEL_I.k, noise_sd=0.2, seed=2012)
    scales = np.round(np.arange(0.80, 1.2001, 0.01), 2)
    losses = [qlike(rv, c * sigma2) for c in scales]
    best = scales[int(np.argmin(losses))]
    assert abs(best - 1.0) <= 0.02, f"QLIKE argmin at c = {best}"
    assert hmse(rv, 0.98 * sigma2) > 0 > hmse(rv, 1.02 * sigma2)


class TestMzR2:
    def test_exact_linear_relation(self):
        s2 = np.array([1.0, 2.0, 3.0, 4.0])
        assert mz_r2(0.5 + 2.0 * s2, s2) == pytest.approx(1.0)

    def test_affine_invariance_in_forecasts(self):
        rng = np.random.default_rng(3)
        s2 = np.abs(rng.normal(size=50)) + 0.5
        v = s2 + 0.3 * rng.normal(size=50)
        assert mz_r2(v, 3.0 * s2 + 1.0) == pytest.approx(mz_r2(v, s2), rel=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(4)
        v = np.abs(rng.normal(size=200))
        s2 = np.abs(rng.normal(size=200)) + 0.1
        r2 = mz_r2(v, s2)
        assert 0.0 <= r2 <= 1.0
        assert r2 < 0.05  # independent series explain nothing

    def test_constant_realized(self):
        with pytest.raises(DataError, match="constant realized"):
            mz_r2([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_constant_realized_whose_mean_rounds(self):
        # the mean of three (or seven) 0.1s is not 0.1, so the squared
        # deviations sum to about 6e-34, not 0; the values are still constant
        for n in (3, 7):
            with pytest.raises(DataError, match="R² undefined: constant realized values"):
                mz_r2([0.1] * n, np.arange(1.0, n + 1))

    def test_constant_forecasts(self):
        with pytest.raises(DataError, match="constant forecasts"):
            mz_r2([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_needs_three_points(self):
        with pytest.raises(DataError, match="at least 3"):
            mz_r2([1.0, 2.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# GARCH(1,1) baseline


class TestGarch11Params:
    def test_derived_quantities(self):
        p = Garch11Params(0.1, 0.2, 0.5)
        assert p.persistence == pytest.approx(0.7)
        assert p.unconditional_variance == pytest.approx(1.0 / 3.0)

    def test_omega_positive(self):
        with pytest.raises(ModelError, match="omega must be positive"):
            Garch11Params(0.0, 0.1, 0.5)

    def test_coefficients_nonnegative(self):
        with pytest.raises(ModelError):
            Garch11Params(0.1, -0.01, 0.5)
        with pytest.raises(ModelError):
            Garch11Params(0.1, 0.1, -0.5)

    def test_stationarity_bound(self):
        with pytest.raises(ModelError, match="not stationary"):
            Garch11Params(0.1, 0.6, 0.5)

    @pytest.mark.parametrize("a,b", [(0.1, math.nan), (math.nan, 0.5), (math.inf, 0.5)])
    def test_nonfinite_coefficients(self, a, b):
        with pytest.raises(ModelError):
            Garch11Params(0.1, a, b)


def reference_garch_path(omega, a, b, r, s2_init):
    """The baseline variance recursion as a plain loop."""
    out = [s2_init]
    for t in range(1, len(r)):
        out.append(omega + a * r[t - 1] ** 2 + b * out[-1])
    return np.array(out)


def reference_garch_forecast(omega, a, b, r, s2_path, horizon):
    """The forecast loop that the kernel replaced."""
    out = [omega + a * r[-1] ** 2 + b * s2_path[-1]]
    for _ in range(1, horizon):
        out.append(omega + (a + b) * out[-1])
    return np.array(out)


class TestGarch11LoopReference:
    # persistence from white noise to the optimizer's cap, a coefficient 0
    PARAMS = [(0.1, 0.0, 0.0), (0.05, 0.08, 0.88), (0.02, 0.0, 0.95), (0.3, 0.2, 0.0),
              (1e-3, 0.05, 0.949)]

    @pytest.mark.parametrize("omega,a,b", PARAMS)
    def test_path_and_forecast_match_loops(self, omega, a, b):
        r = np.random.default_rng(3).standard_t(5, size=700)
        p = Garch11Params(omega, a, b)
        path = garch11_path(p, r)
        want = reference_garch_path(omega, a, b, r, np.var(r))
        np.testing.assert_allclose(path, want, rtol=1e-12)
        for horizon in (1, 2, 3, 50):
            np.testing.assert_allclose(
                garch11_forecast(p, r, horizon, path),
                reference_garch_forecast(omega, a, b, r, want, horizon),
                rtol=1e-12,
            )

    @pytest.mark.parametrize("theta", [(0.05, 0.08, 0.88), (0.3, 0.2, 0.1), (0.02, 0.1, 0.95)])
    def test_derivatives_match_finite_differences(self, theta):
        # the Hessian's second-order term is taken in adjoint form
        from intgarch.evaluate import _garch_likelihood

        r2 = np.random.default_rng(4).standard_t(5, size=600) ** 2
        theta = np.array(theta)
        objective, garch_derivs = _garch_likelihood(r2, float(np.mean(r2)))

        def derivs(th):
            return garch_derivs(th, objective(th)[1])

        grad, hess = derivs(theta)
        fd_g, fd_h = np.empty(3), np.empty((3, 3))
        for i in range(3):
            step = 1e-7 * max(theta[i], 1e-3)
            up, dn = theta.copy(), theta.copy()
            up[i] += step
            dn[i] -= step
            fd_g[i] = (objective(up)[0] - objective(dn)[0]) / (2 * step)
            fd_h[:, i] = (derivs(up)[0] - derivs(dn)[0]) / (2 * step)
        assert np.max(np.abs(grad - fd_g)) / np.max(np.abs(grad)) < 1e-5
        assert np.max(np.abs(hess - fd_h)) / np.max(np.abs(hess)) < 1e-5


class TestGarch11Path:
    def test_hand_recursion(self):
        r = np.array([1.0, -2.0, 0.5])
        path = _garch_variance((0.1, 0.2, 0.5), r * r, 2.0)
        # s2[1] = 0.1 + 0.2*1 + 0.5*2, s2[2] = 0.1 + 0.2*4 + 0.5*1.3
        np.testing.assert_allclose(path, [2.0, 1.3, 1.55], rtol=1e-14)

    def test_default_init_is_sample_variance(self):
        p = Garch11Params(0.1, 0.2, 0.5)
        r = np.array([1.0, -2.0, 0.5])
        assert garch11_path(p, r)[0] == pytest.approx(np.var(r), rel=1e-14)

    def test_forecast_recursion(self):
        p = Garch11Params(0.1, 0.2, 0.5)
        r = np.array([1.0, -2.0, 0.5])
        path = _garch_variance((0.1, 0.2, 0.5), r * r, 2.0)
        f = garch11_forecast(p, r, 3, path)
        one = 0.1 + 0.2 * 0.5**2 + 0.5 * 1.55
        np.testing.assert_allclose(
            f, [one, 0.1 + 0.7 * one, 0.1 + 0.7 * (0.1 + 0.7 * one)], rtol=1e-14
        )

    def test_forecast_default_path(self):
        p = Garch11Params(0.1, 0.2, 0.5)
        r = np.array([1.0, -2.0, 0.5])
        explicit = garch11_forecast(p, r, 2, garch11_path(p, r))
        np.testing.assert_allclose(garch11_forecast(p, r, 2), explicit, rtol=1e-14)

    def test_forecast_converges_to_unconditional(self):
        p = Garch11Params(0.1, 0.2, 0.5)
        r = np.random.default_rng(0).normal(size=50)
        f = garch11_forecast(p, r, 200)
        assert f[-1] == pytest.approx(p.unconditional_variance, rel=1e-10)


class TestFitGarch11:
    def test_iid_returns_have_no_arch(self):
        rng = np.random.default_rng(42)
        r = rng.normal(scale=1.5, size=1500)
        fit = fit_garch11(r)
        # b alone is weakly identified when a ~ 0 (only omega/(1-b) is
        # pinned), so check the arch coefficient and the implied level
        assert fit.converged
        assert fit.params.a < 0.1
        assert fit.params.unconditional_variance == pytest.approx(np.var(r), rel=0.1)
        assert fit.n_obs == 1500

    def test_parameter_recovery(self):
        true = Garch11Params(0.05, 0.1, 0.85)
        rng = np.random.default_rng(7)
        s2, r = true.unconditional_variance, []
        for _ in range(5000):
            x = rng.normal() * math.sqrt(s2)
            r.append(x)
            s2 = true.omega + true.a * x**2 + true.b * s2
        fit = fit_garch11(np.array(r))
        assert fit.converged
        assert fit.params.a == pytest.approx(true.a, abs=0.04)
        assert fit.params.b == pytest.approx(true.b, abs=0.08)
        assert fit.params.persistence == pytest.approx(true.persistence, abs=0.06)

    def test_loglik_matches_path(self):
        rng = np.random.default_rng(11)
        r = rng.normal(size=300)
        fit = fit_garch11(r)
        assert fit.stop_reason == "gradient tolerance"
        s2 = fit.sigma2_path
        by_hand = -0.5 * np.sum(np.log(2.0 * np.pi) + np.log(s2) + r**2 / s2)
        assert fit.loglik == pytest.approx(by_hand, rel=1e-12)
        np.testing.assert_allclose(s2, garch11_path(fit.params, r), rtol=1e-12)

    def test_run_record(self):
        # the baseline keeps its winning run's facts as the interval model
        # does; its objective, and so its trace, is loglik less -n/2 log(2 pi)
        for seed in range(40, 52):
            series, _ = simulate(SimConfig(MODEL_I, length=300, seed=seed, burn_in=200))
            r = series.centers
            fit = fit_garch11(r)
            assert isinstance(fit, FitRun) and type(fit.gradient_max) is float
            assert np.all(np.diff(fit.loglik_trace) >= 0), seed
            assert fit.loglik_trace[-1] - 0.5 * r.size * math.log(2.0 * math.pi) == fit.loglik, seed
            if fit.converged:
                assert fit.gradient_max < 1e-6, seed

    def test_loglik_at_cap_has_no_penalty(self):
        # this fit ends on the persistence cap a + b <= 0.999, where the
        # likelihood still rises along a and b equally: a KKT point of the
        # face with a positive multiplier, whose loglik is the plain one
        series, _ = simulate(SimConfig(MODEL_I, length=500, seed=3, burn_in=200))
        r = series.centers
        fit = fit_garch11(r)
        assert 0.999 - 1e-12 <= fit.params.persistence <= 0.999
        assert fit.converged

        def loglik(omega, a, b):
            s2 = garch11_path(Garch11Params(omega, a, b), r)
            return -0.5 * np.sum(np.log(2.0 * np.pi) + np.log(s2) + r**2 / s2)

        theta = np.array([fit.params.omega, fit.params.a, fit.params.b])
        step = 1e-6
        diffs = [
            (loglik(*(theta + step * e)) - loglik(*(theta - step * e))) / (2 * step)
            for e in np.eye(3)
        ]
        assert abs(diffs[0]) < 1e-4
        assert diffs[1] > 1.0
        assert diffs[1] == pytest.approx(diffs[2], rel=1e-4)
        s2 = garch11_path(fit.params, r)
        assert fit.loglik == pytest.approx(loglik(*theta), rel=1e-12)
        np.testing.assert_array_equal(fit.sigma2_path, s2)

    def test_too_short(self):
        with pytest.raises(DataError, match="at least 50"):
            fit_garch11(np.random.default_rng(0).normal(size=49))

    def test_constant_returns(self):
        with pytest.raises(DataError, match="zero variance"):
            fit_garch11(np.ones(100))

    def test_nonfinite_returns(self):
        r = np.random.default_rng(0).normal(size=100)
        r[-1] = np.nan
        with pytest.raises(DataError, match="finite"):
            fit_garch11(r)


class TestFittingContract:
    """Both models fit under the same projected Newton, and a fit is
    converged exactly when it stopped at the gradient tolerance."""

    @pytest.mark.parametrize("seed,n", [(46, 500), (85, 504)])
    def test_converged_start_wins_a_tie(self, seed, n, monkeypatch):
        # both starts end on the persistence cap with equal logliks; one
        # stops at the gradient tolerance and the other, its persistence
        # one rounding error lower, finds no uphill step
        from intgarch import evaluate

        starts = []
        newton = evaluate._projected_newton

        def recorded(*args, **kwargs):
            starts.append(newton(*args, **kwargs))
            return starts[-1]

        monkeypatch.setattr(evaluate, "_projected_newton", recorded)
        series, _ = simulate(SimConfig(MODEL_I, length=n, seed=seed, burn_in=200))
        fit = fit_garch11(series.centers)
        assert sorted(s.stop_reason for s in starts) == ["gradient tolerance", "no uphill step"]
        assert fit.converged
        best = max(s.value for s in starts)
        assert fit.loglik + 0.5 * n * math.log(2.0 * math.pi) >= best - 1e-9 * (1.0 + abs(best))

    def test_each_point_is_evaluated_once(self, monkeypatch):
        # the derivatives and the finished fit reuse the path the objective
        # computed: each fit evaluates its likelihood's path once per
        # objective call, and each derivative call runs two recursions of
        # its own (the derivative columns and the reverse filter), no path
        from intgarch import estimate, evaluate

        counts = dict.fromkeys(("objective", "path", "derivs", "recurse"), 0)
        newton = estimate._projected_newton

        def counted(objective, *args, **kwargs):
            def counted_objective(theta):
                counts["objective"] += 1
                return objective(theta)

            return newton(counted_objective, *args, **kwargs)

        def spy(module, builder):
            real_builder, real_recurse = getattr(module, builder), module.recurse

            def built(*args):
                objective, derivs, *rest = real_builder(*args)

                def path(theta):
                    counts["path"] += 1
                    return objective(theta)

                def spied_derivs(*a):
                    counts["derivs"] += 1
                    return derivs(*a)

                return (path, spied_derivs, *rest)

            def recurse(*args):
                counts["recurse"] += 1
                return real_recurse(*args)

            monkeypatch.setattr(module, builder, built)
            monkeypatch.setattr(module, "recurse", recurse)
            monkeypatch.setattr(module, "_projected_newton", counted)

        for module, builder in ((estimate, "_likelihood"), (evaluate, "_garch_likelihood")):
            spy(module, builder)
        series, _ = simulate(SimConfig(MODEL_I, length=500, seed=3, burn_in=200))
        fit = fit_mle(series, MODEL_I.orders)
        assert counts["path"] == counts["objective"] > 0
        assert counts["recurse"] == counts["path"] + 2 * counts["derivs"]
        counts.update(objective=0, path=0, derivs=0, recurse=0)
        baseline = fit_garch11(series.centers)
        assert counts["path"] == counts["objective"] > 0
        assert counts["recurse"] == counts["path"] + 2 * counts["derivs"]
        monkeypatch.undo()
        assert np.array_equal(fit.h_path, loglik_eval(fit.params, series)[1])
        assert np.array_equal(baseline.sigma2_path, garch11_path(baseline.params, series.centers))

    def test_baseline_converged_is_its_stop_reason(self):
        # seeds 41 and 48-50 stopped with no uphill step at |kkt| < 1e-6
        # when the baseline's own tolerance was 1e-8
        for seed in range(40, 60):
            series, _ = simulate(SimConfig(MODEL_I, length=300, seed=seed, burn_in=200))
            fit = fit_garch11(series.centers)
            assert fit.converged == (fit.stop_reason == "gradient tolerance"), seed

    def test_interval_converged_is_its_stop_reason(self):
        for seed in range(40, 60):
            series, _ = simulate(SimConfig(MODEL_I, length=300, seed=seed, burn_in=200))
            fit = fit_mle(series, MODEL_I.orders)
            assert fit.converged == (fit.stop_reason == "gradient tolerance"), seed

    def test_a_stop_reason_alone_decides_converged(self):
        # converged is read from the stop reason, so no fit can carry a
        # flag that disagrees with it
        series, _ = simulate(SimConfig(MODEL_I, length=300, seed=5, burn_in=200))
        for fit in (fit_mle(series, MODEL_I.orders), fit_garch11(series.centers)):
            assert fit.converged
            assert replace(fit, stop_reason="iteration cap").converged is False


# ---------------------------------------------------------------------------
# realized-variance proxy


class TestRvProxy:
    def test_noiseless_is_reported_variance(self):
        h = np.array([0.4, 0.6, 1.1])
        k = 1.8147
        np.testing.assert_allclose(rv_proxy(h, k, noise_sd=0.0), (1.0 + k / 3.0) * h**2, rtol=1e-14)

    def test_seed_reproducible(self):
        h = np.linspace(0.2, 1.0, 50)
        np.testing.assert_array_equal(rv_proxy(h, 1.5, seed=9), rv_proxy(h, 1.5, seed=9))
        assert not np.array_equal(rv_proxy(h, 1.5, seed=9), rv_proxy(h, 1.5, seed=10))

    def test_multiplicative_noise_moments(self):
        # ratios to the truth are mean-one with sd equal to noise_sd
        h = np.ones(200_000)
        k = 1.8147
        ratio = rv_proxy(h, k, noise_sd=0.3, seed=1) / (1.0 + k / 3.0)
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.005)
        assert np.std(ratio) == pytest.approx(0.3, rel=0.02)

    def test_negative_noise(self):
        with pytest.raises(DataError, match="noise_sd"):
            rv_proxy([1.0], 1.8, noise_sd=-0.1)

    @pytest.mark.parametrize("noise_sd", [math.nan, math.inf])
    def test_nonfinite_noise(self, noise_sd):
        with pytest.raises(DataError, match="noise_sd"):
            rv_proxy([1.0], 1.8, noise_sd=noise_sd)


# ---------------------------------------------------------------------------
# cross-model comparison


class TestCompare:
    RV = [1.0, 1.21, 0.81, 1.44]

    def test_identical_models_tie_everywhere(self):
        fc = {1: [1.0, 1.2, 0.8, 1.4]}
        reports = compare({"m1": dict(fc), "m2": dict(fc)}, {1: self.RV})
        assert len(reports) == 2
        assert all(r.wins == () for r in reports)
        assert reports[0].r2 == reports[1].r2
        assert reports[0].qlike == reports[1].qlike
        assert reports[0].hmse == reports[1].hmse

    def test_clear_winner_sweeps_metrics(self):
        good = {1: list(self.RV)}
        off = {1: [1.2, 1.0, 1.3, 0.9]}
        reports = {r.model: r for r in compare({"good": good, "off": off}, {1: self.RV}, asset="x")}
        assert reports["good"].wins == ("r2", "qlike", "hmse")
        assert reports["off"].wins == ()
        assert reports["good"].asset == "x"
        assert reports["good"].r2 == pytest.approx(1.0)
        assert reports["good"].n == 4

    def test_constant_forecasts_leave_r2_undefined(self):
        good = {1: list(self.RV)}
        off = {1: [1.2, 1.0, 1.3, 0.9]}
        flat = {1: [1.1] * 4}
        reports = {r.model: r for r in compare({"good": good, "off": off, "flat": flat}, {1: self.RV})}
        assert math.isnan(reports["flat"].r2)
        assert reports["flat"].qlike == pytest.approx(qlike(self.RV, [1.1] * 4), rel=1e-15)
        assert reports["good"].r2 == pytest.approx(1.0)
        # an undefined R² leaves that metric without a winner; the others keep theirs
        assert reports["good"].wins == ("qlike", "hmse")
        assert all("r2" not in r.wins for r in reports.values())

    def test_constant_realized_values_leave_r2_undefined(self):
        fc = {1: [1.0, 1.2, 0.8, 1.4]}
        reports = compare({"m": fc}, {1: [1.0] * 4})
        assert math.isnan(reports[0].r2)
        assert reports[0].qlike == pytest.approx(qlike([1.0] * 4, [1.0, 1.2, 0.8, 1.4]), rel=1e-15)

    def test_hmse_by_hand(self):
        fc = {"m": {1: [1.25, 1.1, 0.9]}}
        # ratios 0.8, 1.1 and 0.9 of the realized variances 1.0, 1.21, 0.81
        r_dev = np.array([1.0 / 1.25 - 1.0, 1.21 / 1.1 - 1.0, 0.81 / 0.9 - 1.0])
        assert compare(fc, {1: self.RV[:3]})[0].hmse == pytest.approx(r_dev.mean(), rel=1e-12)
        assert r_dev.mean() == pytest.approx(-0.2 / 3.0)

    def test_unequal_lengths(self):
        a = {1: [1.0, 1.1, 0.9]}
        b = {1: [1.0, 1.1, 0.9, 1.2]}
        with pytest.raises(DataError, match=r"equal-length 1-d sequences, got \(4,\) and \(3,\)"):
            compare({"a": a, "b": b}, {1: self.RV})

    def test_horizon_without_realized_values(self):
        fc = {"a": {1: [1.0, 1.1, 0.9, 1.2]}, "b": {2: [1.0, 1.1, 0.9]}}
        with pytest.raises(DataError, match="horizon 2: no realized variances"):
            compare(fc, {1: self.RV})


# ---------------------------------------------------------------------------
# rolling backtest


@pytest.fixture(scope="module")
def backtest_inputs():
    series, h = simulate(SimConfig(MODEL_I, length=160, seed=99, burn_in=100))
    rv = rv_proxy(h, MODEL_I.k, noise_sd=0.2, seed=5)
    return series, rv


class TestRunBacktest:
    def test_report_grid(self, backtest_inputs):
        series, rv = backtest_inputs
        reports, info = run_backtest(series, rv, train_size=120, horizons=(1, 2), refit_every=20)
        assert [(r.model, r.horizon) for r in reports] == [
            ("garch11", 1),
            ("intgarch", 1),
            ("garch11", 2),
            ("intgarch", 2),
        ]
        # one forecast per origin with an observed target: 160 - 120 - h + 1
        assert [r.n for r in reports] == [40, 40, 39, 39]
        for r in reports:
            assert 0.0 <= r.r2 <= 1.0
            assert set(r.wins) <= {"r2", "qlike", "hmse"}
        assert set(info) == {"skipped_refits", "garch_failed_refits", "refits"}
        assert info["skipped_refits"] == []
        assert info["garch_failed_refits"] == []
        # one (origin, FitRun) pair per refit of each model, keyed by its
        # report name: origins 119..159, each stop reason one of the optimizer's
        assert set(info["refits"]) == {"garch11", "intgarch"}
        for runs in info["refits"].values():
            assert [t for t, _ in runs] == [119, 139, 159]
            assert all(type(run) is FitRun for _, run in runs)
            assert all(run.stop_reason in ("gradient tolerance", "no uphill step", "iteration cap")
                       for _, run in runs)
            assert all(type(run.iterations) is int and run.iterations >= 0 for _, run in runs)

    def test_insample_reports(self, backtest_inputs):
        series, rv = backtest_inputs
        reports, info = run_backtest(
            series, rv, train_size=120, horizons=(1,), refit_every=40, include_insample=True
        )
        by_h = {(r.model, r.horizon): r for r in reports}
        assert by_h[("intgarch", 0)].n == 160
        assert by_h[("garch11", 0)].n == 160
        assert by_h[("intgarch", 1)].n == 40
        # each model's in-sample fit, as the record of a fit made alone
        assert info["insample"] == {"intgarch": fit_mle(series, ModelOrders(1, 1, 1)).run,
                                    "garch11": fit_garch11(series.centers).run}
        assert all(type(run) is FitRun for run in info["insample"].values())

    def test_single_fit_when_refit_period_exceeds_window(self, backtest_inputs):
        series, rv = backtest_inputs
        reports, info = run_backtest(series, rv, train_size=150, horizons=(1,), refit_every=500)
        assert [r.n for r in reports] == [10, 10]
        assert info["skipped_refits"] == []

    def test_dated_series(self, backtest_inputs):
        series, rv = backtest_inputs
        import datetime as dt

        dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(len(series))]
        dated = IntervalSeries(series.centers, series.radii, dates=dates)
        reports, _ = run_backtest(dated, rv, train_size=120, horizons=(1,), refit_every=40)
        assert [r.n for r in reports] == [40, 40]

    def test_rv_length_checked(self, backtest_inputs):
        series, rv = backtest_inputs
        with pytest.raises(DataError, match=r"one entry per observation \(160\)"):
            run_backtest(series, rv[:-1], train_size=120)

    @pytest.mark.parametrize("bad", [np.nan, -1e-4, np.inf])
    def test_rv_checked_before_the_first_fit(self, backtest_inputs, monkeypatch, bad):
        series, rv = backtest_inputs
        rv = rv.copy()
        rv[157] = bad
        monkeypatch.setattr(FORECAST_MODULE, "fit_mle", None)  # a fit would fail on the call
        with pytest.raises(DataError, match=f"rv must be finite and >= 0: entry 157 is {bad}"):
            run_backtest(series, rv, train_size=120)

    def test_scalar_returns_checked_before_the_first_fit(self, backtest_inputs, monkeypatch):
        # a NaN past the last refit, which the fits never see
        series, rv = backtest_inputs
        returns = series.centers.copy()
        returns[157] = np.nan
        monkeypatch.setattr(FORECAST_MODULE, "fit_mle", None)
        with pytest.raises(DataError, match="scalar_returns must be finite: entry 157 is nan"):
            run_backtest(series, rv, train_size=120, refit_every=40, scalar_returns=returns)

    def test_train_size_bounds(self, backtest_inputs):
        series, rv = backtest_inputs
        for bad in (0, 160):
            with pytest.raises(DataError, match="train_size must split"):
                run_backtest(series, rv, train_size=bad)

    def test_too_few_evaluable_forecasts(self, backtest_inputs):
        series, rv = backtest_inputs
        with pytest.raises(DataError, match="horizon 1: only 2 evaluable"):
            run_backtest(series, rv, train_size=158, horizons=(1,))

    def test_horizon_validation(self, backtest_inputs):
        series, rv = backtest_inputs
        with pytest.raises(DataError, match="horizons must be integers >= 1"):
            run_backtest(series, rv, train_size=120, horizons=(0,))

    def test_refit_validation(self, backtest_inputs):
        series, rv = backtest_inputs
        with pytest.raises(DataError, match="refit_every"):
            run_backtest(series, rv, train_size=120, refit_every=0)

    def test_baseline_path_rebuilt_only_where_a_fit_is_reused(self, backtest_inputs, monkeypatch):
        # 8 origins refitting every 4: the refits at 152 and 156 forecast
        # from their fit's own sigma2_path, and the 6 other origins rebuild
        # the path under the fit they reuse
        series, rv = backtest_inputs
        module = importlib.import_module("intgarch.evaluate")
        real, origins = module.garch11_path, []

        def spy(params, returns, *args):
            origins.append(len(returns) - 1)
            return real(params, returns, *args)

        monkeypatch.setattr(module, "garch11_path", spy)
        run_backtest(series, rv, train_size=153, horizons=(1,), refit_every=4)
        assert origins == [153, 154, 155, 157, 158, 159]

    def test_overflowing_forecast_skips_only_its_origin(self):
        # the world of test_forecast's final-refit overflow: the forecast
        # from 254 and the refit at 255 overflow, and the other 55 origins
        # are reported, each skip with its stage
        model = ModelParams.first_order(k=0.3, mu=0.05, alpha1=0.05, beta1=2.5, gamma1=0.1)
        s, h = simulate(SimConfig(model, length=256, seed=24, burn_in=100))
        radii = s.radii.copy()
        radii[254] = 1e308
        reports, info = run_backtest(
            IntervalSeries(s.centers, radii), rv_proxy(h, model.k, noise_sd=0.0),
            train_size=200, horizons=(1,), refit_every=7,
        )
        assert [t for t, _, _ in info["skipped_refits"]] == [254, 255]
        assert "overflow in the forecast from origin 254" in info["skipped_refits"][0][2]
        assert [stage for _, stage, _ in info["skipped_refits"]] == ["forecast", "refit"]
        assert [(r.model, r.n) for r in reports] == [("garch11", 55), ("intgarch", 55)]

    def test_scalar_returns_length(self, backtest_inputs):
        series, rv = backtest_inputs
        with pytest.raises(DataError, match="scalar_returns must have length 160"):
            run_backtest(series, rv, train_size=120, scalar_returns=np.ones(3))

    @pytest.mark.parametrize("train_size", [2, 45, 49])
    def test_train_size_below_the_baseline_minimum_is_refused_before_the_first_fit(
            self, backtest_inputs, monkeypatch, train_size):
        series, rv = backtest_inputs
        fits = []
        monkeypatch.setattr(FORECAST_MODULE, "fit_mle", lambda *a, **k: fits.append("fit_mle"))
        monkeypatch.setattr(EVALUATE_MODULE, "fit_garch11", lambda *a, **k: fits.append("fit_garch11"))
        with pytest.raises(DataError, match=f"train_size {train_size}: the baseline needs at least 50 observations"):
            run_backtest(series, rv, train_size=train_size, horizons=(1,), refit_every=1)
        assert fits == []

    def test_train_size_at_the_baseline_minimum_runs(self, backtest_inputs):
        series, rv = backtest_inputs
        reports, info = run_backtest(series, rv, train_size=50, horizons=(1,), refit_every=200)
        assert [r.n for r in reports] == [110, 110]
        assert [t for t, _ in info["refits"]["garch11"]] == [49]

    def test_degenerate_baseline_returns(self, backtest_inputs):
        series, rv = backtest_inputs
        flat = np.r_[np.zeros(120), np.random.default_rng(0).normal(size=40)]
        with pytest.raises(DataError, match="baseline fit failed on the training window"):
            run_backtest(series, rv, train_size=120, scalar_returns=flat)


# the modules themselves: the package's own `forecast` is the function
FORECAST_MODULE = importlib.import_module("intgarch.forecast")
EVALUATE_MODULE = importlib.import_module("intgarch.evaluate")


def reference_backtest(series, rv, train_size, horizons, refit_every, returns):
    """run_backtest's walk-forward as two loops: the baseline works out
    the refit schedule itself, and a second loop collects each horizon.
    The baseline is fit through EVALUATE_MODULE, where tests patch it."""
    n = len(series)
    results, skipped = rolling_forecast(
        series, ModelOrders(1, 1, 1), horizons, train_size, refit_every=refit_every
    )
    horizons = sorted(set(int(h) for h in horizons))
    garch_failures: list = []
    garch_refits: list = []
    garch_fit = None
    garch_fc: dict = {}
    for res in results:
        t = res.origin_index
        scheduled = (t - (train_size - 1)) % refit_every == 0
        if scheduled or garch_fit is None:
            try:
                garch_fit = EVALUATE_MODULE.fit_garch11(returns[: t + 1])
                garch_refits.append((t, garch_fit.run))
            except IntGarchError as exc:
                if garch_fit is None:
                    raise DataError(f"baseline fit failed on the training window: {exc}") from exc
                garch_failures.append((t, str(exc)))
        path = garch11_path(garch_fit.params, returns[: t + 1])
        garch_fc[t] = garch11_forecast(garch_fit.params, returns[: t + 1], horizons[-1], path)

    rv = np.asarray(rv, dtype=float)
    forecasts: dict = {"intgarch": {}, "garch11": {}}
    targets: dict = {}
    for h in horizons:
        rv_h, int_s2, g_s2 = [], [], []
        for res in results:
            t = res.origin_index
            if t + h >= n:
                continue
            rv_h.append(rv[t + h])
            int_s2.append(res.sigma2[h - 1])
            g_s2.append(garch_fc[t][h - 1])
        forecasts["intgarch"][h] = int_s2
        forecasts["garch11"][h] = g_s2
        targets[h] = rv_h
    info = {
        "skipped_refits": skipped,
        "garch_failed_refits": garch_failures,
        "refits": {"garch11": garch_refits},
    }
    return compare(forecasts, targets), info


@pytest.fixture(scope="module")
def walk_forward_inputs():
    series, h = simulate(SimConfig(MODEL_I, length=175, seed=1, burn_in=100))
    rv = rv_proxy(h, MODEL_I.k, noise_sd=0.2, seed=1)
    returns = series.centers + np.random.default_rng(1).normal(scale=0.01, size=175)
    return series, rv, returns, {}  # the last maps (model, origin) to its fit, made once


class TestWalkForwardReference:
    """The baseline refits exactly where the interval model refit, also
    when interval refits fail (149 is the first origin) or a baseline
    refit fails."""

    @pytest.mark.parametrize("refit_every", [1, 3, 7])
    @pytest.mark.parametrize(
        "interval_fails, baseline_fails", [((), ()), ((149, 150), ()), ((152, 160), (153,))]
    )
    def test_matches_two_loop_reference(
        self, walk_forward_inputs, monkeypatch, refit_every, interval_fails, baseline_fails
    ):
        series, rv, returns, fits = walk_forward_inputs
        real_fit_mle, real_fit_garch11 = FORECAST_MODULE.fit_mle, EVALUATE_MODULE.fit_garch11
        interval_refits: list = []

        def fit_mle(sample, orders, init_mode, start=None):
            t = len(sample) - 1
            if t in interval_fails:
                raise NumericalError(f"forced failure at {t}")
            if ("intgarch", t) not in fits:
                fits["intgarch", t] = real_fit_mle(sample, orders, init_mode)
            fit = fits["intgarch", t]
            interval_refits.append((t, fit.run))
            return fit

        def fit_garch11(sample, start=None):
            t = len(sample) - 1
            if t in baseline_fails:
                raise NumericalError(f"forced failure at {t}")
            if ("garch11", t) not in fits:
                fits["garch11", t] = real_fit_garch11(sample)
            return fits["garch11", t]

        monkeypatch.setattr(FORECAST_MODULE, "fit_mle", fit_mle)
        monkeypatch.setattr(EVALUATE_MODULE, "fit_garch11", fit_garch11)
        reports, info = run_backtest(series, rv, train_size=150, horizons=(1, 2, 5),
                                     refit_every=refit_every, scalar_returns=returns)
        assert info["refits"].pop("intgarch") == interval_refits
        want_reports, want_info = reference_backtest(series, rv, 150, (1, 2, 5), refit_every, returns)
        assert repr(reports) == repr(want_reports)
        assert repr(info) == repr(want_info)


@pytest.fixture(scope="module")
def warm_walk_forwards():
    """Every refit of refit-every-origin backtests on three seeded worlds
    (train 200, 31 origins), as (model, start, warm fit, cold fit): the
    cold fit is made on the same sample without a start."""
    real = {"intgarch": FORECAST_MODULE.fit_mle, "garch11": EVALUATE_MODULE.fit_garch11}
    refits: list = []

    def recorder(model):
        def fit(sample, *args, start=None):
            result = real[model](sample, *args, start=start)
            refits.append((model, sample, args, start, result))
            return result

        return fit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FORECAST_MODULE, "fit_mle", recorder("intgarch"))
        mp.setattr(EVALUATE_MODULE, "fit_garch11", recorder("garch11"))
        for seed in (1, 2, 3):
            series, h = simulate(SimConfig(MODEL_I, length=230, seed=seed, burn_in=100))
            returns = series.centers + np.random.default_rng(seed).normal(scale=0.01, size=230)
            run_backtest(series, rv_proxy(h, MODEL_I.k, seed=seed), train_size=200,
                         horizons=(1,), refit_every=1, scalar_returns=returns)
    return [(model, start, warm, real[model](sample, *args))
            for model, sample, args, start, warm in refits]


class TestWarmStarts:
    """A walk-forward refit starts from the model's previous fit, and the
    cold starts run only where that run does not converge."""

    @pytest.mark.parametrize("model", ["intgarch", "garch11"])
    def test_each_refit_after_the_first_is_warm(self, warm_walk_forwards, model):
        starts = [start for m, start, _, _ in warm_walk_forwards if m == model]
        assert len(starts) == 3 * 31
        assert [start is None for start in starts] == ([True] + [False] * 30) * 3

    @pytest.mark.parametrize("model", ["intgarch", "garch11"])
    def test_warm_refit_no_worse_than_cold(self, warm_walk_forwards, model):
        for m, start, warm, cold in warm_walk_forwards:
            if m == model and start is not None:
                assert warm.loglik >= cold.loglik - 1e-9 * (1.0 + abs(cold.loglik))

    @pytest.mark.parametrize("model", ["intgarch", "garch11"])
    def test_warm_refits_take_fewer_newton_steps(self, warm_walk_forwards, model):
        # a count, not a time; the bound 0.7 was fixed before the first run,
        # which measured 285/668 = 0.43 (intgarch) and 273/1493 = 0.18 (garch11)
        pairs = [(w, c) for m, start, w, c in warm_walk_forwards if m == model and start is not None]
        warm_steps = sum(w.iterations for w, _ in pairs)
        cold_steps = sum(c.iterations for _, c in pairs)
        assert warm_steps < 0.7 * cold_steps

    def test_start_at_the_optimum_takes_no_step(self):
        sample, _ = simulate(SimConfig(MODEL_I, length=300, seed=5))
        cold = fit_mle(sample, ModelOrders(1, 1, 1))
        assert cold.converged
        again = fit_mle(sample, ModelOrders(1, 1, 1), start=cold.params)
        assert again.iterations == 0
        assert np.array_equal(again.params.theta, cold.params.theta)

    def test_start_infeasible_under_new_k_gives_the_cold_fit(self):
        sample, _ = simulate(SimConfig(MODEL_I, length=300, seed=5))
        # weight sum 0.89 under its own k = 0.5, above 1 under this k-hat
        start = ModelParams.first_order(k=0.5, mu=0.1, alpha1=0.05, beta1=1.5, gamma1=0.1)
        cold = fit_mle(sample, ModelOrders(1, 1, 1))
        assert 1.5 * cold.params.k > 1.0
        warm = fit_mle(sample, ModelOrders(1, 1, 1), start=start)
        assert warm.to_dict() == cold.to_dict()
        for name in ("h_path", "hessian", "covariance"):
            assert np.array_equal(getattr(warm, name), getattr(cold, name))

    def test_baseline_start_past_the_cap_gives_the_cold_fit(self):
        sample, _ = simulate(SimConfig(MODEL_I, length=300, seed=5))
        cold = fit_garch11(sample.centers)
        warm = fit_garch11(sample.centers, start=Garch11Params(0.1, 0.3, 0.6995))
        assert (warm.params, warm.loglik, warm.iterations, warm.stop_reason) == (
            cold.params, cold.loglik, cold.iterations, cold.stop_reason)
        assert np.array_equal(warm.sigma2_path, cold.sigma2_path)

    def test_warm_run_that_raises_falls_back_to_the_cold_starts(self):
        estimate = importlib.import_module("intgarch.estimate")

        def newton(theta0):
            if theta0 == "warm":
                raise NumericalError("numerical overflow in the score or Hessian")
            return estimate.NewtonRun(theta0, -1.0, None, None, estimate.CONVERGED, 3, [-1.0], None)

        assert estimate._warm_then_cold(newton, ["cold"], "warm") == estimate.NewtonRun(
            "cold", -1.0, None, None, estimate.CONVERGED, 3, [-1.0], None)

    def test_start_of_other_orders_rejected(self):
        sample, _ = simulate(SimConfig(MODEL_I, length=300, seed=5))
        with pytest.raises(ModelError, match="orders"):
            fit_mle(sample, ModelOrders(1, 1, 0), start=MODEL_I)


# ---------------------------------------------------------------------------
# simulation study


class TestBenchmarkDesigns:
    def test_catalogue(self):
        assert sorted(BENCHMARK_DESIGNS) == ["I", "II", "III", "IV"]
        assert BENCHMARK_DESIGNS["I"].orders == ModelOrders(1, 1, 1)
        assert BENCHMARK_DESIGNS["II"].orders == ModelOrders(1, 1, 1)
        assert BENCHMARK_DESIGNS["III"].orders == ModelOrders(1, 1, 0)
        assert BENCHMARK_DESIGNS["IV"].orders == ModelOrders(1, 1, 0)

    def test_all_weakly_stationary(self):
        for params in BENCHMARK_DESIGNS.values():
            stationary, c1, c2 = weak_stationarity(params)
            assert stationary
            assert 0.0 < c1 < 1.0 and 0.0 < c2 < 1.0


@pytest.fixture(scope="module")
def small_study():
    return simulation_study(replications=2, length=300, seed=11)


class TestSimulationStudy:
    def test_cell_layout(self, small_study):
        # one cell per (design, parameter): 5 + 5 + 4 + 4
        assert len(small_study) == 18
        by_design: dict = {}
        for c in small_study:
            by_design.setdefault(c.design, []).append(c.param)
        assert by_design["I"] == ["k", "mu", "alpha1", "beta1", "gamma1"]
        assert by_design["III"] == ["k", "mu", "alpha1", "beta1"]

    def test_true_values_match_catalogue(self, small_study):
        for c in small_study:
            params = BENCHMARK_DESIGNS[c.design]
            if c.param == "k":
                assert c.true == params.k
            else:
                names = params.param_names()
                assert c.true == pytest.approx(params.theta[names.index(c.param)])

    def test_moment_estimator_has_no_model_se(self, small_study):
        for c in small_study:
            if c.param == "k":
                assert c.mean_model_se is None

    def test_counts_and_errors_finite(self, small_study):
        for c in small_study:
            assert c.n_fits == 2
            assert 0 <= c.n_converged <= 2
            assert np.isfinite(c.mean_est) and np.isfinite(c.mae) and c.mae >= 0.0

    def test_deterministic(self, small_study):
        again = simulation_study(replications=2, length=300, seed=11)
        assert again == small_study

    def test_parallel_matches_serial(self, small_study):
        par = simulation_study(replications=2, length=300, seed=11, jobs=2)
        assert par == small_study

    def test_design_subset(self):
        cells = simulation_study(
            designs={"III": BENCHMARK_DESIGNS["III"]}, replications=2, length=300, seed=11
        )
        assert [c.param for c in cells] == ["k", "mu", "alpha1", "beta1"]

    def test_pool_bounded_by_tasks_and_cores(self, monkeypatch):
        # a stand-in pool that records its size and maps in this process
        sizes: list = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        designs = {"III": BENCHMARK_DESIGNS["III"]}  # 3 replications: 3 tasks
        serial = simulation_study(designs, replications=3, length=300, seed=11)
        for cores, want in ((2, [2]), (16, [3]), (None, [])):
            sizes.clear()
            monkeypatch.setattr(EVALUATE_MODULE.os, "cpu_count", lambda: cores)
            assert simulation_study(designs, replications=3, length=300, seed=11, jobs=5000) == serial
            assert sizes == want

    def test_validation(self):
        with pytest.raises(DataError, match="replications"):
            simulation_study(replications=1)
        with pytest.raises(DataError, match="length"):
            simulation_study(replications=2, length=99)
        with pytest.raises(DataError, match="seed must be a nonnegative integer, got -3"):
            simulation_study(replications=2, length=100, seed=-3)

    def test_no_designs(self):
        with pytest.raises(DataError, match="no designs given"):
            simulation_study({}, replications=2, length=100)


class TestStudyStart:
    """Each replication's fit starts at its design's parameters and falls
    back to the cold start; it must reach the cold fit's optimum."""

    def test_design_start_reaches_the_cold_optimum(self, monkeypatch):
        made: list = []

        def recorded(series, *args, **kwargs):
            made.append((series, fit_mle(series, *args, **kwargs)))
            return made[-1][1]

        monkeypatch.setattr(EVALUATE_MODULE, "fit_mle", recorded)
        root = np.random.SeedSequence(20261020)
        for dseq, (name, params) in zip(root.spawn(4), BENCHMARK_DESIGNS.items()):
            for child in dseq.spawn(10):
                est, ses, conv = EVALUATE_MODULE._study_rep((params, 1000, child))
                series, fit = made[-1]
                assert np.array_equal(est, np.concatenate(([fit.params.k], fit.params.theta)))
                assert np.array_equal(ses, [math.nan] + [fit.std_errors.get(p, math.nan)
                                                          for p in fit.params.param_names()], equal_nan=True)
                assert conv == fit.converged
                cold = fit_mle(series, params.orders)
                assert abs(fit.loglik - cold.loglik) <= 1e-9 * (1.0 + abs(cold.loglik)), name
                assert np.max(np.abs(fit.params.theta - cold.params.theta)) <= 1e-6, name
                assert fit.params.k == cold.params.k
                assert fit.boundary == cold.boundary, name
                assert fit.converged or not cold.converged, name
        assert len(made) == 40


# ---------------------------------------------------------------------------
# rendering


class TestRendering:
    REPORTS = [
        __import__("intgarch").EvalReport("a", "intgarch", 1, 0.5, 1.2, 0.1, 10, wins=("r2",)),
        __import__("intgarch").EvalReport("a", "garch11", 1, 0.4, 1.5, -0.2, 10, wins=()),
    ]

    def test_render_reports_marks_winners(self):
        text = render_reports(self.REPORTS)
        assert "0.5000*" in text
        assert "0.4000 " in text or "0.4000\n" in text or text.rstrip().endswith("-0.2000")
        assert text.splitlines()[0].split() == [
            "asset", "model", "horizon", "n", "r2", "qlike", "hmse",
        ]

    def test_reports_csv_round_trip(self):
        rows = list(csv.DictReader(_csv_lines(*_report_rows(self.REPORTS))))
        assert len(rows) == 6  # 2 models x 3 metrics
        won = [r for r in rows if r["winner"] == "1"]
        assert [(r["model"], r["metric"]) for r in won] == [("intgarch", "r2")]
        by_metric = {(r["model"], r["metric"]): float(r["value"]) for r in rows}
        assert by_metric[("garch11", "hmse")] == pytest.approx(-0.2)

    def test_render_study_formats_missing_se(self, small_study):
        text = render_study(small_study)
        lines = text.splitlines()
        assert lines[0].split() == [
            "design", "param", "true", "mean_est", "mae", "emp_se", "model_se", "conv",
        ]
        k_lines = [ln for ln in lines if " k " in ln]
        assert all(" - " in ln or ln.split()[-2] == "-" for ln in k_lines)
        assert any("2/2" in ln for ln in lines[1:])

    def test_study_csv_round_trip(self, small_study):
        rows = list(csv.DictReader(_csv_lines(*_study_rows(small_study))))
        assert len(rows) == 18
        k_rows = [r for r in rows if r["param"] == "k"]
        assert all(r["mean_model_se"] == "" for r in k_rows)
        assert all(float(r["true"]) > 0 for r in rows)
