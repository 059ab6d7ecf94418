"""Multi-step volatility forecasts and the walk-forward harness."""

import datetime as dt
import importlib
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from intgarch import (
    ABS_NORMAL_MEAN,
    DataError,
    FittedModel,
    InitMode,
    IntervalSeries,
    ModelOrders,
    ModelParams,
    NumericalError,
    SimConfig,
    fit_mle,
    forecast,
    loglik_eval,
    rolling_forecast,
    simulate,
    simulate_paths,
    theoretical_moments,
    weak_stationarity,
)
from intgarch.estimate import FitRun

MODEL_I = ModelParams.first_order(k=1.8147, mu=0.0906, alpha1=0.0318, beta1=0.374, gamma1=0.1265)
ORDERS_111 = ModelOrders(1, 1, 1)

# one-observation series fixing the origin state lambda=0.2, delta=1.0, h=0.5
ORIGIN = IntervalSeries([0.2], [1.0])
ORIGIN_H = np.array([0.5])


def reference_forecast(params, series, h_path, t, horizon):
    """The triple loop that the kernel replaced: each lag of each step is
    an observed value or the expectation of a forecast one."""
    o = params.orders
    abs_lam = np.abs(series.centers)
    h_hat = np.empty(horizon)
    for j in range(1, horizon + 1):
        acc = params.mu
        for i in range(1, o.p + 1):
            acc += params.alpha[i - 1] * (
                abs_lam[t + j - i] if j - i <= 0 else ABS_NORMAL_MEAN * h_hat[j - i - 1]
            )
        for i in range(1, o.q + 1):
            acc += params.beta[i - 1] * (
                series.radii[t + j - i] if j - i <= 0 else params.k * h_hat[j - i - 1]
            )
        for i in range(1, o.w + 1):
            acc += params.gamma[i - 1] * (h_path[t + j - i] if j - i <= 0 else h_hat[j - i - 1])
        h_hat[j - 1] = acc
    return h_hat


class TestLoopReference:
    # orders (1,1,0), (1,1,1), (2,1,1) and (1,2,3), with coefficients of 0
    # in the middle and at the end of a lag group
    MODELS = [
        ModelParams(ModelOrders(1, 1, 0), 1.5, 0.1, (0.1,), (0.3,), ()),
        MODEL_I,
        ModelParams(ModelOrders(2, 1, 1), 1.2, 0.1, (0.08, 0.0), (0.3,), (0.2,)),
        ModelParams(ModelOrders(1, 2, 3), 1.1, 0.1, (0.05,), (0.2, 0.0), (0.15, 0.0, 0.1)),
    ]

    @pytest.mark.parametrize("params", MODELS, ids=lambda m: "%d%d%d" % (
        m.orders.p, m.orders.q, m.orders.w))
    def test_matches_triple_loop(self, params):
        rng = np.random.default_rng(params.orders.n_params)
        series = IntervalSeries(rng.normal(0, 0.5, 40), rng.gamma(2.0, 0.3, 40))
        h_path = rng.uniform(0.2, 0.8, 40)
        for t in (params.orders.max_lag - 1, 20, 39):
            for horizon in (1, 2, 3, 4, 30):
                got = forecast(params, series, horizon, h_path=h_path, origin_index=t)
                want = reference_forecast(params, series, h_path, t, horizon)
                np.testing.assert_allclose(got.h_hat, want, rtol=1e-12)


class TestOneStepHandValues:
    def test_direct_substitution(self):
        # mu=0.1, alpha=0.5, beta=0.5, gamma=0.5 with |lambda|=1, delta=2, h=1
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=0.5, beta1=0.5, gamma1=0.5)
        r = forecast(m, IntervalSeries([-1.0], [2.0]), 1, h_path=[1.0])
        assert r.h_hat[0] == pytest.approx(0.1 + 0.5 + 1.0 + 0.5)

    def test_newest_lag_is_read(self):
        # series and h path run oldest first; the step reads the last entry
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=1.0, beta1=0.0, gamma1=0.0)
        r = forecast(m, IntervalSeries([9.0, 2.0], [0.0, 0.0]), 1, h_path=[9.0, 1.0])
        assert r.h_hat[0] == pytest.approx(0.1 + 2.0)

    def test_higher_order(self):
        m = ModelParams(ModelOrders(2, 1, 0), 1.0, 0.1, (0.5, 0.25), (1.0,), ())
        s = IntervalSeries([4.0, 2.0], [0.5, 0.25])
        r = forecast(m, s, 1, h_path=[1.0, 1.0])
        # 0.1 + 0.5*2 + 0.25*4 + 1.0*0.25
        assert r.h_hat[0] == pytest.approx(2.35)

    def test_benchmark_values(self):
        # mu + alpha1 |lambda| + beta1 delta + gamma1 h at lambda=0.2, delta=1.0, h=0.5
        r = forecast(MODEL_I, ORIGIN, 1, h_path=ORIGIN_H)
        by_hand = 0.0906 + 0.0318 * 0.2 + 0.374 * 1.0 + 0.1265 * 0.5
        assert r.h_hat[0] == pytest.approx(by_hand, rel=1e-14)
        assert r.h_hat[0] == pytest.approx(0.53421, rel=1e-12)

    def test_short_state_rejected(self):
        # a (2,1,1) step needs two lags; a one-observation origin has one
        m = ModelParams(ModelOrders(2, 1, 1), 1.0, 0.1, (0.1, 0.1), (0.1,), (0.1,))
        with pytest.raises(DataError, match="history"):
            forecast(m, IntervalSeries([0.0], [1.0]), 1, h_path=[1.0])


class TestPointForecasts:
    def test_one_step_hand_value(self):
        r = forecast(MODEL_I, ORIGIN, horizon=1, h_path=ORIGIN_H)
        assert r.h_hat[0] == pytest.approx(0.53421, rel=1e-12)

    def test_two_step_hand_value(self):
        r = forecast(MODEL_I, ORIGIN, horizon=2, h_path=ORIGIN_H)
        _, c1, _ = weak_stationarity(MODEL_I)
        assert r.h_hat[1] == pytest.approx(MODEL_I.mu + c1 * r.h_hat[0], rel=1e-14)
        assert r.h_hat[1] == pytest.approx(0.5342990823150027, rel=1e-13)
        # rounded published value
        assert abs(r.h_hat[1] - 0.53426) < 1e-4

    def test_substitution_rule(self):
        # step 2 replaces |lambda| by sqrt(2/pi) h-hat and delta by k h-hat
        r = forecast(MODEL_I, ORIGIN, horizon=2, h_path=ORIGIN_H)
        h1 = r.h_hat[0]
        by_hand = (
            MODEL_I.mu
            + MODEL_I.alpha[0] * math.sqrt(2 / math.pi) * h1
            + MODEL_I.beta[0] * MODEL_I.k * h1
            + MODEL_I.gamma[0] * h1
        )
        assert r.h_hat[1] == pytest.approx(by_hand, rel=1e-14)

    def test_zero_coefficients_forecast_mu(self):
        m = ModelParams(ORDERS_111, 2.0, 0.7, (0.0,), (0.0,), (0.0,))
        r = forecast(m, ORIGIN, horizon=10, h_path=ORIGIN_H)
        np.testing.assert_allclose(r.h_hat, np.full(10, 0.7), rtol=1e-15)

    def test_volatility_scale(self):
        r = forecast(MODEL_I, ORIGIN, horizon=5, h_path=ORIGIN_H)
        np.testing.assert_allclose(r.sigma2, (1 + MODEL_I.k / 3) * r.h_hat**2, rtol=1e-14)

    def test_horizon_prefix_invariance(self):
        short = forecast(MODEL_I, ORIGIN, horizon=2, h_path=ORIGIN_H)
        long = forecast(MODEL_I, ORIGIN, horizon=8, h_path=ORIGIN_H)
        np.testing.assert_array_equal(short.h_hat, long.h_hat[:2])

    def test_converges_to_stationary_mean(self):
        tm = theoretical_moments(MODEL_I)
        r = forecast(MODEL_I, ORIGIN, horizon=250, h_path=ORIGIN_H)
        assert r.h_hat[-1] == pytest.approx(tm.mean_h, rel=1e-10)

    def test_monotone_approach_from_below(self):
        # origin h below the stationary level: forecasts increase toward it
        tm = theoretical_moments(MODEL_I)
        r = forecast(MODEL_I, ORIGIN, horizon=60, h_path=ORIGIN_H)
        assert np.all(np.diff(r.h_hat) > 0)
        assert np.all(r.h_hat < tm.mean_h)

    def test_geometric_gap_decay(self):
        # the gap to the fixed point shrinks by exactly c1 each step
        # (horizon capped before cancellation eats the gap's precision)
        tm = theoretical_moments(MODEL_I)
        _, c1, _ = weak_stationarity(MODEL_I)
        r = forecast(MODEL_I, ORIGIN, horizon=25, h_path=ORIGIN_H)
        gap = tm.mean_h - r.h_hat
        ratios = gap[1:] / gap[:-1]
        np.testing.assert_allclose(ratios, c1, rtol=1e-9)


@pytest.fixture(scope="module")
def series_h():
    return simulate(SimConfig(MODEL_I, length=300, seed=66, burn_in=100))


class TestOriginHandling:
    def test_one_step_exact_at_true_params(self, series_h):
        # the 1-step forecast reproduces the true next h: same recursion,
        # same inputs
        series, h = series_h
        t = 150
        r = forecast(MODEL_I, series, horizon=1, h_path=h, origin_index=t)
        assert r.h_hat[0] == pytest.approx(h[t + 1], rel=1e-14)

    def test_default_origin_is_last(self, series_h):
        series, h = series_h
        explicit = forecast(MODEL_I, series, 3, h_path=h, origin_index=len(series) - 1)
        default = forecast(MODEL_I, series, 3, h_path=h)
        np.testing.assert_array_equal(explicit.h_hat, default.h_hat)
        assert default.origin_index == len(series) - 1

    def test_truncated_series_equivalent(self, series_h):
        # forecasting from an interior origin ignores everything after it
        series, h = series_h
        t = 200
        full = forecast(MODEL_I, series, 4, h_path=h, origin_index=t)
        trunc = forecast(MODEL_I, series[: t + 1], 4, h_path=h[: t + 1])
        np.testing.assert_array_equal(full.h_hat, trunc.h_hat)

    def test_h_path_recomputed_when_missing(self, series_h):
        # without an explicit path the forecaster rebuilds it from the model
        series, _ = series_h
        _, h_ref = loglik_eval(MODEL_I, series, InitMode.MEAN_H)
        with_path = forecast(MODEL_I, series, 2, h_path=h_ref)
        without = forecast(MODEL_I, series, 2, init_mode=InitMode.MEAN_H)
        np.testing.assert_allclose(without.h_hat, with_path.h_hat, rtol=1e-12)

    def test_fitted_model_path_reused(self, series_h):
        series, _ = series_h
        f = fit_mle(series, ORDERS_111)
        r = forecast(f, series, 1)
        p = f.params
        expected = (
            p.mu
            + p.alpha[0] * abs(series.centers[-1])
            + p.beta[0] * series.radii[-1]
            + p.gamma[0] * f.h_path[-1]
        )
        assert r.h_hat[0] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("mode", list(InitMode))
    def test_fitted_model_init_mode_applies(self, series_h, mode):
        # a fit's own pre-sample mode rebuilds the path, also when the fit
        # was read from JSON without its path, and whatever init_mode says
        series, _ = series_h
        f = fit_mle(series[:250], ORDERS_111, mode)
        loaded = FittedModel.from_dict(json.loads(json.dumps(f.to_dict(), indent=2)))
        assert loaded.h_path is None
        other = next(x for x in InitMode if x is not mode)
        # the first origin, where the pre-sample start shows most in h
        at = dict(origin_index=0)
        want = forecast(f.params, series, 3, init_mode=mode, **at).h_hat
        np.testing.assert_array_equal(forecast(f, series, 3, init_mode=other, **at).h_hat, want)
        got = forecast(loaded, series, 3, init_mode=other, **at).h_hat
        np.testing.assert_array_equal(got, want)
        other_h = forecast(f.params, series, 3, init_mode=other, **at).h_hat
        assert np.max(np.abs(other_h / want - 1.0)) > 1e-6

    def test_origin_date_carried(self):
        d = [dt.date(2020, 1, 6), dt.date(2020, 1, 7)]
        s = IntervalSeries([0.1, 0.2], [0.5, 0.6], dates=d)
        r = forecast(MODEL_I, s, 1, h_path=np.array([0.5, 0.5]))
        assert r.origin_date == dt.date(2020, 1, 7)

    def test_multi_step_error_grows(self):
        # against realized h, the 1-step forecast beats longer horizons
        c, rr, h = simulate_paths(MODEL_I, n_paths=400, length=80, seed=17, burn_in=100)
        t = 60
        errs = {1: [], 3: [], 8: []}
        for i in range(c.shape[0]):
            s = IntervalSeries(c[i], rr[i])
            f = forecast(MODEL_I, s, 8, h_path=h[i], origin_index=t)
            for j in errs:
                errs[j].append((f.h_hat[j - 1] - h[i][t + j]) ** 2)
        mse = {j: float(np.mean(v)) for j, v in errs.items()}
        assert mse[1] < mse[3] < mse[8]


class TestForecastValidation:
    def test_bad_horizon(self):
        with pytest.raises(DataError, match="horizon"):
            forecast(MODEL_I, ORIGIN, horizon=0, h_path=ORIGIN_H)

    def test_bad_origin(self):
        with pytest.raises(DataError, match="origin_index"):
            forecast(MODEL_I, ORIGIN, 1, h_path=ORIGIN_H, origin_index=5)

    def test_insufficient_history_for_higher_order(self):
        m = ModelParams(ModelOrders(2, 1, 1), 1.0, 0.1, (0.1, 0.1), (0.1,), (0.1,))
        s = IntervalSeries([0.1, 0.2, 0.3], [0.5, 0.5, 0.5])
        with pytest.raises(DataError, match="history"):
            forecast(m, s, 1, h_path=np.full(3, 0.5), origin_index=0)

    def test_short_h_path(self):
        s = IntervalSeries([0.1, 0.2, 0.3], [0.5, 0.5, 0.5])
        with pytest.raises(DataError, match="h_path"):
            forecast(MODEL_I, s, 1, h_path=np.array([0.5]))

    def test_wrong_model_type(self):
        with pytest.raises(DataError, match="model"):
            forecast({"mu": 0.1}, ORIGIN, 1, h_path=ORIGIN_H)

    def test_overflow_raises(self):
        # beta1 * 1e308 overflows the one-step source from origin 0
        m = ModelParams.first_order(k=0.3, mu=0.05, alpha1=0.05, beta1=2.5, gamma1=0.1)
        s = IntervalSeries([0.1], [1e308])
        with pytest.raises(NumericalError, match="overflow in the forecast from origin 0"):
            forecast(m, s, 2, h_path=ORIGIN_H)


@pytest.fixture(scope="module")
def series():
    s, _ = simulate(SimConfig(MODEL_I, length=260, seed=24, burn_in=100))
    return s


class TestRollingForecast:
    def test_origin_coverage(self, series):
        results, skipped = rolling_forecast(
            series, ORDERS_111, horizons=[1, 2], train_size=200, refit_every=30
        )
        assert skipped == []
        assert [r.origin_index for r in results] == list(range(199, 260))
        assert all(r.h_hat.shape == (2,) for r in results)

    def test_single_fit_matches_manual(self, series):
        # refit_every larger than the window means one fit at the first origin
        results, _ = rolling_forecast(
            series, ORDERS_111, horizons=[1], train_size=200, refit_every=10**6
        )
        f = fit_mle(series[:200], ORDERS_111)
        manual = forecast(f, series[:200], 1)
        assert results[0].h_hat[0] == pytest.approx(manual.h_hat[0], rel=1e-12)

    def test_later_origins_reuse_params(self, series):
        results, _ = rolling_forecast(
            series, ORDERS_111, horizons=[1], train_size=200, refit_every=10**6
        )
        f = fit_mle(series[:200], ORDERS_111)
        t = 210
        _, h_path = loglik_eval(f.params, series[: t + 1], f.init_mode)
        manual = forecast(f.params, series, 1, h_path=h_path, origin_index=t)
        got = next(r for r in results if r.origin_index == t)
        assert got.h_hat[0] == pytest.approx(manual.h_hat[0], rel=1e-12)

    @pytest.mark.parametrize("init_mode", list(InitMode))
    def test_reused_h_paths_equal_per_origin_paths(self, series, monkeypatch, init_mode):
        # origins that reuse a fit slice one path that runs to the next
        # refit, and on past it where that refit fails (here at 206); it must
        # equal, bit for bit, the path loglik_eval gives on series[: t + 1]
        module = importlib.import_module("intgarch.forecast")
        real, real_fit, seen = module.forecast, module.fit_mle, {}

        def spy(params, series_, horizon, h_path=None, origin_index=None):
            seen[origin_index] = (params, h_path)
            return real(params, series_, horizon, h_path=h_path, origin_index=origin_index)

        def fit(sample, *args, **kw):
            if len(sample) == 207:
                raise DataError("refit failed")
            return real_fit(sample, *args, **kw)

        monkeypatch.setattr(module, "forecast", spy)
        monkeypatch.setattr(module, "fit_mle", fit)
        _, skipped = rolling_forecast(series, ORDERS_111, horizons=[1], train_size=200,
                                      refit_every=7, init_mode=init_mode)
        reused = [t for t in range(199, 260) if (t - 199) % 7]
        assert [(t, stage) for t, stage, _ in skipped] == [(206, "refit")]
        assert sorted(seen) == [t for t in range(199, 260) if t != 206]
        for t in reused:
            params, h_path = seen[t]
            _, want = loglik_eval(params, series[: t + 1], init_mode)
            assert h_path.shape == want.shape and np.array_equal(h_path, want)

    def test_overflow_at_the_final_refit_only_skips_it(self):
        # k * beta1 = 0.75, so a radius near the float maximum overflows the
        # next h; sitting at 254, it first enters h_255, and 255 is the last
        # origin and a refit one. Only that refit and the forecast from 254
        # fail: the reuse origins before it evaluate h no further than 254.
        model = ModelParams.first_order(k=0.3, mu=0.05, alpha1=0.05, beta1=2.5, gamma1=0.1)
        s, _ = simulate(SimConfig(model, length=256, seed=24, burn_in=100))
        radii = s.radii.copy()
        radii[254] = 1e308
        extreme = IntervalSeries(s.centers, radii)
        results, skipped = rolling_forecast(
            extreme, ORDERS_111, horizons=[1], train_size=200, refit_every=7
        )
        assert [(t, stage) for t, stage, _ in skipped] == [(254, "forecast"), (255, "refit")]
        assert [r.origin_index for r in results] == list(range(199, 254))

    def test_overflow_inside_a_reused_span_skips_from_there(self):
        # the same world with the radius at 202, inside the span that the
        # fit of 199 evaluates for origins 200-205: 200 and 201 are still
        # forecast from their own paths, and every origin from 202 on fails
        model = ModelParams.first_order(k=0.3, mu=0.05, alpha1=0.05, beta1=2.5, gamma1=0.1)
        s, _ = simulate(SimConfig(model, length=256, seed=24, burn_in=100))
        radii = s.radii.copy()
        radii[202] = 1e308
        results, skipped = rolling_forecast(
            IntervalSeries(s.centers, radii), ORDERS_111, horizons=[1], train_size=200,
            refit_every=7,
        )
        assert [r.origin_index for r in results] == [199, 200, 201]
        assert [t for t, _, _ in skipped] == list(range(202, 256))
        # the refits at 206, 213, ... fail too; every other origin's forecast
        assert {t for t, stage, _ in skipped if stage == "refit"} == set(range(206, 256, 7))
        assert "overflow in the forecast from origin 202" in skipped[0][2]

    def test_refit_records_each_refit_alone(self, series, monkeypatch):
        # refit is set exactly at the origins that refit, skipped 206 aside,
        # and holds that fit's run facts, with none of its arrays
        module = importlib.import_module("intgarch.forecast")
        real_fit, fits = module.fit_mle, {}

        def fit(sample, *args, **kw):
            if len(sample) == 207:
                raise DataError("refit failed")
            fits[len(sample) - 1] = fitted = real_fit(sample, *args, **kw)
            return fitted

        monkeypatch.setattr(module, "fit_mle", fit)
        results, _ = rolling_forecast(series, ORDERS_111, horizons=[1], train_size=200, refit_every=7)
        refits = {r.origin_index: r.refit for r in results if r.refit is not None}
        assert sorted(refits) == sorted(fits) == [t for t in range(199, 260, 7) if t != 206]
        for t, run in refits.items():
            assert type(run) is FitRun
            assert [getattr(run, f.name) for f in fields(FitRun)] == [
                fits[t].stop_reason, fits[t].iterations, fits[t].gradient_max, fits[t].loglik_trace]
            assert run.converged == fits[t].converged
            assert not any(isinstance(getattr(run, f.name), np.ndarray) for f in fields(run))

    def test_horizons_validated(self, series):
        with pytest.raises(DataError, match="horizons"):
            rolling_forecast(series, ORDERS_111, horizons=[], train_size=200)
        with pytest.raises(DataError, match="horizons"):
            rolling_forecast(series, ORDERS_111, horizons=[0, 1], train_size=200)

    def test_train_size_validated(self, series):
        with pytest.raises(DataError, match="train_size"):
            rolling_forecast(series, ORDERS_111, horizons=[1], train_size=10)
        with pytest.raises(DataError, match="train_size"):
            rolling_forecast(series, ORDERS_111, horizons=[1], train_size=10**5)

    def test_refit_every_validated(self, series):
        with pytest.raises(DataError, match="refit_every"):
            rolling_forecast(series, ORDERS_111, horizons=[1], train_size=200, refit_every=0)

    def test_options_respected(self, series):
        results, _ = rolling_forecast(
            series,
            ORDERS_111,
            horizons=[1],
            train_size=200,
            refit_every=10**6,
            init_mode=InitMode.ZERO_H,
        )
        f = fit_mle(series[:200], ORDERS_111, InitMode.ZERO_H)
        manual = forecast(f, series[:200], 1)
        assert results[0].h_hat[0] == pytest.approx(manual.h_hat[0], rel=1e-12)
