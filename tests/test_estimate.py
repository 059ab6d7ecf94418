"""Two-stage estimation: moment k, projected-Newton MLE, and standard errors."""

import json
import math

import numpy as np
import pytest

from intgarch import (
    ConvergenceError,
    DataError,
    FittedModel,
    InitMode,
    IntervalSeries,
    ModelError,
    ModelOrders,
    ModelParams,
    NumericalError,
    SimConfig,
    asymptotic_covariance,
    estimate_k,
    fit_mle,
    init_theta,
    loglik_eval,
    score_and_hessian,
    simulate,
)
from intgarch import estimate
from intgarch.estimate import _feasible, _projected_newton

MODEL_I = ModelParams.first_order(k=1.8147, mu=0.0906, alpha1=0.0318, beta1=0.374, gamma1=0.1265)
ORDERS_111 = ModelOrders(1, 1, 1)


@pytest.fixture(scope="module")
def sample():
    series, _ = simulate(SimConfig(MODEL_I, length=2000, seed=314, burn_in=200))
    return series


@pytest.fixture(scope="module")
def fitted(sample):
    return fit_mle(sample, ORDERS_111)


class TestEstimateK:
    def test_formula(self):
        s = IntervalSeries([1.0, -2.0, 0.5], [0.4, 1.0, 0.7])
        expected = math.sqrt(2 / math.pi) * np.mean([0.4, 1.0, 0.7]) / np.mean([1.0, 2.0, 0.5])
        assert estimate_k(s) == pytest.approx(expected, rel=1e-15)

    def test_recovers_k_from_long_sample(self):
        series, _ = simulate(SimConfig(MODEL_I, length=40000, seed=77, burn_in=200))
        assert estimate_k(series) == pytest.approx(MODEL_I.k, rel=0.03)

    def test_zero_centers_rejected(self):
        s = IntervalSeries([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(DataError, match="centers"):
            estimate_k(s)

    def test_zero_radii_rejected(self):
        s = IntervalSeries([1.0, -1.0], [0.0, 0.0])
        with pytest.raises(DataError, match="radii"):
            estimate_k(s)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            estimate_k(IntervalSeries([], []))


class TestInitTheta:
    def test_default_budgets(self):
        s = IntervalSeries([1.0, -1.0, 2.0], [0.5, 1.0, 1.5])
        k = 2.0
        m = init_theta(s, k, ORDERS_111)
        assert m.alpha[0] == pytest.approx(0.2 * math.sqrt(2 / math.pi), rel=1e-15)
        assert m.alpha[0] == pytest.approx(0.15958, abs=5e-6)
        assert m.beta[0] == pytest.approx(0.2 / k, rel=1e-15)
        assert m.gamma[0] == pytest.approx(0.2, rel=1e-15)
        assert m.mu == pytest.approx(0.4 * 1.0 / k, rel=1e-15)  # mean radius is 1.0

    def test_equal_split_within_group(self):
        s = IntervalSeries([1.0, -1.0, 2.0, 0.5], [0.5, 1.0, 1.5, 1.0])
        m = init_theta(s, 1.5, ModelOrders(2, 1, 1))
        assert m.alpha[0] == m.alpha[1] == pytest.approx(0.1 * math.sqrt(2 / math.pi), rel=1e-15)

    def test_start_is_mean_stationary(self):
        from intgarch import mean_stationarity

        s = IntervalSeries([1.0, -1.0, 2.0], [0.5, 1.0, 1.5])
        for k in (0.3, 1.0, 5.0):
            ok, ws = mean_stationarity(init_theta(s, k, ORDERS_111))
            assert ok and ws == pytest.approx(0.2 * (2 / math.pi) + 0.4, rel=1e-12)

    def test_custom_budget_and_fraction(self):
        # the documented start point: mu at 0.4 of the implied mean scale
        # mean(radii)/k = 0.5, each coefficient group with weight 0.2
        s = IntervalSeries([1.0, -1.0], [1.0, 3.0])
        m = init_theta(s, 4.0, ORDERS_111)
        assert m.mu == pytest.approx(0.4 * 2.0 / 4.0)
        assert m.alpha[0] == pytest.approx(0.2 * math.sqrt(2 / math.pi))
        assert m.beta[0] == pytest.approx(0.2 / 4.0)
        assert m.gamma[0] == pytest.approx(0.2)

    def test_degenerate_radii(self):
        s = IntervalSeries([1.0, -1.0], [0.0, 0.0])
        with pytest.raises(DataError, match="radii"):
            init_theta(s, 1.0, ORDERS_111)

    def test_bad_k(self):
        s = IntervalSeries([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ModelError, match="k"):
            init_theta(s, 0.0, ORDERS_111)


class TestLoglik:
    def test_single_observation_hand_value(self):
        # constant scale h = mu = 1, observation [−1, 1]: center 0, radius 1
        # l = -(k+1) log 1 - 0 - 1/1 = -1 at k = 1
        m = ModelParams(ModelOrders(1, 1, 0), 1.0, 1.0, (0.0,), (0.0,), ())
        s = IntervalSeries([0.0], [1.0])
        ll, h = loglik_eval(m, s)
        assert ll == pytest.approx(-1.0, rel=1e-15)
        np.testing.assert_allclose(h, [1.0])

    def test_additive_over_observations(self):
        m = ModelParams(ModelOrders(1, 1, 0), 2.0, 0.5, (0.0,), (0.0,), ())
        one = loglik_eval(m, IntervalSeries([0.3], [0.8]))[0]
        two = loglik_eval(m, IntervalSeries([-0.1], [0.4]))[0]
        both = loglik_eval(m, IntervalSeries([0.3, -0.1], [0.8, 0.4]))[0]
        assert both == pytest.approx(one + two, rel=1e-14)

    def test_matches_naive_recursion(self, sample):
        # replay the likelihood with a plain Python loop started from the
        # stationary level
        m = MODEL_I
        lam, dlt = sample.centers, sample.radii
        ws = 0.0318 * math.sqrt(2 / math.pi) + 0.374 * m.k + 0.1265
        eh = m.mu / (1 - ws)
        h_prev, lam_prev, dlt_prev = eh, 0.0, m.k * eh
        ll = 0.0
        h_path = []
        for t in range(len(sample)):
            h = m.mu + 0.0318 * abs(lam_prev) + 0.374 * dlt_prev + 0.1265 * h_prev
            ll += -(m.k + 1) * math.log(h) - lam[t] ** 2 / (2 * h * h) - dlt[t] / h
            h_path.append(h)
            h_prev, lam_prev, dlt_prev = h, lam[t], dlt[t]
        got_ll, got_h = loglik_eval(m, sample, InitMode.MEAN_H)
        assert got_ll == pytest.approx(ll, rel=1e-12)
        np.testing.assert_allclose(got_h, h_path, rtol=1e-12)

    def test_zero_h_init_matches_simulator(self):
        # the ZERO_H likelihood path reproduces the simulated h exactly
        series, h_true = simulate(SimConfig(MODEL_I, length=400, seed=8, burn_in=0))
        _, h_fit = loglik_eval(MODEL_I, series, InitMode.ZERO_H)
        np.testing.assert_allclose(h_fit, h_true, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            loglik_eval(MODEL_I, IntervalSeries([], []))

    def test_nonstationary_mean_init_rejected(self):
        m = ModelParams.first_order(k=1.0, mu=0.1, alpha1=0.5, beta1=0.9, gamma1=0.3)
        s = IntervalSeries([0.1, -0.2], [0.5, 0.4])
        with pytest.raises(ModelError, match="nonstationary"):
            loglik_eval(m, s, InitMode.MEAN_H)


class TestScoreHessian:
    @staticmethod
    def fd_gradient(params, series, step=1e-6):
        theta = params.theta
        g = np.empty_like(theta)
        for i in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[i] += step
            dn[i] -= step
            g[i] = (
                loglik_eval(params.with_theta(up), series)[0]
                - loglik_eval(params.with_theta(dn), series)[0]
            ) / (2 * step)
        return g

    def test_gradient_matches_fd(self, sample):
        rng = np.random.default_rng(40)
        for _ in range(4):
            theta = np.array(
                [
                    rng.uniform(0.05, 0.3),
                    rng.uniform(0.02, 0.15),
                    rng.uniform(0.1, 0.3),
                    rng.uniform(0.05, 0.3),
                ]
            )
            m = ModelParams(ORDERS_111, MODEL_I.k, theta[0], (theta[1],), (theta[2],), (theta[3],))
            grad, _ = score_and_hessian(m, sample)
            fd = self.fd_gradient(m, sample)
            np.testing.assert_allclose(grad, fd, rtol=1e-5)

    def test_hessian_matches_fd_of_gradient(self, sample):
        m = ModelParams(ORDERS_111, MODEL_I.k, 0.1, (0.05,), (0.3,), (0.15,))
        _, hess = score_and_hessian(m, sample)
        step = 1e-5
        theta = m.theta
        fd = np.empty((4, 4))
        for j in range(4):
            up, dn = theta.copy(), theta.copy()
            up[j] += step
            dn[j] -= step
            gu, _ = score_and_hessian(m.with_theta(up), sample)
            gd, _ = score_and_hessian(m.with_theta(dn), sample)
            fd[:, j] = (gu - gd) / (2 * step)
        np.testing.assert_allclose(hess, fd, rtol=1e-4, atol=1e-4 * np.abs(fd).max())

    def test_hessian_symmetric(self, sample):
        m = ModelParams(ORDERS_111, MODEL_I.k, 0.12, (0.04,), (0.25,), (0.1,))
        _, hess = score_and_hessian(m, sample)
        np.testing.assert_allclose(hess, hess.T, rtol=1e-10)

    def test_population_first_order_condition(self):
        # data exactly at the conditional expectations: lambda_t^2 = h_t^2
        # and delta_t = k h_t make every per-step score factor vanish
        k, mu = 2.0, 0.7
        m = ModelParams(ModelOrders(1, 1, 0), k, mu, (0.0,), (0.0,), ())
        n = 50
        s = IntervalSeries(np.full(n, mu), np.full(n, k * mu))
        grad, _ = score_and_hessian(m, s)
        np.testing.assert_allclose(grad, np.zeros(3), atol=1e-10)


# interior points of higher-order models, with weight sums well below 1
HIGHER_ORDER_MODELS = {
    "222": ModelParams(ModelOrders(2, 2, 2), 1.5, 0.1, (0.04, 0.02), (0.15, 0.05), (0.2, 0.1)),
    "123": ModelParams(ModelOrders(1, 2, 3), 1.2, 0.1, (0.05,), (0.2, 0.08), (0.1, 0.06, 0.05)),
    "110": ModelParams(ModelOrders(1, 1, 0), 1.8, 0.15, (0.1,), (0.3,), ()),
}


class TestScoreHessianHigherOrders:
    """Score and Hessian against central differences beyond (1,1,1)."""

    @pytest.fixture(scope="class", params=sorted(HIGHER_ORDER_MODELS))
    def model_and_sample(self, request):
        m = HIGHER_ORDER_MODELS[request.param]
        series, _ = simulate(SimConfig(m, length=600, seed=61, burn_in=100))
        # evaluate away from the generating point, so the score is not ~0
        return m.with_theta(m.theta * np.linspace(0.8, 1.2, m.theta.size)), series

    @pytest.mark.parametrize("mode", list(InitMode))
    def test_matches_finite_differences(self, model_and_sample, mode):
        m, series = model_and_sample
        theta = m.theta
        grad, hess = score_and_hessian(m, series, mode)
        fd_g = np.empty_like(theta)
        fd_h = np.empty((theta.size, theta.size))
        for i in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            step = 1e-6 * (1.0 + abs(theta[i]))
            up[i] += step
            dn[i] -= step
            fd_g[i] = (
                loglik_eval(m.with_theta(up), series, mode)[0]
                - loglik_eval(m.with_theta(dn), series, mode)[0]
            ) / (2 * step)
            up[i] += 9 * step  # the Hessian takes differences of the score at 1e-5
            dn[i] -= 9 * step
            fd_h[:, i] = (
                score_and_hessian(m.with_theta(up), series, mode)[0]
                - score_and_hessian(m.with_theta(dn), series, mode)[0]
            ) / (20 * step)
        assert np.max(np.abs(grad - fd_g)) / max(1.0, np.max(np.abs(grad))) < 1e-5
        assert np.max(np.abs(hess - fd_h)) / max(1.0, np.max(np.abs(hess))) < 1e-4
        np.testing.assert_allclose(hess, hess.T, rtol=1e-10, atol=1e-12 * np.abs(hess).max())


class TestFitMle:
    def test_converges_on_model_data(self, fitted):
        assert fitted.converged
        assert fitted.gradient_max < 1e-6
        assert fitted.boundary == ()

    def test_recovers_parameters(self, fitted):
        p = fitted.params
        assert p.k == pytest.approx(MODEL_I.k, abs=0.2)
        assert p.mu == pytest.approx(MODEL_I.mu, abs=0.05)
        assert p.alpha[0] == pytest.approx(MODEL_I.alpha[0], abs=0.08)
        assert p.beta[0] == pytest.approx(MODEL_I.beta[0], abs=0.08)
        assert p.gamma[0] == pytest.approx(MODEL_I.gamma[0], abs=0.12)

    def test_loglik_consistent_with_eval(self, fitted, sample):
        ll, h = loglik_eval(fitted.params, sample, fitted.init_mode)
        assert fitted.loglik == pytest.approx(ll, rel=1e-12)
        np.testing.assert_allclose(fitted.h_path, h, rtol=1e-12)

    def test_trace_monotone(self, fitted):
        trace = np.asarray(fitted.loglik_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-9)
        assert trace[-1] == pytest.approx(fitted.loglik, rel=1e-12)

    def test_std_errors_match_covariance(self, fitted):
        cov = asymptotic_covariance(fitted)
        se = np.sqrt(np.diag(cov))
        names = fitted.free_names
        assert set(fitted.std_errors) == set(names)
        for i, n in enumerate(names):
            assert fitted.std_errors[n] == pytest.approx(se[i], rel=1e-12)

    def test_estimate_at_interior_maximum(self, fitted, sample):
        grad, hess = score_and_hessian(fitted.params, sample, fitted.init_mode)
        assert np.max(np.abs(grad)) < 1e-6
        assert np.all(np.linalg.eigvalsh(hess) < 0)

    def test_fit_beats_nearby_points(self, fitted, sample):
        rng = np.random.default_rng(55)
        for _ in range(5):
            bump = rng.normal(scale=0.01, size=4)
            cand = np.maximum(fitted.params.theta + bump, 1e-6)
            ll = loglik_eval(fitted.params.with_theta(cand), sample, fitted.init_mode)[0]
            assert ll <= fitted.loglik + 1e-9

    def test_constant_scale_data_collapses_to_boundary(self):
        # data generated with all coefficients 0 (h identically mu): the
        # shock terms collapse toward the boundary; mu and gamma stay tied
        # through the fixed point mu/(1-weights), which must match the level
        from intgarch import mean_stationarity

        true = ModelParams(ORDERS_111, 1.5, 0.8, (0.0,), (0.0,), (0.0,))
        series, _ = simulate(SimConfig(true, length=1500, seed=99))
        f = fit_mle(series, ORDERS_111)
        p = f.params
        assert p.alpha[0] < 0.05 and p.beta[0] < 0.05
        _, ws = mean_stationarity(p)
        assert p.mu / (1.0 - ws) == pytest.approx(0.8, abs=0.05)
        # anything snapped to zero must be flagged, never given an SE
        for name in f.boundary:
            assert name not in f.std_errors

    def test_constant_scale_data_without_memory_term(self):
        # the (1,1,0) sub-model has no mu/gamma trade-off: mu pins the level
        true = ModelParams(ORDERS_111, 1.5, 0.8, (0.0,), (0.0,), (0.0,))
        series, _ = simulate(SimConfig(true, length=1500, seed=99))
        f = fit_mle(series, ModelOrders(1, 1, 0))
        assert f.params.mu == pytest.approx(0.8, abs=0.06)
        assert f.params.alpha[0] < 0.05 and f.params.beta[0] < 0.05

    def test_exactly_constant_data_is_overparameterized(self):
        # literal constant intervals put the optimum on a flat ridge; the
        # information matrix is singular and the fit refuses to pick a point
        n = 120
        s = IntervalSeries(np.full(n, 0.4), np.full(n, 0.9))
        with pytest.raises(NumericalError, match="over-parameterized"):
            fit_mle(s, ORDERS_111)

    def test_insufficient_data(self):
        s = IntervalSeries(np.ones(20) * 0.3, np.ones(20) * 0.5)
        with pytest.raises(DataError, match="insufficient"):
            fit_mle(s, ORDERS_111)

    def test_zero_h_init_mode_respected(self, sample):
        f = fit_mle(sample, ORDERS_111, InitMode.ZERO_H)
        assert f.init_mode is InitMode.ZERO_H
        assert f.converged

    def test_converged_fit_reports_its_stop_reason(self, fitted):
        assert fitted.stop_reason == "gradient tolerance"

    def test_iteration_cap_is_reported(self, sample, monkeypatch):
        monkeypatch.setattr(estimate, "_MAX_STEPS", 1)
        f = fit_mle(sample, ORDERS_111)
        assert not f.converged
        assert f.stop_reason == "iteration cap"
        assert f.iterations == 1

    def test_coefficient_that_reaches_zero_is_released(self):
        # on this path a coefficient passes through 0 on the way to an
        # interior maximum where d loglik / d alpha1 would be 8.3 had it
        # been kept at 0
        series, _ = simulate(SimConfig(MODEL_I, length=500, seed=53, burn_in=200))
        f = fit_mle(series, ORDERS_111)
        grad, _ = score_and_hessian(f.params, series, f.init_mode)
        assert f.converged
        assert f.boundary == ()
        assert np.max(np.abs(grad)) < 1e-6
        assert f.loglik > 109.72


class TestProjectedNewton:
    def test_leaves_bound_when_score_points_inward(self):
        # maximize -|x - c|^2 over x >= 0 with c = (1, -1): the first
        # coordinate starts at its bound with a positive score; the second
        # is pushed onto its bound and held there against an outward score
        c = np.array([1.0, -1.0])
        theta, value, kkt, _, stop, _, _ = _projected_newton(
            lambda x: -float(np.sum((x - c) ** 2)),
            lambda x: (-2.0 * (x - c), -2.0 * np.eye(2)),
            np.array([0.0, 0.5]), np.zeros(2), lambda x: True,
        )
        np.testing.assert_allclose(theta, [1.0, 0.0], atol=1e-12)
        assert value == pytest.approx(-1.0, abs=1e-12)
        assert kkt[1] == 0.0
        assert stop == "gradient tolerance"

    def test_fit_started_at_zero_coefficient_leaves_it(self, sample):
        # alpha1 = 0 with an inward score at the start: the scale model
        # must move it off the bound and reach the interior optimum
        k = estimate_k(sample)
        start = init_theta(sample, k, ORDERS_111).theta.copy()
        start[1] = 0.0
        m = init_theta(sample, k, ORDERS_111).with_theta(start)
        grad0, _ = score_and_hessian(m, sample)
        assert grad0[1] > 0
        lower = np.array([-np.inf, 0.0, 0.0, 0.0])

        def objective(th):
            return loglik_eval(m.with_theta(th), sample)[0]

        def derivs(th):
            return score_and_hessian(m.with_theta(th), sample)

        theta, value, kkt, _, stop, _, _ = _projected_newton(
            objective, derivs, start, lower, lambda th: _feasible(k, th, ORDERS_111)
        )
        assert stop == "gradient tolerance"
        assert theta[1] > 0
        assert np.max(np.abs(kkt)) < 1e-6
        assert value == pytest.approx(fit_mle(sample, ORDERS_111).loglik, rel=1e-10)

    @staticmethod
    def _on_face(target, start):
        # maximize -|x - target|^2 over x >= 0 and the face x1 + x2 <= 1
        target = np.array(target)

        def grad(x):
            return -2.0 * (x - target)

        theta, _, kkt, _, stop, _, _ = _projected_newton(
            lambda x: -float(np.sum((x - target) ** 2)),
            lambda x: (grad(x), -2.0 * np.eye(2)),
            np.array(start), np.zeros(2), lambda x: True,
            face=(np.ones(2), 1.0),
        )
        return theta, grad(theta), kkt, stop

    def test_ends_on_face_with_positive_multiplier(self):
        theta, grad, kkt, stop = self._on_face((2.0, 2.0), (0.1, 0.2))
        np.testing.assert_allclose(theta, [0.5, 0.5], atol=1e-12)
        # the score less the KKT gradient is the multiplier times the normal
        np.testing.assert_allclose(grad - kkt, [3.0, 3.0], atol=1e-10)
        assert np.max(np.abs(kkt)) < 1e-10
        assert stop == "gradient tolerance"

    def test_leaves_face_when_score_points_inward(self):
        theta, grad, kkt, stop = self._on_face((0.2, 0.3), (0.5, 0.5))
        np.testing.assert_allclose(theta, [0.2, 0.3], atol=1e-12)
        np.testing.assert_array_equal(kkt, grad)
        assert stop == "gradient tolerance"

    def test_ends_at_corner_of_bound_and_face(self):
        # at (0, 1) the score (1, 4) still points up in x1, but less than
        # the face's multiplier 4, so the bound x1 >= 0 holds beside it
        theta, grad, kkt, stop = self._on_face((0.5, 3.0), (0.2, 0.2))
        np.testing.assert_allclose(theta, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(grad, [1.0, 4.0], atol=1e-10)
        assert kkt[0] == 0.0
        assert abs(kkt[1]) < 1e-10
        assert stop == "gradient tolerance"

    def test_no_uphill_step(self):
        # a flat objective with a nonzero "score" offers no improvement
        theta0 = np.array([0.5])
        *_, stop, _, _ = _projected_newton(
            lambda x: 0.0 if x[0] == 0.5 else -1.0,
            lambda x: (np.array([1.0]), np.array([[-1.0]])),
            theta0, np.zeros(1), lambda x: True,
        )
        assert stop == "no uphill step"


class TestFittedModelSerialization:
    def test_round_trip(self, fitted):
        doc = json.loads(fitted.to_json())
        again = FittedModel.from_dict(doc)
        assert again.params == fitted.params
        assert again.loglik == fitted.loglik
        assert again.converged == fitted.converged
        assert again.std_errors == fitted.std_errors
        assert again.boundary == fitted.boundary
        assert again.init_mode == fitted.init_mode

    def test_stop_reason_round_trips(self, fitted):
        doc = json.loads(fitted.to_json())
        assert doc["stop_reason"] == "gradient tolerance"
        assert FittedModel.from_dict(doc).stop_reason == "gradient tolerance"

    def test_document_without_stop_reason_loads(self, fitted):
        doc = json.loads(fitted.to_json())
        del doc["stop_reason"]
        assert FittedModel.from_dict(doc).stop_reason is None

    def test_loglik_trace_round_trips(self, fitted):
        doc = json.loads(fitted.to_json())
        assert len(fitted.loglik_trace) > 1 and doc["loglik_trace"] == list(fitted.loglik_trace)
        assert FittedModel.from_dict(doc).loglik_trace == fitted.loglik_trace

    def test_document_without_loglik_trace_loads(self, fitted):
        doc = json.loads(fitted.to_json())
        del doc["loglik_trace"]
        assert FittedModel.from_dict(doc).loglik_trace == ()

    def test_extra_keys_ignored(self, fitted):
        doc = json.loads(fitted.to_json())
        doc["run_config"] = {"note": "anything"}
        assert FittedModel.from_dict(doc).n_obs == fitted.n_obs

    def test_keys_are_plain_strings(self, fitted):
        d = fitted.to_dict()
        assert all(type(k) is str for k in d["std_errors"])
        assert all(type(b) is str for b in d["boundary"])
        json.dumps(d)  # must be serializable as-is

    def test_malformed(self):
        with pytest.raises(DataError):
            FittedModel.from_dict({"loglik": 1.0})


class TestAsymptoticCovariance:
    def test_not_converged_raises(self, fitted):
        import dataclasses

        bad = dataclasses.replace(fitted, converged=False)
        with pytest.raises(ConvergenceError):
            asymptotic_covariance(bad)

    def test_no_hessian_raises(self, fitted):
        import dataclasses

        bad = dataclasses.replace(fitted, hessian=None)
        with pytest.raises(DataError, match="Hessian"):
            asymptotic_covariance(bad)

    def test_no_covariance_raises(self, fitted):
        import dataclasses

        bad = dataclasses.replace(fitted, covariance=None)
        with pytest.raises(NumericalError, match="interior maximum"):
            asymptotic_covariance(bad)

    def test_returns_the_fit_covariance(self, fitted):
        assert np.array_equal(asymptotic_covariance(fitted), fitted.covariance)

    def test_positive_definite(self, fitted):
        cov = asymptotic_covariance(fitted)
        assert np.all(np.linalg.eigvalsh(cov) > 0)
        np.testing.assert_allclose(cov, cov.T, rtol=1e-10)
