"""Two-stage estimation: moment estimator for k, projected-Newton MLE for
the scale parameters.

Stage one sets k-hat = sqrt(2/pi) * mean(radius) / mean(|center|), from the
stationary identity E(delta)/E|lambda| = k / sqrt(2/pi).

Stage two maximizes the conditional log-likelihood

    l(theta) = sum_t [ -(k+1) log h_t - lam_t^2 / (2 h_t^2) - del_t / h_t ]

by projected Newton (Bertsekas 1982) with analytic score and Hessian:
the coefficients are bounded below by 0, and one held at 0 is released
as soon as its score points back into the interior. Its settings are
fixed, and the same for the GARCH(1,1) baseline in evaluate: at most 200
steps of at most 30 halvings, converged once every projected score is
below 1e-6. It starts with mu at 0.4 of the implied mean scale and a
weight of 0.2 in each coefficient group. Pre-sample lags are set to
their stationary expectations (centers 0, radii k*E(h;theta), h either
E(h;theta) or 0), and because E(h;theta) moves with theta, its first and
second derivatives are carried through the recursions; the resulting
score and Hessian match finite differences of the likelihood to near
machine precision.

The recursion h_t = base_t + sum_j gamma_j h_{t-j} and the identical
recursion for the d columns of dh/dtheta are solved by process.recurse,
with the pre-sample values folded into the first w rows of the source.
The Hessian's second-order term sum_t u_t d2h_t/dtheta2 is taken in
adjoint (reverse-mode) form, sum_t u~_t Q_t (Griewank & Walther 2008):
u~ is the reverse filter of the score weights u with the same gamma, and
the second-derivative source Q_t is nonzero only in the gamma rows and
columns, in the rows t < i of the pre-sample radius terms of beta_i, and
in the folded pre-sample rows t < w. So the term costs a few d-wide
contractions and needs no (T, d, d) array. _recursion_derivs, shared
with the baseline, takes the gamma rows and columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import ConvergenceError, DataError, ModelError, NumericalError
from .intervals import IntervalSeries
from .process import ABS_NORMAL_MEAN, InitMode, ModelOrders, ModelParams, recurse

__all__ = [
    "FittedModel",
    "estimate_k",
    "init_theta",
    "loglik_eval",
    "score_and_hessian",
    "fit_mle",
    "asymptotic_covariance",
]

# a coordinate this close to its bound, with an outward score, is held there
_BOUNDARY_EPS = 1e-8
# keep the weight sum strictly inside the mean-stationary region during fitting
_STATIONARITY_MARGIN = 1e-10
# the projected Newton's settings, the same for every model it fits
_MAX_STEPS = 200
_GRADIENT_TOL = 1e-6
_MAX_HALVINGS = 30

MIN_OBS_PER_PARAM = 10
# init_theta's start point: mu as a fraction of h-bar, each group's weight
_START_MU_FRACTION = 0.4
_START_COEF_BUDGET = 0.2


@dataclass(frozen=True)
class FittedModel:
    """Result of a two-stage fit.

    std_errors holds asymptotic standard errors keyed by parameter name;
    names in `boundary` ended at exactly 0 and carry no standard error.
    covariance (and hessian) are over the free scale parameters in
    `free_names` order. k comes from the moment stage and has no
    likelihood-based standard error. stop_reason is why the optimizer
    stopped: "gradient tolerance" (converged), "no uphill step" or
    "iteration cap"; it is None for documents written without it.
    iterations counts Newton steps. loglik_trace holds the log-likelihood
    at the start point and after each accepted step; it is () for
    documents written without it.
    """

    params: ModelParams
    loglik: float
    converged: bool
    stop_reason: str | None
    iterations: int
    gradient_max: float
    boundary: tuple
    free_names: tuple
    std_errors: dict
    n_obs: int
    init_mode: InitMode
    h_path: np.ndarray | None = field(default=None, repr=False)
    covariance: np.ndarray | None = field(default=None, repr=False)
    hessian: np.ndarray | None = field(default=None, repr=False)
    loglik_trace: tuple = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "model": self.params.to_dict(),
            "loglik": self.loglik,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "iterations": self.iterations,
            "gradient_max": self.gradient_max,
            "boundary": list(self.boundary),
            "std_errors": dict(self.std_errors),
            "n_obs": self.n_obs,
            "init_mode": self.init_mode.value,
            "loglik_trace": list(self.loglik_trace),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedModel":
        try:
            params = ModelParams.from_dict(d["model"])
            return cls(
                params=params,
                loglik=float(d["loglik"]),
                converged=bool(d["converged"]),
                stop_reason=d.get("stop_reason"),
                iterations=int(d["iterations"]),
                gradient_max=float(d["gradient_max"]),
                boundary=tuple(d["boundary"]),
                free_names=tuple(
                    n for n in params.param_names() if n not in set(d["boundary"])
                ),
                std_errors={k: float(v) for k, v in d["std_errors"].items()},
                n_obs=int(d["n_obs"]),
                init_mode=InitMode(d["init_mode"]),
                loglik_trace=tuple(float(v) for v in d.get("loglik_trace", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed fit document: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FittedModel":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid fit JSON: {exc}") from exc
        return cls.from_dict(doc)


def estimate_k(series: IntervalSeries) -> float:
    """Moment estimator of the Gamma shape k.

    k-hat = sqrt(2/pi) * mean(radii) / mean(|centers|). Raises when either
    component mean is zero, which leaves k unidentified.
    """
    if len(series) == 0:
        raise DataError("empty input")
    mean_abs_center = float(np.abs(series.centers).mean())
    mean_radius = float(series.radii.mean())
    if mean_abs_center == 0.0:
        raise DataError("degenerate centers: k not identified")
    if mean_radius == 0.0:
        raise DataError("degenerate radii: k not identified")
    return ABS_NORMAL_MEAN * mean_radius / mean_abs_center


def init_theta(series: IntervalSeries, k: float, orders: ModelOrders) -> ModelParams:
    """Starting parameters for the likelihood maximization.

    The implied mean scale h-bar is mean(radii)/k. mu starts at 0.4 * h-bar;
    each coefficient group gets an equal split of its budget b = 0.2:
    sqrt(pi/2)*sum(alpha0) = b, k*sum(beta0) = b, sum(gamma0) = b. The lag
    weights then sum to (2/pi)*b + 2b < 1, so the start point is always
    mean-stationary.
    """
    if len(series) == 0:
        raise DataError("empty input")
    if not k > 0:
        raise ModelError(f"k must be positive, got {k}")
    hbar = float(series.radii.mean()) / k
    if hbar <= 0:
        raise DataError("degenerate radii: cannot scale starting point")
    b = _START_COEF_BUDGET
    alpha0 = (b * ABS_NORMAL_MEAN / orders.p,) * orders.p
    beta0 = (b / k / orders.q,) * orders.q
    gamma0 = (b / orders.w,) * orders.w if orders.w else ()
    return ModelParams(orders, k, _START_MU_FRACTION * hbar, alpha0, beta0, gamma0)


# ---------------------------------------------------------------------------
# likelihood internals on raw arrays


def _split_theta(theta: np.ndarray, o: ModelOrders) -> tuple:
    return (
        theta[0],
        theta[1 : 1 + o.p],
        theta[1 + o.p : 1 + o.p + o.q],
        theta[1 + o.p + o.q :],
    )


def _weight_sum_direction(k: float, o: ModelOrders) -> np.ndarray:
    """Gradient of the stationarity weight sum S(theta) in theta."""
    s = np.zeros(o.n_params)
    s[1 : 1 + o.p] = ABS_NORMAL_MEAN
    s[1 + o.p : 1 + o.p + o.q] = k
    s[1 + o.p + o.q :] = 1.0
    return s


def _weight_sum(k: float, theta: np.ndarray, o: ModelOrders) -> float:
    return float(_weight_sum_direction(k, o)[1:] @ theta[1:])


def _level_grad_hess(k: float, theta: np.ndarray, o: ModelOrders) -> tuple:
    """Stationary mean E(h) = mu/(1-S) with gradient and Hessian in theta."""
    S = _weight_sum(k, theta, o)
    if S >= 1.0:
        raise ModelError(
            f"nonstationary parameters (weight sum {S:.6g} >= 1): pre-sample "
            "expectation undefined"
        )
    mu = theta[0]
    s = _weight_sum_direction(k, o)
    e0 = np.zeros(o.n_params)
    e0[0] = 1.0
    r = 1.0 / (1.0 - S)
    level = mu * r
    grad = e0 * r + mu * s * r * r
    hess = (np.outer(e0, s) + np.outer(s, e0)) * r * r + 2.0 * mu * np.outer(s, s) * r**3
    return level, grad, hess


def _fold(source: np.ndarray, gamma: np.ndarray, init) -> np.ndarray:
    """Copy of source with the pre-sample terms sum_{j>t} gamma_j * init
    added to each row t < w, for `recurse`'s zero pre-sample."""
    src = np.array(source, dtype=float)
    for t in range(min(len(gamma), len(src))):
        src[t] += gamma[t:].sum() * init
    return src


def _recursion_derivs(src, gamma, d0, u, v, ar) -> tuple:
    """Gradient and Hessian of sum_t f_t(y_t), y_t = base_t + sum_j
    gamma_j y_{t-j}: src is the direct derivative of base_t and y_{t-j}
    in theta, d0 that of the pre-sample y, u and v are f_t' and f_t'', and
    columns `ar` hold gamma_1, gamma_2, ... Returns (grad, hess, ur): D'u
    and (D v)'D, D the derivative columns, plus the second-order term of
    the `ar` rows and columns; ur, the reverse filter of u, weighs the
    caller's other second-order sources.
    """
    D = recurse(_fold(src, gamma, d0), gamma)
    grad = D.T @ u
    hess = (D * v[:, None]).T @ D
    ur = recurse(u[::-1], gamma)[::-1]
    w = len(gamma)
    D_ext = np.empty((w + len(u), D.shape[1]))
    D_ext[:w], D_ext[w:] = d0, D
    for i, col in enumerate(ar, 1):
        z = ur @ D_ext[w - i : w - i + len(u)]
        hess[col, :] += z
        hess[:, col] += z
    return grad, hess, ur


def _h_recursion(
    k: float,
    theta: np.ndarray,
    lam: np.ndarray,
    dlt: np.ndarray,
    o: ModelOrders,
    init_mode: InitMode,
) -> tuple:
    """h path (finite and positive), the extended lag arrays, pre-sample h."""
    T = lam.shape[0]
    m = o.max_lag
    mu, alpha, beta, gamma = _split_theta(theta, o)
    level, _, _ = _level_grad_hess(k, theta, o)  # validates S < 1
    h0 = level if init_mode is InitMode.MEAN_H else 0.0

    abs_lam_ext = np.concatenate((np.zeros(m), np.abs(lam)))
    dlt_ext = np.concatenate((np.full(m, k * level), dlt))
    base = np.full(T, mu)
    for i in range(1, o.p + 1):
        base += alpha[i - 1] * abs_lam_ext[m - i : m - i + T]
    for i in range(1, o.q + 1):
        base += beta[i - 1] * dlt_ext[m - i : m - i + T]
    h = recurse(_fold(base, gamma, h0), gamma)
    if not np.all(np.isfinite(h)) or np.any(h <= 0):
        raise NumericalError("numerical overflow in h recursion")
    return h, abs_lam_ext, dlt_ext, h0


def _loglik_raw(
    k: float,
    theta: np.ndarray,
    lam: np.ndarray,
    dlt: np.ndarray,
    o: ModelOrders,
    init_mode: InitMode,
) -> tuple:
    h, *_ = _h_recursion(k, theta, lam, dlt, o, init_mode)
    ll = float(np.sum(-(k + 1.0) * np.log(h) - lam**2 / (2.0 * h * h) - dlt / h))
    return ll, h


def _score_hessian_raw(
    k: float,
    theta: np.ndarray,
    lam: np.ndarray,
    dlt: np.ndarray,
    o: ModelOrders,
    init_mode: InitMode,
) -> tuple:
    """Analytic score and Hessian of the conditional log-likelihood."""
    T = lam.shape[0]
    d = o.n_params
    m = o.max_lag
    _, _, beta, gamma = _split_theta(theta, o)
    h, abs_lam_ext, dlt_ext, h0 = _h_recursion(k, theta, lam, dlt, o, init_mode)
    _, level_grad, level_hess = _level_grad_hess(k, theta, o)
    k_level_grad = k * level_grad
    mean_init = init_mode is InitMode.MEAN_H
    dh0 = level_grad if mean_init else np.zeros(d)

    # first-derivative source: the direct derivative of h_t in theta
    # [1, |lam| lags, del lags, h lags] plus the pre-sample radius terms
    h_ext = np.concatenate((np.full(m, h0), h))
    groups = ((abs_lam_ext, o.p), (dlt_ext, o.q), (h_ext, o.w))
    lagged = [x[m - i : m - i + T] for x, n in groups for i in range(1, n + 1)]
    src = np.column_stack([np.ones(T)] + lagged)
    for i in range(1, o.q + 1):
        src[:i] += beta[i - 1] * k_level_grad  # rows whose del_{t-i} is pre-sample
    u = -(k + 1.0) / h + lam**2 / h**3 + dlt / h**2
    v = (k + 1.0) / h**2 - 3.0 * lam**2 / h**4 - 2.0 * dlt / h**3
    grad, hess, ur = _recursion_derivs(src, gamma, dh0, u, v, range(o.p + o.q + 1, d))

    # the second-order terms of the pre-sample levels, weighted by ur
    for i in range(1, o.q + 1):
        weight = ur[:i].sum()  # rows whose del_{t-i} is pre-sample
        bi = o.p + i
        hess[bi, :] += weight * k_level_grad
        hess[:, bi] += weight * k_level_grad
        hess += weight * beta[i - 1] * k * level_hess
    if mean_init:  # the pre-sample second derivatives folded into rows t < w
        hess += sum(ur[t] * gamma[t:].sum() for t in range(min(o.w, T))) * level_hess
    return grad, hess


# ---------------------------------------------------------------------------
# public likelihood surface


def loglik_eval(
    params: ModelParams,
    series: IntervalSeries,
    init_mode: InitMode = InitMode.MEAN_H,
) -> tuple:
    """Conditional log-likelihood and the h path it induces.

    The additive constant free of the parameters is dropped. Pre-sample
    lags use the stationary expectations, which requires the weight sum
    below 1.
    """
    if len(series) == 0:
        raise DataError("empty input")
    return _loglik_raw(
        params.k, params.theta, series.centers, series.radii, params.orders, init_mode
    )


def score_and_hessian(
    params: ModelParams,
    series: IntervalSeries,
    init_mode: InitMode = InitMode.MEAN_H,
) -> tuple:
    """Score vector and Hessian matrix of the log-likelihood at params.

    The derivatives account for the h-lag recursion and the
    theta-dependent pre-sample expectations, matching finite differences
    of loglik_eval.
    """
    if len(series) == 0:
        raise DataError("empty input")
    return _score_hessian_raw(
        params.k, params.theta, series.centers, series.radii, params.orders, init_mode
    )


# ---------------------------------------------------------------------------
# projected-Newton optimizer


def _feasible(k: float, theta: np.ndarray, o: ModelOrders) -> bool:
    if theta[0] <= 0 or np.any(theta[1:] < 0):
        return False
    return _weight_sum(k, theta, o) < 1.0 - _STATIONARITY_MARGIN


def _projected_newton(
    objective,
    derivs,
    theta0: np.ndarray,
    lower: np.ndarray,
    feasible,
    face=None,
) -> tuple:
    """Maximize objective(theta) subject to theta >= lower, feasible(theta)
    and, given face = (c, b) with c >= 0 and c.lower < b, c.theta <= b.

    derivs(theta) returns the gradient and Hessian of the objective. Each
    iteration holds a bound, or the face, that theta is within
    _BOUNDARY_EPS of while its multiplier is positive: minus the score
    less the face's part, or the least-squares fit of the free score on c.
    Held coordinates step onto their bounds and a held face is kept
    (Bertsekas 1982; Nocedal & Wright 2006, ch. 16); the others take a
    Newton step, with a ridge on their Hessian raised until the step
    points uphill. The step is projected onto the face and the bounds and
    halved until the point is feasible and no worse. The settings are the
    module's, the same for every model: at most _MAX_STEPS steps of at most
    _MAX_HALVINGS halvings, stopping once |kkt| < _GRADIENT_TOL.

    Returns (theta, value, kkt, hess, stop_reason, iterations, trace):
    kkt is the gradient at theta less the face's multiplier times c, with
    the held coordinates zeroed, hess the Hessian there, iterations the
    number of Newton steps, and stop_reason "gradient tolerance" (the
    only converged one), "no uphill step" or "iteration cap".
    """
    theta = np.array(theta0, dtype=float)
    normal, level = face or (np.zeros(theta.size), np.inf)
    value = objective(theta)
    trace = [value]
    iterations = 0
    while True:
        grad, hess = derivs(theta)
        if not np.all(np.isfinite(grad)) or not np.all(np.isfinite(hess)):
            raise NumericalError("numerical overflow in the score or Hessian")
        at_bound = theta <= lower + _BOUNDARY_EPS
        held = at_bound & (grad < 0)
        mult = 0.0
        for _ in range(theta.size if normal @ theta >= level - _BOUNDARY_EPS else 0):
            along = np.where(held, 0.0, normal)
            mult = max(0.0, along @ grad / (along @ along)) if along.any() else 0.0
            held = at_bound & (grad - mult * normal < 0)
        kkt = np.where(held, 0.0, grad - mult * normal)
        if np.max(np.abs(kkt)) < _GRADIENT_TOL:
            return theta, value, kkt, hess, "gradient tolerance", iterations, trace
        if iterations == _MAX_STEPS:
            return theta, value, kkt, hess, "iteration cap", iterations, trace
        iterations += 1
        free = ~held
        gf = grad[free]
        hf = hess[np.ix_(free, free)]
        ridge = 0.0
        scale = max(1.0, float(np.max(np.abs(np.diag(hf)))))
        rhs = -gf
        if mult > 0:  # border the system so that the step ends on the face
            hf = np.block([[hf, normal[free, None]], [normal[free], 0.0]])
            rhs = np.append(rhs, level - normal @ np.where(held, lower, theta))
        for _ in range(60):
            try:  # the ridge spares the border
                ridged = hf - ridge * np.diag(np.arange(rhs.size) < gf.size)
                direction = np.linalg.solve(ridged, rhs)[: gf.size]
            except np.linalg.LinAlgError:
                direction = None
            if direction is not None and gf @ direction > 0:
                break
            ridge = max(2.0 * ridge, 1e-8 * scale)
        else:
            raise NumericalError("Hessian singular: model over-parameterized for data")
        step = lower - theta
        step[free] = direction
        improved = False
        for halving in range(_MAX_HALVINGS + 1):
            cand = np.maximum(theta + step / (2.0**halving), lower)
            for _ in range(theta.size):  # onto the face along the coordinates off their bounds
                excess = normal @ cand - level
                if excess <= 0:
                    break
                along = np.where(cand > lower, normal, 0.0)
                cand = np.maximum(cand - excess / (along @ along) * along, lower)
            if not feasible(cand):
                continue
            value_cand = objective(cand)
            if value_cand >= value and np.isfinite(value_cand):
                if value_cand > value or not np.array_equal(cand, theta):
                    theta, value = cand, value_cand
                    trace.append(value)
                    improved = True
                break
        if not improved:
            return theta, value, kkt, hess, "no uphill step", iterations, trace


def fit_mle(
    series: IntervalSeries,
    orders: ModelOrders,
    init_mode: InitMode = InitMode.MEAN_H,
) -> FittedModel:
    """Two-stage fit: moment k, then projected-Newton MLE for the scale
    parameters.

    Newton starts at init_theta, takes at most 200 steps of at most 30
    halvings, and converges once every projected score is below 1e-6;
    init_mode sets the pre-sample h. A coefficient that reaches 0 is held
    there only while its score points outward, so a converged fit meets the
    bound-constrained optimality (KKT) conditions in every coefficient.
    Coefficients that end at exactly 0 are listed in `boundary`. Standard
    errors come from the inverse negative Hessian over the other
    parameters; boundary parameters carry none.
    """
    min_len = MIN_OBS_PER_PARAM * orders.n_params
    if len(series) < min_len:
        raise DataError(
            f"insufficient data: need at least {min_len} observations "
            f"for orders ({orders.p},{orders.q},{orders.w}), got {len(series)}"
        )
    k = estimate_k(series)
    start = init_theta(series, k, orders)
    lam = series.centers
    dlt = series.radii
    lower = np.zeros(orders.n_params)
    lower[0] = -np.inf  # mu > 0 is part of the feasibility check

    theta, ll, kkt, hess, stop_reason, iterations, trace = _projected_newton(
        lambda th: _loglik_raw(k, th, lam, dlt, orders, init_mode)[0],
        lambda th: _score_hessian_raw(k, th, lam, dlt, orders, init_mode),
        start.theta,
        lower,
        lambda th: _feasible(k, th, orders),
    )
    params = start.with_theta(theta)
    names = np.array(params.param_names())
    free = theta > lower
    _, h_path = _loglik_raw(k, theta, lam, dlt, orders, init_mode)

    hess_free = hess[np.ix_(free, free)]
    covariance = None
    std_errors: dict = {}
    neg = -hess_free
    try:
        eigvals = np.linalg.eigvalsh(neg)
    except np.linalg.LinAlgError:
        eigvals = np.array([np.nan])
    if not np.all(np.isfinite(eigvals)):
        raise NumericalError("numerical overflow in h recursion")
    eig_scale = float(np.max(np.abs(eigvals)))
    if eig_scale == 0.0 or abs(eigvals.min()) <= eig_scale * 1e-14:
        raise NumericalError("Hessian singular: model over-parameterized for data")
    if eigvals.min() > 0:
        covariance = np.linalg.inv(neg)
        se = np.sqrt(np.diag(covariance))
        std_errors = {str(n): float(s) for n, s in zip(names[free], se)}

    return FittedModel(
        params=params,
        loglik=ll,
        converged=stop_reason == "gradient tolerance",
        stop_reason=stop_reason,
        iterations=iterations,
        gradient_max=float(np.max(np.abs(kkt))),
        boundary=tuple(str(n) for n in names[~free]),
        free_names=tuple(str(n) for n in names[free]),
        std_errors=std_errors,
        n_obs=len(series),
        init_mode=init_mode,
        h_path=h_path,
        covariance=covariance,
        hessian=hess_free,
        loglik_trace=tuple(trace),
    )


def asymptotic_covariance(fitted: FittedModel) -> np.ndarray:
    """Asymptotic covariance -[Hessian]^{-1} over the free parameters.

    Returns a copy of the one fit_mle computed, which requires a converged
    fit whose Hessian is negative definite at the optimum; raises otherwise.
    """
    if not fitted.converged:
        raise ConvergenceError("fit did not converge; covariance unavailable")
    if fitted.hessian is None:
        raise DataError("fit document carries no Hessian; refit on data first")
    if fitted.covariance is None:
        raise NumericalError("not at an interior maximum")
    return fitted.covariance.copy()
