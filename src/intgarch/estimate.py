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
weight of 0.2 in each coefficient group; a walk-forward refit instead
starts from the previous fit, when that is feasible under the new k-hat,
and runs from the cold start only if that run does not converge
(_warm_then_cold, shared with the baseline). _likelihood builds a fit's
objective, score and Hessian once, every array fixed in theta made up
front (the source's constant columns and the level's outer products on
the first derivative call); loglik_eval and score_and_hessian use it
too. Each point is evaluated once: the objective returns the h path,
pre-sample h and r = 1/(1-S) with the value, the score and Hessian take
those, and the fit keeps the winning run's h path. Pre-sample lags are
set to their stationary expectations (centers 0, radii k*E(h;theta), h
either E(h;theta) or 0), and because E(h;theta) = mu/(1-S) moves with
theta, its first and second derivatives are carried through the
recursions. The resulting score and Hessian match finite differences of
the likelihood to near machine precision. Both run with numpy's overflow
warnings off: an h path that overflows raises NumericalError, and the
Newton rejects a non-finite value and raises on a non-finite score.

The recursion h_t = base_t + sum_j gamma_j h_{t-j} and the identical
recursion for the d columns of dh/dtheta are solved by process.recurse,
with the pre-sample values folded, in place, into the first w rows of
the freshly built source.
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

from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from .exceptions import ConvergenceError, DataError, ModelError, NumericalError
from .intervals import IntervalSeries
from .process import ABS_NORMAL_MEAN, InitMode, ModelOrders, ModelParams, recurse

__all__ = [
    "FitRun",
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
# the one stop reason that means converged: every projected score below _GRADIENT_TOL
CONVERGED = "gradient tolerance"

MIN_OBS_PER_PARAM = 10
# init_theta's start point: mu as a fraction of h-bar, each group's weight
_START_MU_FRACTION = 0.4
_START_COEF_BUDGET = 0.2


@dataclass(frozen=True, kw_only=True)
class FitRun:
    """How a fit's projected Newton ended; both models' fits are one, and a
    walk-forward refit keeps it alone (run). stop_reason is CONVERGED, "no
    uphill step" or "iteration cap" (None for a document written without it
    and with its converged flag false). iterations counts the steps of all
    the fit's runs (_warm_then_cold); gradient_max, the largest projected
    score, and loglik_trace, the objective at the start and after each
    accepted step (() for documents without it), are the winner's."""

    stop_reason: str | None
    iterations: int
    gradient_max: float
    loglik_trace: tuple = field(default=(), repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == CONVERGED

    @property
    def run(self) -> "FitRun":
        """These facts alone, without a fit's parameters and arrays."""
        return FitRun(**{f.name: getattr(self, f.name) for f in fields(FitRun)})

    @classmethod
    def _from_newton(cls, run: NewtonRun, **rest):
        return cls(stop_reason=run.stop_reason, iterations=run.iterations,
                   gradient_max=float(np.max(np.abs(run.kkt))), loglik_trace=tuple(run.trace), **rest)


@dataclass(frozen=True)
class FittedModel(FitRun):
    """Result of a two-stage fit, with how its Newton ended (FitRun).

    std_errors holds asymptotic standard errors keyed by parameter name;
    names in `boundary` ended at exactly 0 and carry no standard error.
    covariance (and hessian) are over the free scale parameters in
    `free_names` order. k comes from the moment stage and has no
    likelihood-based standard error.
    """

    params: ModelParams
    loglik: float
    boundary: tuple
    std_errors: dict
    n_obs: int
    init_mode: InitMode
    h_path: np.ndarray | None = field(default=None, repr=False)
    covariance: np.ndarray | None = field(default=None, repr=False)
    hessian: np.ndarray | None = field(default=None, repr=False)

    @property
    def free_names(self) -> tuple:
        return tuple(n for n in self.params.param_names() if n not in self.boundary)

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
            stop_reason = d.get("stop_reason")
            if d["converged"] and stop_reason is None:  # written before stop reasons were kept
                stop_reason = CONVERGED
            return cls(
                params=ModelParams.from_dict(d["model"]),
                loglik=float(d["loglik"]),
                stop_reason=stop_reason,
                iterations=int(d["iterations"]),
                gradient_max=float(d["gradient_max"]),
                boundary=tuple(d["boundary"]),
                std_errors={k: float(v) for k, v in d["std_errors"].items()},
                n_obs=int(d["n_obs"]),
                init_mode=InitMode(d["init_mode"]),
                loglik_trace=tuple(float(v) for v in d.get("loglik_trace", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed fit document: {exc}") from exc


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


def _fold(source: np.ndarray, gamma: np.ndarray, init) -> np.ndarray:
    """Add the pre-sample terms sum_{j>t} gamma_j * init to each row t < w
    of source, in place, for `recurse`'s zero pre-sample; returns source."""
    for t in range(min(len(gamma), len(source))):
        source[t] += gamma[t:].sum() * init
    return source


def _recursion_derivs(src, gamma, d0, u, v, ar) -> tuple:
    """Gradient and Hessian of sum_t f_t(y_t), y_t = base_t + sum_j
    gamma_j y_{t-j}: src is the direct derivative of base_t and y_{t-j}
    in theta, already folded, d0 that of the pre-sample y, u and v are
    f_t' and f_t'', and columns `ar` hold gamma_1, gamma_2, ... Returns
    (grad, hess, ur): D'u and (D v)'D, D the derivative columns, plus the
    second-order term of the `ar` rows and columns; ur, the reverse filter
    of u, weighs the caller's other second-order sources.
    """
    D = recurse(src, gamma)
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


def _likelihood(k: float, lam: np.ndarray, dlt: np.ndarray, o: ModelOrders, init_mode: InitMode) -> tuple:
    """One sample's log-likelihood as (objective, derivs, feasible), each
    array that does not move with theta made once. objective(theta)
    returns the log-likelihood and its evaluation: the finite, positive h
    path, pre-sample h and r = 1/(1-S) of the level E(h) = mu/(1-S).
    derivs(theta, evaluation) returns the analytic score and Hessian
    there, making its own fixed arrays (the source's constant columns,
    the level's outer products) on its first call, all under numpy's
    overflow warnings off, as is the objective: k is huge for huge radii.
    feasible(theta) is mu > 0, every coefficient >= 0 and S below 1 by
    _STATIONARITY_MARGIN.
    """
    T, d, m = lam.shape[0], o.n_params, o.max_lag
    mean_init = init_mode is InitMode.MEAN_H
    s = np.zeros(d)  # the weight-sum direction: S = s'theta
    s[1 : 1 + o.p], s[1 + o.p : 1 + o.p + o.q], s[1 + o.p + o.q :] = ABS_NORMAL_MEAN, k, 1.0
    lam2 = lam**2
    # the |lam| and del lags with 0 before the sample; a pre-sample del,
    # k * level, moves with theta and is added at each point
    ext = (np.concatenate((np.zeros(m), np.abs(lam))), np.concatenate((np.zeros(m), dlt)))
    lags = [x[m - i : m - i + T] for x, n in zip(ext, (o.p, o.q)) for i in range(1, n + 1)]
    fixed = None  # derivs' own fixed arrays, made on its first call

    def feasible(theta):
        if theta[0] <= 0 or (theta[1:] < 0).any():
            return False
        return s[1:] @ theta[1:] < 1.0 - _STATIONARITY_MARGIN

    def objective(theta):
        mu, _, _, gamma = _split_theta(theta, o)
        with np.errstate(over="ignore", invalid="ignore"):
            S = float(s[1:] @ theta[1:])
            if S >= 1.0:
                raise ModelError(
                    f"nonstationary parameters (weight sum {S:.6g} >= 1): pre-sample "
                    "expectation undefined"
                )
            r = 1.0 / (1.0 - S)
            level = mu * r
            h0 = level if mean_init else 0.0
            base = np.full(T, mu)
            for col, x in enumerate(lags, 1):
                base += theta[col] * x
                if col > o.p:  # rows whose del_{t-i} is pre-sample, i = col - p
                    base[: col - o.p] += theta[col] * (k * level)
            h = recurse(_fold(base, gamma, h0), gamma)
            if not np.isfinite(h).all() or (h <= 0).any():
                raise NumericalError("numerical overflow in h recursion")
            ll = float(np.sum(-(k + 1.0) * np.log(h) - lam2 / (2.0 * h * h) - dlt / h))
        return ll, (h, h0, r)

    def derivs(theta, evaluation):
        nonlocal fixed
        mu, _, beta, gamma = _split_theta(theta, o)
        h, h0, r = evaluation
        with np.errstate(over="ignore", invalid="ignore"):
            if fixed is None:
                e0 = np.eye(d)[0]
                fixed = (np.column_stack([np.ones(T)] + lags + [np.zeros((T, o.w))]),
                         e0, np.outer(e0, s) + np.outer(s, e0), np.outer(s, s))
            const, e0, e0_s, s_s = fixed
            level_grad = e0 * r + mu * s * r * r  # of the level mu * r
            level_hess = e0_s * r * r + 2.0 * mu * s_s * r**3
            k_level_grad = k * level_grad
            dh0 = level_grad if mean_init else np.zeros(d)

            # first-derivative source: the direct derivative of h_t in theta
            # [1, |lam| lags, del lags, h lags] plus the pre-sample radius terms
            src = const.copy()
            for i in range(1, o.q + 1):
                src[:i, o.p + i] = k * (mu * r)
            for i in range(1, o.w + 1):
                src[:i, o.p + o.q + i], src[i:, o.p + o.q + i] = h0, h[: max(T - i, 0)]
            for i in range(1, o.q + 1):
                src[:i] += beta[i - 1] * k_level_grad  # rows whose del_{t-i} is pre-sample
            u = -(k + 1.0) / h + lam2 / h**3 + dlt / h**2
            v = (k + 1.0) / h**2 - 3.0 * lam2 / h**4 - 2.0 * dlt / h**3
            grad, hess, ur = _recursion_derivs(
                _fold(src, gamma, dh0), gamma, dh0, u, v, range(o.p + o.q + 1, d))

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

    return objective, derivs, feasible


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
    objective, _, _ = _likelihood(params.k, series.centers, series.radii, params.orders, init_mode)
    ll, (h, *_) = objective(params.theta)
    return ll, h


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
    objective, derivs, _ = _likelihood(params.k, series.centers, series.radii, params.orders, init_mode)
    return derivs(params.theta, objective(params.theta)[1])


# ---------------------------------------------------------------------------
# projected-Newton optimizer

NewtonRun = namedtuple("NewtonRun", "theta value kkt hess stop_reason iterations trace evaluation")


def _first_rung(hess: np.ndarray, grad: np.ndarray, unit: float) -> int:
    """The first j >= 1 at which d_j, solving (hess - rho_j I) d_j = -grad
    at rho_j = unit * 2^(j-1), may point uphill: with hess = sum_i l_i q_i
    q_i', grad'd_j = sum_i (q_i'grad)^2 / (rho_j - l_i) (Nocedal & Wright
    2006, sec. 3.4). A rung is passed over only when that sum is below
    -1e-6 of its terms' absolute sum and rho_j is 1e-6 * max(rho_j,
    max |l_i|) clear of every l_i, so that the solve there, too, could
    only have pointed downhill."""
    try:
        lam, q = np.linalg.eigh(hess)
    except np.linalg.LinAlgError:  # no start: the scan solves every rung
        return 1
    c2 = (q.T @ grad) ** 2
    rho = unit * 2.0 ** np.arange(59)[:, None]
    gap = rho - lam
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = c2 / gap
    clear = (terms.sum(1) < -1e-6 * np.abs(terms).sum(1)) & (
        np.abs(gap).min(1) > 1e-6 * np.maximum(rho[:, 0], np.abs(lam).max()))
    return 1 + int(np.argmin(clear))


def _projected_newton(
    objective,
    derivs,
    theta0: np.ndarray,
    lower: np.ndarray,
    feasible,
    face=None,
) -> NewtonRun:
    """Maximize objective(theta) subject to theta >= lower, feasible(theta)
    and, given face = (c, b) with c >= 0 and c.lower < b, c.theta <= b.

    objective(theta) returns (value, evaluation), the evaluation being
    whatever the model computed on the way to the value (say, its variance
    path); derivs(theta, evaluation) returns the gradient and Hessian of
    the objective there, so each point is evaluated once. Each
    iteration holds a bound, or the face, that theta is within
    _BOUNDARY_EPS of while its multiplier is positive: minus the score
    less the face's part, or the least-squares fit of the free score on c.
    Held coordinates step onto their bounds and a held face is kept
    (Bertsekas 1982; Nocedal & Wright 2006, ch. 16); the others take a
    Newton step, one linear solve; only a step that does not point uphill
    builds a ridge on their Hessian, 1e-8 * max(1, |diagonal|), doubled
    until it does, from the first rung on a bordered system and otherwise
    from the first that one eigendecomposition shows may (_first_rung). The
    step is projected onto the face and the bounds and halved until the
    point is feasible and no worse. The settings are the module's, the same
    for every model: at most _MAX_STEPS steps of at most _MAX_HALVINGS
    halvings, stopping once |kkt| < _GRADIENT_TOL.

    Returns a NewtonRun: kkt is the gradient at theta less the face's
    multiplier times c, with the held coordinates zeroed, hess the Hessian
    there, stop_reason CONVERGED ("gradient tolerance", the only converged
    one), "no uphill step" or "iteration cap", iterations the number of
    Newton steps, trace the value at the start and after each accepted
    step, and evaluation the objective's at theta.
    """
    theta = np.array(theta0, dtype=float)
    normal, level = face or (np.zeros(theta.size), np.inf)
    value, evaluation = objective(theta)
    trace = [value]
    iterations = 0
    while True:
        grad, hess = derivs(theta, evaluation)
        if not (np.isfinite(grad).all() and np.isfinite(hess).all()):
            raise NumericalError("numerical overflow in the score or Hessian")
        at_bound = theta <= lower + _BOUNDARY_EPS
        held = at_bound & (grad < 0)
        mult = 0.0
        for _ in range(theta.size if face and normal @ theta >= level - _BOUNDARY_EPS else 0):
            along = np.where(held, 0.0, normal)
            mult = max(0.0, along @ grad / (along @ along)) if along.any() else 0.0
            held, before = at_bound & (grad - mult * normal < 0), held
            if (held == before).all():  # a fixed point: later passes repeat this one
                break
        some_held = held.any()
        kkt = np.where(held, 0.0, grad - mult * normal) if some_held or mult else grad
        stop = CONVERGED if np.abs(kkt).max() < _GRADIENT_TOL else "iteration cap"
        if stop == CONVERGED or iterations == _MAX_STEPS:
            return NewtonRun(theta, value, kkt, hess, stop, iterations, trace, evaluation)
        iterations += 1
        free = ~held
        gf, hf = (grad[free], hess[np.ix_(free, free)]) if some_held else (grad, hess)
        rhs = -gf
        if mult > 0:  # border the system so that the step ends on the face
            system = np.zeros((gf.size + 1, gf.size + 1))
            system[:-1, :-1], system[-1, :-1], system[:-1, -1] = hf, normal[free], normal[free]
            hf, rhs = system, np.append(rhs, level - normal @ np.where(held, lower, theta))
        attempt = 0
        while attempt < 60:
            try:  # attempt j > 0 takes the ridge 1e-8 * scale * 2^(j-1)
                ridged = hf - unit * 2.0 ** (attempt - 1) if attempt else hf
                direction = np.linalg.solve(ridged, rhs)[: gf.size]
            except np.linalg.LinAlgError:
                direction = None
            if direction is not None and gf @ direction > 0:
                break
            if attempt == 0:  # the ridge, built on the first escalation, spares the border
                scale = max(1.0, float(np.max(np.abs(np.diag(hf)))))
                unit = 1e-8 * scale * np.diag(np.arange(rhs.size) < gf.size)
            attempt = attempt + 1 if attempt or mult > 0 else _first_rung(hf, gf, 1e-8 * scale)
        else:
            raise NumericalError("Hessian singular: model over-parameterized for data")
        step = lower - theta
        step[free] = direction
        improved = False
        for halving in range(_MAX_HALVINGS + 1):
            cand = np.maximum(theta + step / (2.0**halving), lower)
            for _ in range(theta.size if face else 0):  # onto the face, off-bound coordinates
                excess = normal @ cand - level
                if excess <= 0:
                    break
                along = np.where(cand > lower, normal, 0.0)
                cand = np.maximum(cand - excess / (along @ along) * along, lower)
            if not feasible(cand):
                continue
            value_cand, evaluation_cand = objective(cand)
            if value_cand >= value and -np.inf < value_cand < np.inf:
                if value_cand > value or not np.array_equal(cand, theta):
                    theta, value, evaluation = cand, value_cand, evaluation_cand
                    trace.append(value)
                    improved = True
                break
        if not improved:
            return NewtonRun(theta, value, kkt, hess, "no uphill step", iterations, trace, evaluation)


def _warm_then_cold(newton, cold_starts, warm=None, persistence=None) -> NewtonRun:
    """One fit's projected-Newton runs: from `warm` when given, and from
    each of `cold_starts` only if that run does not converge.

    newton(theta0) is one _projected_newton run from theta0; a warm run
    that raises NumericalError counts as unconverged. Among the runs, one
    more than 1e-9 * (1 + |first run's value|) below the best is dropped;
    of the rest a converged run wins, then the lower persistence(theta)
    where given, then the earlier run. Returns the winner's NewtonRun
    with iterations summed over every run.
    """
    runs = []
    if warm is not None:
        try:
            runs.append(newton(warm))
        except NumericalError:
            pass
    if not runs or runs[0].stop_reason != CONVERGED:
        runs += [newton(x0) for x0 in cold_starts]
    floor = max(r.value for r in runs) - 1e-9 * (1.0 + abs(runs[0].value))
    best = min(runs, key=lambda r: (
        r.value < floor, r.stop_reason != CONVERGED, persistence(r.theta) if persistence else 0))
    return best._replace(iterations=sum(r.iterations for r in runs))


def fit_mle(
    series: IntervalSeries,
    orders: ModelOrders,
    init_mode: InitMode = InitMode.MEAN_H,
    *,
    start: ModelParams | None = None,
) -> FittedModel:
    """Two-stage fit: moment k, then projected-Newton MLE for the scale
    parameters.

    Newton takes at most 200 steps of at most 30 halvings, and converges
    once every projected score is below 1e-6; init_mode sets the pre-sample
    h. It starts at init_theta, unless `start` (say, the previous refit's
    parameters in a walk-forward) is given and its scale parameters are
    feasible under this sample's k: then Newton runs from those first, and
    from init_theta only if that run does not converge, the better run
    winning (see _warm_then_cold); h_path is the winner's, as its last
    evaluation left it. A coefficient that reaches 0 is held there only while its
    score points outward, so a converged fit meets the bound-constrained
    optimality (KKT) conditions in every coefficient. Coefficients that end
    at exactly 0 are listed in `boundary`. Standard errors come from the
    inverse negative Hessian over the other parameters; boundary parameters
    carry none.
    """
    min_len = MIN_OBS_PER_PARAM * orders.n_params
    if len(series) < min_len:
        raise DataError(
            f"insufficient data: need at least {min_len} observations "
            f"for orders ({orders.p},{orders.q},{orders.w}), got {len(series)}"
        )
    if start is not None and start.orders != orders:
        raise ModelError(f"start has orders {start.orders}, the fit {orders}")
    k = estimate_k(series)
    cold = init_theta(series, k, orders)
    objective, derivs, feasible = _likelihood(k, series.centers, series.radii, orders, init_mode)
    warm = start.theta if start is not None and feasible(start.theta) else None
    lower = np.zeros(orders.n_params)
    lower[0] = -np.inf  # mu > 0 is part of the feasibility check

    run = _warm_then_cold(
        lambda th0: _projected_newton(objective, derivs, th0, lower, feasible), [cold.theta], warm)
    params = cold.with_theta(run.theta)
    names = np.array(params.param_names())
    free = run.theta > lower

    hess_free = run.hess[np.ix_(free, free)]
    covariance = None
    std_errors: dict = {}
    neg = -hess_free
    try:  # Newton returns only a finite Hessian
        eigvals = np.linalg.eigvalsh(neg)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigen-decomposition of the Hessian failed: {exc}") from exc
    eig_scale = float(np.max(np.abs(eigvals)))
    if eig_scale == 0.0 or abs(eigvals.min()) <= eig_scale * 1e-14:
        raise NumericalError("Hessian singular: model over-parameterized for data")
    if eigvals.min() > 0:
        covariance = np.linalg.inv(neg)
        se = np.sqrt(np.diag(covariance))
        std_errors = {str(n): float(s) for n, s in zip(names[free], se)}

    return FittedModel._from_newton(
        run,
        params=params,
        loglik=run.value,
        boundary=tuple(str(n) for n in names[~free]),
        std_errors=std_errors,
        n_obs=len(series),
        init_mode=init_mode,
        h_path=run.evaluation[0],
        covariance=covariance,
        hessian=hess_free,
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
