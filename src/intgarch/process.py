"""Interval GARCH process: parameters, recursion, stationarity, and moments.

The model generates interval returns r_t = h_t * v_t where the unit interval
shock is v_t = [eps_t - eta_t, eps_t + eta_t], eps_t standard normal and
eta_t Gamma(k, 1), mutually independent. Writing lam_t = h_t * eps_t for the
center and del_t = h_t * eta_t for the radius, the scale recursion is

    h_t = mu + sum_i alpha_i |lam_{t-i}| + sum_i beta_i del_{t-i}
             + sum_i gamma_i h_{t-i}.

Mean stationarity holds iff the weights
mu_i = alpha_i*sqrt(2/pi) + beta_i*k + gamma_i (each term present only while
its lag order allows) sum below 1. For first-order models the driving
variable x_t = alpha1*|eps_t| + beta1*eta_t + gamma1 has first and second
moments c1, c2, and weak stationarity holds iff c2 < 1, giving closed forms
for E(h), E(h^2), Var(r) and the autocovariances.

Every recursion of the program is one linear recurrence
y_t = s_t + sum_i c_{t,i} y_{t-i}, solved by `recurse`. The likelihood's h
path and its derivatives use the constant weights gamma; simulation uses
the random weights c_{t,i} = alpha_i |eps_{t-i}| + beta_i eta_{t-i} + gamma_i,
since |lam_{t-i}| = h_{t-i} |eps_{t-i}| and del_{t-i} = h_{t-i} eta_{t-i};
forecasting uses their expectations mu_i; the GARCH(1,1) baseline in
evaluate is the same recurrence at order 1.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DataError, ModelError
from .intervals import Interval

__all__ = [
    "ABS_NORMAL_MEAN",
    "InitMode",
    "ModelOrders",
    "ModelParams",
    "TheoreticalMoments",
    "recurse",
    "volatility",
    "mean_stationarity",
    "weak_stationarity",
    "theoretical_moments",
    "theoretical_acov",
    "theoretical_acf",
]

# E|N(0,1)| = sqrt(2/pi); appears wherever |eps| is integrated out.
ABS_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


class InitMode(enum.Enum):
    """Pre-sample treatment of the scale recursion.

    ZERO_H starts the h lags at 0; MEAN_H starts them at the stationary
    mean E(h). Both set pre-sample returns to their expectation: centers 0,
    radii k*E(h).
    """

    ZERO_H = "zero"
    MEAN_H = "mean"


@dataclass(frozen=True)
class ModelOrders:
    """Lag orders (p, q, w) for the |center|, radius, and h terms."""

    p: int
    q: int
    w: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ModelError("orders p and q must be >= 1")
        if self.w < 0:
            raise ModelError("order w must be >= 0")

    @property
    def max_lag(self) -> int:
        return max(self.p, self.q, self.w)

    @property
    def n_params(self) -> int:
        """Length of the scale parameter vector (mu, alpha, beta, gamma)."""
        return 1 + self.p + self.q + self.w


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set: shape k plus the scale recursion coefficients.

    Invariants: k > 0, mu > 0, all of alpha/beta/gamma >= 0, and the
    coefficient tuples match the declared orders.
    """

    orders: ModelOrders
    k: float
    mu: float
    alpha: tuple
    beta: tuple
    gamma: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma))
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ModelError(f"k must be positive and finite, got {self.k}")
        if not (self.mu > 0 and np.isfinite(self.mu)):
            raise ModelError(f"mu must be positive and finite, got {self.mu}")
        if len(self.alpha) != self.orders.p:
            raise ModelError(f"alpha must have length p={self.orders.p}")
        if len(self.beta) != self.orders.q:
            raise ModelError(f"beta must have length q={self.orders.q}")
        if len(self.gamma) != self.orders.w:
            raise ModelError(f"gamma must have length w={self.orders.w}")
        for name, coefs in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            arr = np.asarray(coefs)
            if arr.size and (np.any(arr < 0) or not np.all(np.isfinite(arr))):
                raise ModelError(f"{name} coefficients must be finite and >= 0")

    @classmethod
    def first_order(
        cls, k: float, mu: float, alpha1: float, beta1: float, gamma1: float | None = None
    ) -> "ModelParams":
        """Convenience constructor for (1,1,1) models, or (1,1,0) if gamma1 is None."""
        if gamma1 is None:
            return cls(ModelOrders(1, 1, 0), k, mu, (alpha1,), (beta1,), ())
        return cls(ModelOrders(1, 1, 1), k, mu, (alpha1,), (beta1,), (gamma1,))

    @property
    def theta(self) -> np.ndarray:
        """Scale parameters stacked as [mu, alpha..., beta..., gamma...]."""
        return np.concatenate(([self.mu], self.alpha, self.beta, self.gamma))

    def with_theta(self, theta: Sequence[float]) -> "ModelParams":
        """Rebuild with the same orders and k but a new scale vector."""
        theta = np.asarray(theta, dtype=float)
        o = self.orders
        if theta.shape != (o.n_params,):
            raise ModelError(f"theta must have length {o.n_params}")
        return ModelParams(
            o,
            self.k,
            float(theta[0]),
            tuple(theta[1 : 1 + o.p]),
            tuple(theta[1 + o.p : 1 + o.p + o.q]),
            tuple(theta[1 + o.p + o.q :]),
        )

    def param_names(self) -> list:
        o = self.orders
        return (
            ["mu"]
            + [f"alpha{i}" for i in range(1, o.p + 1)]
            + [f"beta{i}" for i in range(1, o.q + 1)]
            + [f"gamma{i}" for i in range(1, o.w + 1)]
        )

    def to_dict(self) -> dict:
        return {
            "orders": [self.orders.p, self.orders.q, self.orders.w],
            "k": self.k,
            "mu": self.mu,
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "gamma": list(self.gamma),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        try:
            p, q, w = (int(x) for x in d["orders"])
            return cls(
                ModelOrders(p, q, w),
                float(d["k"]),
                float(d["mu"]),
                tuple(float(x) for x in d["alpha"]),
                tuple(float(x) for x in d["beta"]),
                tuple(float(x) for x in d["gamma"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed model document: {exc}") from exc


def volatility(params: ModelParams, h: float | np.ndarray) -> float | np.ndarray:
    """Reported volatility sigma^2 = (1 + k/3) h^2.

    This is the variance of a point drawn uniformly from the return
    interval, integrating over both the shock and the uniform draw.
    """
    return (1.0 + params.k / 3.0) * np.square(h)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last two axes, as elementwise products in a fixed order."""
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out = out + a[..., :, j, None] * b[..., None, j, :]
    return out


def recurse(source, coefs) -> np.ndarray:
    """Solve y_t = source_t + sum_{i=1..m} c_{t,i} y_{t-i} with y_t = 0
    before the sample.

    Time is axis 0. coefs is constant, shaped (m,), or time-varying,
    shaped (T, ..., m); source broadcasts against coefs.shape[:-1], so
    paths and derivative columns run in one call. Callers fold pre-sample
    values into the first m source rows.

    Hillis-Steele doubling on the companion form: the pass with shift s
    adds to each row t >= s the product of the companion matrices of rows
    t-s+1..t times the state of row t-s, then squares the products. The
    passes stop once s >= T or every product still to be used has
    underflowed to 0, past which they would add exact zeros. Element t's
    operations depend only on t, so a longer run or more paths leave the
    earlier elements bit for bit unchanged.
    """
    coefs = np.asarray(coefs, dtype=float)
    m = coefs.shape[-1]
    varying = coefs.ndim > 1
    y = np.array(source, dtype=float)
    if varying:
        y = y + np.zeros(coefs.shape[:-1])
    if m == 0:
        return y
    if m == 1:
        state, step = y, operator.mul
        prod = coefs[1:, ..., 0] if varying else float(coefs[0])
    else:  # states are column vectors (y_t, ..., y_{t-m+1})
        state, step = np.zeros(y.shape + (m, 1)), _matmul
        state[..., 0, 0] = y
        prod = np.zeros(coefs.shape + (m,))
        prod[..., 0, :] = coefs
        prod[..., np.arange(1, m), np.arange(m - 1)] = 1.0
        if varying:
            prod = prod[1:]
    # prod holds the products for rows s.. when varying, else one matrix power
    s = 1
    while s < len(y) and (prod != 0.0 if isinstance(prod, float) else prod.any()):
        state[s:] += step(prod, state[:-s])
        prod = step(prod[s:], prod[:-s]) if varying else step(prod, prod)
        s *= 2
    return state if m == 1 else state[..., 0, 0]


def mu_weights(params: ModelParams) -> np.ndarray:
    """Mean-stationarity lag weights mu_i, i = 1..max(p,q,w)."""
    o = params.orders
    m = o.max_lag
    out = np.zeros(m)
    for i in range(o.p):
        out[i] += params.alpha[i] * ABS_NORMAL_MEAN
    for i in range(o.q):
        out[i] += params.beta[i] * params.k
    for i in range(o.w):
        out[i] += params.gamma[i]
    return out


def mean_stationarity(params: ModelParams) -> tuple:
    """(is_mean_stationary, sum of lag weights)."""
    s = float(mu_weights(params).sum())
    return s < 1.0, s


def _first_order(params: ModelParams) -> tuple:
    """(alpha1, beta1, gamma1, c1, c2) of a first-order model, c1 and c2 the
    first two moments of x_t = alpha1 |eps_t| + beta1 eta_t + gamma1."""
    o = params.orders
    if o.p != 1 or o.q != 1 or o.w > 1:
        raise ModelError("closed-form second moments available only for first-order models")
    a1, b1, g1, k = params.alpha[0], params.beta[0], params.gamma[0] if o.w == 1 else 0.0, params.k
    c1 = a1 * ABS_NORMAL_MEAN + b1 * k + g1
    c2 = (
        a1 * a1
        + b1 * b1 * (k + k * k)
        + g1 * g1
        + 2.0 * a1 * b1 * ABS_NORMAL_MEAN * k
        + 2.0 * a1 * g1 * ABS_NORMAL_MEAN
        + 2.0 * b1 * g1 * k
    )
    return a1, b1, g1, c1, c2


def weak_stationarity(params: ModelParams) -> tuple:
    """(is_weakly_stationary, c1, c2) for first-order models.

    c1 and c2 are the first two moments of the driving variable
    x_t = alpha1 |eps_t| + beta1 eta_t + gamma1; weak stationarity is
    c2 < 1. Raises ModelError for higher-order models, where no closed
    form is available.
    """
    _, _, _, c1, c2 = _first_order(params)
    return c2 < 1.0, c1, c2


@dataclass(frozen=True)
class TheoreticalMoments:
    """Stationary moments. For higher-order models c1 holds the weight sum
    sum_i mu_i. Second-moment fields are None when unavailable (higher-order
    models, or c2 >= 1)."""

    mean_h: float
    mean_r: Interval
    c1: float
    c2: float | None
    mean_h2: float | None
    var_r: float | None


def theoretical_moments(params: ModelParams) -> TheoreticalMoments:
    """Closed-form stationary moments.

    For any orders: E(h) = mu / (1 - sum mu_i) and E(r) = [-k E(h), k E(h)]
    under mean stationarity. For first-order models with c2 < 1 the
    second moments are included:

        E(h^2) = mu^2 (c1 + 1) / ((c2 - 1)(c1 - 1)),
        Var(r) = (1 + k + k^2) E(h^2) - k^2 [E(h)]^2.

    Raises ModelError when the mean-stationarity condition fails.
    """
    ok, s = mean_stationarity(params)
    if not ok:
        raise ModelError(f"nonstationary: moments do not exist (weight sum {s:.6g} >= 1)")
    mean_h = params.mu / (1.0 - s)
    mean_r = Interval(0.0, params.k * mean_h)
    o = params.orders
    if o.p == 1 and o.q == 1 and o.w <= 1:
        _, _, _, c1, c2 = _first_order(params)
        if c2 < 1.0:
            mean_h2 = params.mu**2 * (c1 + 1.0) / ((c2 - 1.0) * (c1 - 1.0))
            k = params.k
            var_r = (1.0 + k + k * k) * mean_h2 - (k * mean_h) ** 2
            return TheoreticalMoments(mean_h, mean_r, c1, c2, mean_h2, var_r)
        return TheoreticalMoments(mean_h, mean_r, c1, c2, None, None)
    return TheoreticalMoments(mean_h, mean_r, s, None, None, None)


def _mean_h_hs_eta(params: ModelParams, s: int) -> float:
    """E(h_t h_{t+s} eta_t) for s >= 1 under weak stationarity."""
    a1, b1, g1, c1, c2 = _first_order(params)
    k = params.k
    mu = params.mu
    bracket = a1 * ABS_NORMAL_MEAN + b1 * (1.0 + k) + g1
    return (
        mu
        * mu
        * k
        / (c1 - 1.0)
        * (
            -(c1**s - 1.0) / (c1 - 1.0)
            + (c1**s + c1 ** (s - 1)) / (c2 - 1.0) * bracket
        )
    )


def theoretical_acov(params: ModelParams, s: int) -> float:
    """Stationary autocovariance of the interval return at lag s >= 0.

    Lag 0 returns Var(r). For s >= 1,
    Cov(r_t, r_{t+s}) = k E(h_t h_{t+s} eta_t) - k^2 [E(h)]^2, which uses
    the recursion of h on its own past to integrate eta_t out. Requires a
    first-order model with c2 < 1.
    """
    if s < 0:
        raise ModelError("lag must be >= 0")
    tm = theoretical_moments(params)
    if tm.c2 is None:  # a higher-order model
        o = params.orders
        raise ModelError(f"closed-form autocovariances need a first-order model, "
                         f"got orders ({o.p},{o.q},{o.w})")
    if tm.var_r is None:
        raise ModelError(f"second moments do not exist: c2 = {tm.c2:.6g} >= 1")
    if s == 0:
        return float(tm.var_r)
    k = params.k
    return float(k * _mean_h_hs_eta(params, s) - (k * tm.mean_h) ** 2)


def theoretical_acf(params: ModelParams, max_lag: int) -> np.ndarray:
    """Stationary autocorrelations for lags 0..max_lag (rho(0) = 1)."""
    if max_lag < 0:
        raise ModelError("max_lag must be >= 0")
    acov = [theoretical_acov(params, s) for s in range(max_lag + 1)]
    return np.array(acov) / acov[0]
