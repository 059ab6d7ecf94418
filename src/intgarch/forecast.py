"""Multi-step volatility forecasting.

The one-step forecast evaluates the scale recursion at observed lags. For
longer steps every quantity that is not yet observed is replaced by its
conditional expectation given information at the origin: |lam_{t+j}| by
sqrt(2/pi) h-hat(j), del_{t+j} by k h-hat(j), and h_{t+j} by h-hat(j).
The forecasts therefore solve the scale recursion with constant weights
mu_i = alpha_i sqrt(2/pi) + beta_i k + gamma_i, one `process.recurse` call
whose source carries mu and the observed lags. For first-order models this
collapses to

    h-hat(l) = mu + c1 * h-hat(l-1),

a geometric approach to the stationary mean mu/(1-c1) at rate c1.
Reported volatility forecasts are sigma2 = (1 + k/3) h-hat^2.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field, replace

import numpy as np

from .estimate import MIN_OBS_PER_PARAM, FitRun, FittedModel, fit_mle, loglik_eval
from .exceptions import DataError, IntGarchError, NumericalError
from .intervals import IntervalSeries
from .process import InitMode, ModelOrders, ModelParams, mu_weights, recurse, volatility

__all__ = ["ForecastResult", "forecast", "rolling_forecast"]


@dataclass(frozen=True)
class ForecastResult:
    """Forecasts from one origin: h_hat[j-1] and sigma2[j-1] are the
    j-step-ahead scale and volatility. refit is the FitRun of the fit
    rolling_forecast made at this origin, None where it reused earlier
    parameters and in every result of forecast()."""

    origin_index: int
    horizon: int
    h_hat: np.ndarray = field(repr=False)
    sigma2: np.ndarray = field(repr=False)
    origin_date: _dt.date | None = None
    refit: FitRun | None = None


def _horizons(horizons) -> list:
    """The distinct horizons in increasing order, each an int >= 1."""
    horizons = sorted(set(int(h) for h in horizons))
    if not horizons or horizons[0] < 1:
        raise DataError("horizons must be integers >= 1")
    return horizons


def forecast(
    model,
    series: IntervalSeries,
    horizon: int,
    h_path: np.ndarray | None = None,
    origin_index: int | None = None,
    init_mode: InitMode = InitMode.MEAN_H,
) -> ForecastResult:
    """Forecast h and volatility 1..horizon steps past an origin.

    Parameters
    ----------
    model : FittedModel or ModelParams
        Parameters to forecast under. A FittedModel's own init_mode
        applies, in place of the init_mode argument.
    series : IntervalSeries
        Observed returns; the origin must have max(p,q,w)-1 predecessors.
    horizon : int
        Number of steps ahead, >= 1.
    h_path : ndarray, optional
        Precomputed scale path aligned with series; without it the path is
        rebuilt from the model up to the origin with loglik_eval.
    origin_index : int, optional
        Index of the forecast origin; defaults to the last observation.
    init_mode : InitMode
        Pre-sample treatment for rebuilding the path from a ModelParams.

    Raises NumericalError when a forecast h or volatility overflows, as
    the h path does.
    """
    if isinstance(model, FittedModel):
        params, init_mode = model.params, model.init_mode
    elif isinstance(model, ModelParams):
        params = model
    else:
        raise DataError(f"model must be a FittedModel or ModelParams, got {type(model).__name__}")
    if horizon < 1:
        raise DataError(f"horizon must be >= 1, got {horizon}")
    o = params.orders
    m = o.max_lag
    n = len(series)
    t = n - 1 if origin_index is None else origin_index
    if t < 0 or t >= n:
        raise DataError(f"origin_index {t} outside series of length {n}")
    if t < m - 1:
        raise DataError(
            f"insufficient history: origin {t} needs {m} observed lags"
        )
    if h_path is None:
        _, h_path = loglik_eval(params, series[: t + 1], init_mode)
    h_path = np.asarray(h_path, dtype=float)
    if h_path.shape[0] < t + 1:
        raise DataError("h_path shorter than the forecast origin")

    # step j's source holds mu and the observed lags i >= j; recurse adds
    # the forecast lags, weighted by their expectations mu_i
    source = np.full(horizon, params.mu)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, min(horizon, m) + 1):
            for i in range(j, o.p + 1):
                source[j - 1] += params.alpha[i - 1] * abs(series.centers[t + j - i])
            for i in range(j, o.q + 1):
                source[j - 1] += params.beta[i - 1] * series.radii[t + j - i]
            for i in range(j, o.w + 1):
                source[j - 1] += params.gamma[i - 1] * h_path[t + j - i]
        h_hat = recurse(source, mu_weights(params))
        sigma2 = np.asarray(volatility(params, h_hat), dtype=float)
    if not np.all(np.isfinite(sigma2)):  # and so of h_hat
        raise NumericalError(f"numerical overflow in the forecast from origin {t}")
    date = series.dates[t] if series.dates is not None else None
    return ForecastResult(
        origin_index=t, horizon=horizon, h_hat=h_hat, sigma2=sigma2, origin_date=date
    )


def rolling_forecast(
    series: IntervalSeries,
    orders: ModelOrders,
    horizons,
    train_size: int,
    refit_every: int = 1,
    init_mode: InitMode = InitMode.MEAN_H,
) -> tuple:
    """Walk-forward forecasts with periodic refitting.

    The model is fit on the first train_size observations and refit on the
    growing sample at every refit_every-th origin thereafter. Each refit
    after the first successful one starts from that last fit's parameters
    (fit_mle's `start`). Each origin t in train_size-1 .. len(series)-1
    yields forecasts for 1..max(horizons) steps ahead, with init_mode as
    the pre-sample mode. Each fit has one h path: at its refit the fit's
    own, and from the first origin past it one evaluation under the fit up
    to the next scheduled refit (or to the origin alone, if that one
    overflows), which origins slice up to themselves. A failed refit, or
    an h path or forecast that overflows, skips that origin (recorded in
    the second return value with its stage, "refit" or "forecast"), and
    later origins keep the last fit and evaluate its path anew. Each
    result's refit is as ForecastResult says.

    Returns
    -------
    (list of ForecastResult, list of (origin_index, stage, reason))
    """
    max_h = _horizons(horizons)[-1]
    n = len(series)
    if train_size < MIN_OBS_PER_PARAM * orders.n_params:
        raise DataError(
            f"train_size {train_size} too small for orders "
            f"({orders.p},{orders.q},{orders.w})"
        )
    if train_size > n:
        raise DataError(f"train_size {train_size} exceeds series length {n}")
    if refit_every < 1:
        raise DataError("refit_every must be >= 1")

    results: list = []
    skipped: list = []
    fitted: FittedModel | None = None
    for t in range(train_size - 1, n):
        refit = fitted is None or (t - (train_size - 1)) % refit_every == 0
        stage = "refit" if refit else "forecast"
        try:
            if refit:
                fitted = fit_mle(
                    series[: t + 1], orders, init_mode,
                    start=None if fitted is None else fitted.params,
                )
                h_path, stage = fitted.h_path, "forecast"
            elif len(h_path) <= t:  # the first origin past a refit, or past a failed one
                stop = min(t + refit_every - (t - (train_size - 1)) % refit_every, n)
                try:
                    _, h_path = loglik_eval(fitted.params, series[:stop], init_mode)
                except NumericalError:  # the overflow may lie past t
                    _, h_path = loglik_eval(fitted.params, series[: t + 1], init_mode)
            # element t depends only on the first t + 1 observations
            res = forecast(fitted.params, series, max_h, h_path=h_path[: t + 1], origin_index=t)
        except IntGarchError as exc:
            skipped.append((t, stage, str(exc)))
            continue
        results.append(replace(res, refit=fitted.run) if refit else res)
    return results, skipped
