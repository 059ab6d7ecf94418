"""Forecast evaluation, a scalar GARCH(1,1) baseline, and study harnesses.

The realized proxy rv_t is a variance, on the scale of the forecast
sigma2_t (the bars' rv, rv_proxy), and the losses are

    QLIKE = mean(log sigma2 + rv / sigma2)
    HMSE  = mean(rv / sigma2 - 1)        (signed, no outer square).

The expected QLIKE is lowest, and the expected HMSE is 0, when sigma2 is
the proxy's conditional mean, so a noisy but unbiased proxy ranks
forecasts as the true variance would (Patton 2011). A negative proxy is
rejected. mz_r2 is the R^2 of the regression of rv on an intercept and
sigma2, and takes any finite values.

compare() scores per-model forecast series against the realized values
they target, given in the same order, and marks the winner per metric.
run_backtest() is the CLI's walk-forward of interval-model forecasts
against a GARCH(1,1) baseline on scalar returns, fit with its
persistence a + b <= 0.999 as a face by the interval model's projected
Newton, under the same settings and the same rule for converged.
simulation_study() runs the estimator over the four benchmark designs and
tabulates recovery statistics, each fit starting at its design's
parameters and falling back to the cold start as a walk-forward refit does.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .estimate import FitRun, _projected_newton, _recursion_derivs, _warm_then_cold, fit_mle
from .exceptions import DataError, IntGarchError, ModelError
from .forecast import _horizons, rolling_forecast
from .intervals import IntervalSeries
from .process import InitMode, ModelOrders, ModelParams, recurse, volatility
from .simulate import SimConfig, simulate

__all__ = [
    "EvalReport",
    "Garch11Params",
    "Garch11Fit",
    "mz_r2",
    "qlike",
    "hmse",
    "fit_garch11",
    "garch11_path",
    "garch11_forecast",
    "compare",
    "rv_proxy",
    "run_backtest",
    "BENCHMARK_DESIGNS",
    "StudyCell",
    "simulation_study",
    "render_reports",
    "render_study",
]

_GARCH_CAP = 0.999  # the fit's persistence ceiling, a + b <= _GARCH_CAP
_GARCH_MIN_OBS = 50  # the fewest returns the baseline fits
METRICS = ("r2", "qlike", "hmse")
# each metric's loss in METRICS order: the lowest wins
_LOSSES = {"r2": lambda r: -r.r2, "qlike": lambda r: r.qlike, "hmse": lambda r: abs(r.hmse)}


@dataclass(frozen=True)
class EvalReport:
    """Metrics for one model at one horizon (0 = in-sample).

    r2 is NaN when the forecasts or realized values are constant. wins
    lists the metrics on which this model beat every other model in its
    comparison group; ties and NaN win nothing.
    """

    asset: str
    model: str
    horizon: int
    r2: float
    qlike: float
    hmse: float
    n: int
    wins: tuple = ()


@dataclass(frozen=True)
class Garch11Params:
    """GARCH(1,1) baseline: sigma2_t = omega + a r_{t-1}^2 + b sigma2_{t-1}."""

    omega: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ModelError("omega must be positive")
        if not (self.a >= 0 and self.b >= 0):
            raise ModelError("a and b must be nonnegative")
        if self.a + self.b >= 1:
            raise ModelError(f"a + b = {self.a + self.b:.6g} >= 1: baseline not stationary")

    @property
    def persistence(self) -> float:
        return self.a + self.b

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.a - self.b)


@dataclass(frozen=True)
class Garch11Fit(FitRun):
    """Quasi-MLE result for the baseline, with how its Newton ended
    (FitRun). Its objective is loglik less the constant -n/2 log(2 pi), so
    loglik_trace[-1] == loglik + n/2 log(2 pi)."""

    params: Garch11Params
    loglik: float
    n_obs: int
    sigma2_path: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# Loss functions


def _check_pair(rv, sigma2) -> tuple:
    v = np.asarray(rv, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    if v.ndim != 1 or s2.ndim != 1 or v.shape != s2.shape:
        raise DataError(f"rv and sigma2 must be equal-length 1-d sequences, got {v.shape} and {s2.shape}")
    if v.size < 1:
        raise DataError("empty input")
    if not np.all(np.isfinite(v)) or not np.all(np.isfinite(s2)):
        raise DataError("rv and sigma2 must be finite")
    if np.any(s2 <= 0):
        raise DataError("sigma2 must be strictly positive")
    return v, s2


def _r2_undefined(v: np.ndarray, s2: np.ndarray) -> str | None:
    """Why R^2 is undefined on a checked pair, or None."""
    if np.ptp(s2) == 0:
        return "constant forecasts"
    return "constant realized values" if np.ptp(v) == 0 else None


def _scores(v: np.ndarray, s2: np.ndarray, metrics) -> dict:
    """The named metrics of a checked pair, R^2 first; QLIKE or HMSE gives both."""
    out = {}
    if "r2" in metrics:
        if v.size < 3:
            raise DataError("insufficient data: the regression needs at least 3 observations")
        why = _r2_undefined(v, s2)
        if why is not None:
            raise DataError(f"R² undefined: {why}")
        ss_tot = float(np.sum((v - v.mean()) ** 2))
        x = np.column_stack((np.ones_like(s2), s2))
        coef, _, _, _ = np.linalg.lstsq(x, v, rcond=None)
        resid = v - x @ coef
        out["r2"] = float(min(1.0, max(0.0, 1.0 - (resid @ resid) / ss_tot)))  # guard rounding
    if "qlike" in metrics or "hmse" in metrics:
        if np.any(v < 0):
            raise DataError("rv is a variance and must be nonnegative")
        ratio = v / s2
        out["qlike"] = float(np.mean(np.log(s2) + ratio))
        out["hmse"] = float(np.mean(ratio - 1.0))
    return out


def mz_r2(rv, sigma2) -> float:
    """R^2 of the regression of the realized proxy on an intercept and
    the forecast. In [0, 1]; affine changes of the forecast leave it
    unchanged."""
    return _scores(*_check_pair(rv, sigma2), ("r2",))["r2"]


def qlike(rv, sigma2) -> float:
    """mean(log sigma2 + rv/sigma2); lower is better."""
    return _scores(*_check_pair(rv, sigma2), ("qlike",))["qlike"]


def hmse(rv, sigma2) -> float:
    """mean(rv/sigma2 - 1), a signed relative-bias measure; 0 is ideal."""
    return _scores(*_check_pair(rv, sigma2), ("hmse",))["hmse"]


# ---------------------------------------------------------------------------
# GARCH(1,1) baseline


def _garch_variance(theta, r2: np.ndarray, s2_init: float) -> np.ndarray:
    """sigma2_t = omega + a r_{t-1}^2 + b sigma2_{t-1}, started at s2_init."""
    w, a, b = theta
    src = np.empty(r2.size)
    src[0] = s2_init
    src[1:] = w + a * r2[:-1]
    return recurse(src, [b])


def _garch_likelihood(r2: np.ndarray, s2_init: float) -> tuple:
    """The baseline's Gaussian log likelihood, less its constant
    -n/2 log(2 pi), on squared returns r2 as (objective, derivs):
    objective(theta) returns it and the variance path s2 (positive when
    omega > 0 and a, b >= 0), derivs(theta, s2) the gradient and Hessian
    there. The path is an AR(1) in b fixed at t=0, so the derivative
    source is [1, r2, sigma2] lagged once, with no pre-sample term; its
    first two columns are made here, once."""
    src0 = np.zeros((r2.size, 3))
    src0[1:, 0] = 1.0
    src0[1:, 1] = r2[:-1]

    def objective(theta):
        s2 = _garch_variance(theta, r2, s2_init)
        return -0.5 * float(np.sum(np.log(s2) + r2 / s2)), s2

    def derivs(theta, s2):
        src = src0.copy()
        src[1:, 2] = s2[:-1]
        u = 0.5 * (r2 / s2**2 - 1.0 / s2)
        v = 0.5 * (1.0 / s2**2 - 2.0 * r2 / s2**3)
        return _recursion_derivs(src, theta[2:], 0.0, u, v, [2])[:2]

    return objective, derivs


def garch11_path(params: Garch11Params, returns) -> np.ndarray:
    """Conditional variance path under the baseline recursion, started at
    the sample variance."""
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise DataError("insufficient data: need at least 2 returns")
    v = float(np.var(r))
    if v <= 0:
        raise DataError("degenerate returns: zero variance")
    return _garch_variance((params.omega, params.a, params.b), r * r, v)


def garch11_forecast(
    params: Garch11Params, returns, horizon: int, sigma2_path: np.ndarray | None = None
) -> np.ndarray:
    """1..horizon-step variance forecasts past the last observation:
    sigma2(1) = omega + a r_T^2 + b sigma2_T, then
    sigma2(l) = omega + (a+b) sigma2(l-1)."""
    if horizon < 1:
        raise DataError("horizon must be >= 1")
    r = np.asarray(returns, dtype=float)
    if sigma2_path is None:
        sigma2_path = garch11_path(params, r)
    source = np.full(horizon, params.omega)
    source[0] = params.omega + params.a * r[-1] ** 2 + params.b * sigma2_path[-1]
    return recurse(source, [params.a + params.b])


def fit_garch11(returns, *, start: Garch11Params | None = None) -> Garch11Fit:
    """Gaussian quasi-MLE of the baseline on scalar returns.

    The variance path starts at the sample variance. Two cold starting
    points are tried (a GARCH-shaped one and a near-white-noise one, whose
    basin wins on serially independent data where the likelihood is flat
    along the b ridge); each runs the projected Newton of the interval
    model, under its fixed settings, with the analytic gradient and
    Hessian and the face a + b <= 0.999. A fit on that cap has persistence
    0.999. The higher loglik wins; within 1e-9 * (1 + |loglik|) the
    converged start wins, then the lower persistence. Given `start` (say,
    the previous refit's parameters in a walk-forward), raised to the
    bounds and with a + b <= 0.999, Newton runs from it first, and the
    cold starts run only if that run does not converge; the same rule
    picks among all runs. sigma2_path is the winner's, as its last
    evaluation left it. A converged fit meets the KKT conditions, cap
    included; an unconverged fit is not raised.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1:
        raise DataError("returns must be a 1-d sequence")
    if r.size < _GARCH_MIN_OBS:
        raise DataError(f"insufficient data: need at least {_GARCH_MIN_OBS} observations, got {r.size}")
    if not np.all(np.isfinite(r)):
        raise DataError("returns must be finite")
    v = float(np.var(r))
    if v <= 0:
        raise DataError("degenerate returns: zero variance")
    lower = np.array([1e-12 * max(v, 1e-12), 0.0, 0.0])
    warm = None
    if start is not None:
        warm = np.maximum([start.omega, start.a, start.b], lower)
        if warm[1] + warm[2] > _GARCH_CAP:
            warm = None

    objective, derivs = _garch_likelihood(r * r, v)
    run = _warm_then_cold(
        lambda x0: _projected_newton(
            objective, derivs, x0, lower, lambda th: True, face=(np.array([0.0, 1.0, 1.0]), _GARCH_CAP)
        ),
        [np.array([0.05 * v, 0.08, 0.88]), np.array([0.95 * v, 0.05, 0.0])],
        warm,
        persistence=lambda th: th[1] + th[2],
    )

    # the bounds and the face keep these parameters constructible
    return Garch11Fit._from_newton(
        run,
        params=Garch11Params(*(float(x) for x in run.theta)),
        loglik=run.value - 0.5 * r.size * math.log(2.0 * math.pi),
        n_obs=int(r.size),
        sigma2_path=run.evaluation,
    )


# ---------------------------------------------------------------------------
# Comparison harness


def compare(forecasts: Mapping, rv: Mapping, asset: str = "") -> list:
    """Score per-model forecast series against the realized values they target.

    Parameters
    ----------
    forecasts : mapping
        model name -> {horizon -> sigma2 sequence}; horizon 0 is the
        in-sample fitted path.
    rv : mapping
        horizon -> realized variances: entry i is the target of every
        model's entry i at that horizon.
    asset : str
        Label copied into the reports.

    Returns one EvalReport per model x horizon, winners marked per metric
    (higher R2 wins; lower QLIKE wins; HMSE closest to zero wins); ties
    win nothing. A model whose forecasts or realized values are constant
    at a horizon gets R2 = NaN there, and no model wins R2 at that horizon.
    """
    reports: list = []
    for h in sorted({h for per_model in forecasts.values() for h in per_model}):
        if h not in rv:
            raise DataError(f"horizon {h}: no realized variances")
        group: list = []
        for name in sorted(m for m, per_model in forecasts.items() if h in per_model):
            v, s2 = _check_pair(rv[h], forecasts[name][h])
            constant = _r2_undefined(v, s2) is not None
            metrics = {"r2": math.nan, **_scores(v, s2, METRICS[1:] if constant else METRICS)}
            group.append(EvalReport(asset=asset, model=name, horizon=h, n=int(v.size), **metrics))
        for metric, loss in _LOSSES.items():
            scores = [loss(r) for r in group]
            order = np.argsort(scores)
            if len(scores) > 1 and not np.isnan(scores).any() and scores[order[0]] < scores[order[1]]:
                best = group[order[0]]
                group[order[0]] = replace(best, wins=best.wins + (metric,))
        reports += group
    return reports


def rv_proxy(h, k: float, noise_sd: float = 0.2, seed=None) -> np.ndarray:
    """Noisy realized-variance proxy for simulated worlds.

    True variance (1 + k/3) h^2 times mean-one lognormal noise with the
    given relative standard deviation. noise_sd=0 returns the truth.
    """
    h = np.asarray(h, dtype=float)
    if not 0 <= noise_sd < math.inf:
        raise DataError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    sigma2 = (1.0 + k / 3.0) * h * h
    if noise_sd == 0:
        return sigma2
    s = math.sqrt(math.log1p(noise_sd * noise_sd))
    rng = np.random.default_rng(seed)
    noise = rng.lognormal(mean=-0.5 * s * s, sigma=s, size=h.shape)
    return sigma2 * noise


def run_backtest(
    series: IntervalSeries,
    rv,
    orders: ModelOrders | None = None,
    train_size: int | None = None,
    horizons: Sequence[int] = (1, 2, 5),
    refit_every: int = 1,
    init_mode: InitMode = InitMode.MEAN_H,
    scalar_returns=None,
    include_insample: bool = False,
    asset: str = "",
) -> tuple:
    """Walk-forward comparison of the interval model against GARCH(1,1).

    rv must align 1:1 with series (entry t, finite and >= 0, is the realized
    variance for period t), and the forecast from origin t for horizon h is
    scored against rv[t + h]. scalar_returns, finite, feeds the baseline;
    interval centers are the fallback when no closing returns exist. Both
    arrays, and train_size against the baseline's minimum sample, are
    checked before the first fit. Both models forecast from the same
    origins: the interval model refits on the schedule, and the baseline
    refits on the same growing sample exactly where it did. Each refit of
    either model after its first starts from that model's last fit (the
    `start` of fit_mle and fit_garch11); the in-sample fits of
    include_insample start cold. The baseline forecasts from a refit's own
    sigma2_path, and rebuilds the path with garch11_path only at origins
    that reuse a fit.

    Returns (reports, info). info holds rolling_forecast's skipped origins
    as its (origin, stage, message) triples (skipped_refits), failed
    baseline refits as (origin, message) pairs (garch_failed_refits), and
    each completed refit's FitRun as an (origin, FitRun) pair, per report
    model name (refits["intgarch"], refits["garch11"]); with
    include_insample, each model's in-sample FitRun (insample[name]).
    """
    orders = orders or ModelOrders(1, 1, 1)
    n = len(series)
    rv_arr = np.asarray(rv, dtype=float)
    if rv_arr.shape != (n,):
        raise DataError(f"rv must have one entry per observation ({n}), got {rv_arr.shape}")
    bad = np.flatnonzero(~(np.isfinite(rv_arr) & (rv_arr >= 0)))
    if bad.size:
        raise DataError(f"rv must be finite and >= 0: entry {bad[0]} is {rv_arr[bad[0]]}")
    if train_size is None or not 0 < train_size < n:
        raise DataError("train_size must split the series: 0 < train_size < length")
    if train_size < _GARCH_MIN_OBS:
        raise DataError(f"train_size {train_size}: the baseline needs at least {_GARCH_MIN_OBS} observations")
    horizons = _horizons(horizons)
    for h in horizons:
        if n - train_size - h + 1 < 3:
            raise DataError(
                f"horizon {h}: only {max(0, n - train_size - h + 1)} evaluable "
                "forecasts; need at least 3"
            )
    returns = np.asarray(
        series.centers if scalar_returns is None else scalar_returns, dtype=float
    )
    if returns.shape != (n,):
        raise DataError(f"scalar_returns must have length {n}, got {returns.shape}")
    bad = np.flatnonzero(~np.isfinite(returns))
    if bad.size:
        raise DataError(f"scalar_returns must be finite: entry {bad[0]} is {returns[bad[0]]}")

    results, skipped = rolling_forecast(
        series, orders, horizons, train_size, refit_every=refit_every, init_mode=init_mode
    )
    if not results:
        raise DataError("all refits failed; nothing to evaluate")

    info: dict = {"skipped_refits": skipped, "garch_failed_refits": [],
                  "refits": {"intgarch": [], "garch11": []}}
    garch_fit: Garch11Fit | None = None
    forecasts: dict = {name: {h: [] for h in horizons} for name in ("intgarch", "garch11")}
    targets: dict = {h: [] for h in horizons}
    for res in results:
        t = res.origin_index
        if res.refit is not None:
            info["refits"]["intgarch"].append((t, res.refit))
            try:
                garch_fit = fit_garch11(
                    returns[: t + 1], start=None if garch_fit is None else garch_fit.params
                )
                info["refits"]["garch11"].append((t, garch_fit.run))
            except IntGarchError as exc:
                if garch_fit is None:
                    raise DataError(f"baseline fit failed on the training window: {exc}") from exc
                info["garch_failed_refits"].append((t, str(exc)))
        own = garch_fit.n_obs == t + 1  # refit at this origin
        path = garch_fit.sigma2_path if own else garch11_path(garch_fit.params, returns[: t + 1])
        g_fc = garch11_forecast(garch_fit.params, returns[: t + 1], horizons[-1], path)
        for h in horizons:
            if t + h < n:
                forecasts["intgarch"][h].append(res.sigma2[h - 1])
                forecasts["garch11"][h].append(g_fc[h - 1])
                targets[h].append(rv_arr[t + h])

    if include_insample:
        full = fit_mle(series, orders, init_mode)
        g_full = fit_garch11(returns)
        forecasts["intgarch"][0] = volatility(full.params, full.h_path)
        forecasts["garch11"][0] = g_full.sigma2_path
        targets[0] = rv_arr
        info["insample"] = {"intgarch": full.run, "garch11": g_full.run}

    return compare(forecasts, targets, asset=asset), info


# ---------------------------------------------------------------------------
# Benchmark simulation study

BENCHMARK_DESIGNS: dict = {
    "I": ModelParams.first_order(k=1.8147, mu=0.0906, alpha1=0.0318, beta1=0.374, gamma1=0.1265),
    "II": ModelParams.first_order(k=1.2134, mu=0.071, alpha1=0.1833, beta1=0.2334, gamma1=0.1732),
    "III": ModelParams.first_order(k=1.5139, mu=0.074, alpha1=0.037, beta1=0.3436),
    "IV": ModelParams.first_order(k=1.3632, mu=0.0584, alpha1=0.1927, beta1=0.322),
}


@dataclass(frozen=True)
class StudyCell:
    """Recovery statistics for one parameter of one design."""

    design: str
    param: str
    true: float
    mean_est: float
    mae: float
    empirical_se: float
    mean_model_se: float | None
    n_fits: int
    n_converged: int


def _study_rep(args) -> tuple:
    """One replication: simulate, fit from the design's parameters as
    fit_mle's `start`, return estimates and model SEs."""
    name, params, length, seq = args
    series, _ = simulate(SimConfig(params=params, length=length, seed=seq))
    fitted = fit_mle(series, params.orders, start=params)
    est = np.concatenate(([fitted.params.k], fitted.params.theta))
    names = fitted.params.param_names()
    ses = np.full(1 + len(names), np.nan)
    for i, pname in enumerate(names):
        if pname in fitted.std_errors:
            ses[1 + i] = fitted.std_errors[pname]
    return name, est, ses, fitted.converged


def simulation_study(
    designs: Mapping | None = None,
    replications: int = 100,
    length: int = 1000,
    seed: int = 0,
    jobs: int = 1,
) -> list:
    """Estimator recovery study over the benchmark designs.

    Each replication simulates a fresh path (its own spawned substream)
    and refits the generating orders from the design's parameters, then
    from the cold start init_theta only if that run does not converge
    (fit_mle's `start`). Cells aggregate every completed fit; n_converged
    counts the converged ones, and k's moment estimator has no model SE
    (mean_model_se None). designs=None runs all four, and an empty mapping
    is a DataError. jobs > 1 runs the replications in worker processes,
    at most one per task and per core.
    """
    designs = dict(designs) if designs is not None else dict(BENCHMARK_DESIGNS)
    if not designs:
        raise DataError("no designs given")
    if replications < 2:
        raise DataError("replications must be >= 2")
    if length < 100:
        raise DataError("length must be >= 100")
    if jobs < 1:
        raise DataError("jobs must be >= 1")
    try:
        root = np.random.SeedSequence(seed)
    except ValueError as exc:
        raise DataError(f"seed must be a nonnegative integer, got {seed!r}") from exc
    tasks: list = []
    for dseq, (name, params) in zip(root.spawn(len(designs)), designs.items()):
        if not isinstance(params, ModelParams):
            raise DataError(f"design {name!r} is not a ModelParams")
        for child in dseq.spawn(replications):
            tasks.append((name, params, length, child))

    # the pool starts all its workers at its first task
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_study_rep, tasks, chunksize=chunk))
    else:
        outcomes = [_study_rep(t) for t in tasks]

    cells: list = []
    for name, params in designs.items():
        ests = np.array([est for nm, est, _, _ in outcomes if nm == name])
        ses = np.array([se for nm, _, se, _ in outcomes if nm == name])
        n_conv = sum(1 for nm, _, _, conv in outcomes if nm == name and conv)
        truth = np.concatenate(([params.k], params.theta))
        pnames = ["k"] + params.param_names()
        for i, pname in enumerate(pnames):
            col_se = ses[:, i]
            has_se = np.isfinite(col_se)
            cells.append(
                StudyCell(
                    design=name,
                    param=pname,
                    true=float(truth[i]),
                    mean_est=float(ests[:, i].mean()),
                    mae=float(np.mean(np.abs(ests[:, i] - truth[i]))),
                    empirical_se=float(ests[:, i].std(ddof=1)),
                    mean_model_se=float(col_se[has_se].mean()) if has_se.any() else None,
                    n_fits=int(ests.shape[0]),
                    n_converged=int(n_conv),
                )
            )
    return cells


# ---------------------------------------------------------------------------
# Rendering


def _text_table(header: tuple, rows) -> str:
    """Left-aligned columns two spaces apart, trailing blanks stripped."""
    rows = [header, *rows]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows)


def render_reports(reports: Sequence[EvalReport]) -> str:
    """Aligned text table, winning metrics starred."""
    return _text_table(
        ("asset", "model", "horizon", "n", *METRICS),
        (
            (r.asset or "-", r.model, str(r.horizon), str(r.n),
             *(f"{getattr(r, m):.4f}" + ("*" if m in r.wins else "") for m in METRICS))
            for r in sorted(reports, key=lambda r: (r.asset, r.horizon, r.model))
        ),
    )


def _report_rows(reports: Sequence[EvalReport]) -> tuple:
    """(header, rows) of the long-format report table: one row per
    asset x model x horizon x metric."""
    rows = [
        (r.asset, r.model, r.horizon, metric, getattr(r, metric), r.n, int(metric in r.wins))
        for r in sorted(reports, key=lambda r: (r.asset, r.horizon, r.model))
        for metric in METRICS
    ]
    return "asset,model,horizon,metric,value,n,winner", rows


def render_study(cells: Sequence[StudyCell]) -> str:
    """Aligned text table of the simulation study."""
    return _text_table(
        ("design", "param", "true", "mean_est", "mae", "emp_se", "model_se", "conv"),
        (
            (c.design, c.param, *(f"{x:.4f}" for x in (c.true, c.mean_est, c.mae, c.empirical_se)),
             "-" if c.mean_model_se is None else f"{c.mean_model_se:.4f}", f"{c.n_converged}/{c.n_fits}")
            for c in cells
        ),
    )


def _study_rows(cells: Sequence[StudyCell]) -> tuple:
    """(header, rows) of the study table: one row of StudyCell fields per cell."""
    return ",".join(f.name for f in fields(StudyCell)), [astuple(c) for c in cells]
