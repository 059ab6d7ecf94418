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

compare() aligns per-model forecast series on dates, computes the three
metrics, and marks the winner per metric. run_backtest() is the CLI's
walk-forward of interval-model forecasts against a GARCH(1,1) baseline
on scalar returns, fit with its persistence a + b <= 0.999 as a face by
the interval model's projected Newton, under the same settings and the
same rule for converged.
simulation_study() runs the estimator over the four benchmark designs and
tabulates recovery statistics.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .estimate import _projected_newton, _recursion_derivs, fit_mle
from .exceptions import DataError, IntGarchError, ModelError
from .forecast import _horizons, rolling_forecast
from .intervals import IntervalSeries
from .marketdata import _csv_lines
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
    "reports_to_csv",
    "render_study",
    "study_to_csv",
]

_GARCH_CAP = 0.999  # the fit's persistence ceiling, a + b <= _GARCH_CAP
METRICS = ("r2", "qlike", "hmse")


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
class Garch11Fit:
    """Quasi-MLE result for the baseline; stop_reason and converged as in
    FittedModel: converged means stop_reason is "gradient tolerance"."""

    params: Garch11Params
    loglik: float
    converged: bool
    stop_reason: str
    iterations: int
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


def mz_r2(rv, sigma2) -> float:
    """R^2 of the regression of the realized proxy on an intercept and
    the forecast. In [0, 1]; affine changes of the forecast leave it
    unchanged."""
    v, s2 = _check_pair(rv, sigma2)
    if v.size < 3:
        raise DataError("insufficient data: the regression needs at least 3 observations")
    if np.ptp(s2) == 0:
        raise DataError("R² undefined: constant forecasts")
    ss_tot = float(np.sum((v - v.mean()) ** 2))
    if ss_tot == 0:
        raise DataError("R² undefined: constant realized values")
    x = np.column_stack((np.ones_like(s2), s2))
    coef, _, _, _ = np.linalg.lstsq(x, v, rcond=None)
    resid = v - x @ coef
    r2 = 1.0 - (resid @ resid) / ss_tot
    return float(min(1.0, max(0.0, r2)))  # guard rounding at the edges


def _ratio(rv, sigma2) -> tuple:
    """(sigma2, rv / sigma2) of a checked pair whose proxy is a variance."""
    v, s2 = _check_pair(rv, sigma2)
    if np.any(v < 0):
        raise DataError("rv is a variance and must be nonnegative")
    return s2, v / s2


def qlike(rv, sigma2) -> float:
    """mean(log sigma2 + rv/sigma2); lower is better."""
    s2, ratio = _ratio(rv, sigma2)
    return float(np.mean(np.log(s2) + ratio))


def hmse(rv, sigma2) -> float:
    """mean(rv/sigma2 - 1), a signed relative-bias measure; 0 is ideal."""
    _, ratio = _ratio(rv, sigma2)
    return float(np.mean(ratio - 1.0))


# ---------------------------------------------------------------------------
# GARCH(1,1) baseline


def _garch_variance(theta, r2: np.ndarray, s2_init: float) -> np.ndarray:
    """sigma2_t = omega + a r_{t-1}^2 + b sigma2_{t-1}, started at s2_init."""
    w, a, b = theta
    src = np.empty(r2.size)
    src[0] = s2_init
    src[1:] = w + a * r2[:-1]
    return recurse(src, [b])


def _garch_objective(theta: np.ndarray, r2: np.ndarray, s2_init: float) -> float:
    """Gaussian log likelihood less its constant -n/2 log(2 pi). omega > 0
    and a, b >= 0 keep the variance path positive."""
    s2 = _garch_variance(theta, r2, s2_init)
    return -0.5 * float(np.sum(np.log(s2) + r2 / s2))


def _garch_derivs(theta: np.ndarray, r2: np.ndarray, s2_init: float) -> tuple:
    """Gradient and Hessian of _garch_objective: the variance path is an
    AR(1) in b fixed at t=0, so its derivative source is [1, r2, sigma2]
    lagged once, with no pre-sample term."""
    s2 = _garch_variance(theta, r2, s2_init)
    src = np.zeros((r2.size, 3))
    src[1:, 0] = 1.0
    src[1:, 1] = r2[:-1]
    src[1:, 2] = s2[:-1]
    u = 0.5 * (r2 / s2**2 - 1.0 / s2)
    v = 0.5 * (1.0 / s2**2 - 2.0 * r2 / s2**3)
    grad, hess, _ = _recursion_derivs(src, theta[2:], 0.0, u, v, [2])
    return grad, hess


def garch11_path(params: Garch11Params, returns, s2_init: float | None = None) -> np.ndarray:
    """Conditional variance path under the baseline recursion, started at
    the sample variance unless s2_init is given."""
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise DataError("insufficient data: need at least 2 returns")
    if s2_init is None:
        s2_init = float(np.var(r))
    if s2_init <= 0:
        raise DataError("degenerate returns: zero variance")
    return _garch_variance((params.omega, params.a, params.b), r * r, s2_init)


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


def fit_garch11(returns) -> Garch11Fit:
    """Gaussian quasi-MLE of the baseline on scalar returns.

    The variance path starts at the sample variance. Two starting points
    are tried (a GARCH-shaped one and a near-white-noise one, whose basin
    wins on serially independent data where the likelihood is flat along
    the b ridge); each runs the projected Newton of the interval model,
    under its fixed settings, with the analytic gradient and Hessian and
    the face a + b <= 0.999. A fit on that cap has persistence 0.999. The
    higher loglik wins; within 1e-9 * (1 + |loglik|) the converged start
    wins, then the lower persistence. converged means the stop reason is
    "gradient tolerance", so the KKT conditions hold, cap included; an
    unconverged fit is not raised.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1:
        raise DataError("returns must be a 1-d sequence")
    if r.size < 50:
        raise DataError(f"insufficient data: need at least 50 observations, got {r.size}")
    if not np.all(np.isfinite(r)):
        raise DataError("returns must be finite")
    v = float(np.var(r))
    if v <= 0:
        raise DataError("degenerate returns: zero variance")
    r2 = r * r
    lower = np.array([1e-12 * max(v, 1e-12), 0.0, 0.0])

    sols = [
        _projected_newton(
            lambda th: _garch_objective(th, r2, v),
            lambda th: _garch_derivs(th, r2, v),
            x0,
            lower,
            lambda th: True,
            face=(np.array([0.0, 1.0, 1.0]), _GARCH_CAP),
        )
        for x0 in (np.array([0.05 * v, 0.08, 0.88]), np.array([0.95 * v, 0.05, 0.0]))
    ]
    # drop a clearly worse optimum; on a tie prefer the converged start,
    # then low persistence, then the first
    floor = max(s[1] for s in sols) - 1e-9 * (1.0 + abs(sols[0][1]))
    theta, value, _, _, stop_reason, _, _ = min(
        sols, key=lambda s: (s[1] < floor, s[4] != "gradient tolerance", s[0][1] + s[0][2])
    )

    # the bounds and the face keep these parameters constructible
    return Garch11Fit(
        params=Garch11Params(*(float(x) for x in theta)),
        loglik=value - 0.5 * r.size * math.log(2.0 * math.pi),
        converged=stop_reason == "gradient tolerance",
        stop_reason=stop_reason,
        iterations=sum(s[5] for s in sols),
        n_obs=int(r.size),
        sigma2_path=_garch_variance(theta, r2, v),
    )


# ---------------------------------------------------------------------------
# Comparison harness


def compare(forecasts: Mapping, rv, asset: str = "") -> list:
    """Score per-model forecast series against a realized proxy.

    Parameters
    ----------
    forecasts : mapping
        model name -> {horizon -> (dates, sigma2 sequence)}. Horizon 0
        denotes the in-sample fitted path. Dates may be any hashable
        labels (calendar dates, integer indexes) but must agree across
        models at each horizon.
    rv : (dates, values) pair
        Master realized-variance series the forecast dates are looked up in.
    asset : str
        Label copied into the reports.

    Returns one EvalReport per model x horizon, winners marked per metric
    (higher R2 wins; lower QLIKE wins; HMSE closest to zero wins); ties
    win nothing. A model whose forecasts or realized values are constant
    at a horizon gets R2 = NaN there, and no model wins R2 at that horizon.
    """
    rv_dates, rv_values = rv
    rv_values = np.asarray(rv_values, dtype=float)
    if len(rv_dates) != rv_values.size:
        raise DataError("rv dates and values differ in length")
    rv_map = {}
    for d_key, val in zip(rv_dates, rv_values):
        if d_key in rv_map:
            raise DataError(f"duplicate realized-variance date {d_key}")
        rv_map[d_key] = val

    horizons = sorted({h for per_model in forecasts.values() for h in per_model})
    reports: list = []
    for h in horizons:
        names = sorted(m for m, per_model in forecasts.items() if h in per_model)
        ref_name = names[0]
        ref_dates = tuple(forecasts[ref_name][h][0])
        per_metric: dict = {m: [] for m in METRICS}
        rows: list = []
        for name in names:
            dates, s2 = forecasts[name][h]
            dates = tuple(dates)
            if dates != ref_dates:
                for d_a, d_b in zip(dates, ref_dates):
                    if d_a != d_b:
                        raise DataError(
                            f"horizon {h}: forecast dates differ between "
                            f"{ref_name} and {name} at {d_b} vs {d_a}"
                        )
                raise DataError(
                    f"horizon {h}: {name} has {len(dates)} forecasts, "
                    f"{ref_name} has {len(ref_dates)}"
                )
            missing = [d_key for d_key in dates if d_key not in rv_map]
            if missing:
                raise DataError(f"no realized variance for {missing[0]}")
            v = np.array([rv_map[d_key] for d_key in dates])
            v, s2 = _check_pair(v, s2)
            constant = np.ptp(s2) == 0 or np.ptp(v) == 0
            row = {
                "model": name,
                "n": int(v.size),
                "r2": math.nan if constant else mz_r2(v, s2),
                "qlike": qlike(v, s2),
                "hmse": hmse(v, s2),
            }
            rows.append(row)
            per_metric["r2"].append(-row["r2"])  # negate: min wins below
            per_metric["qlike"].append(row["qlike"])
            per_metric["hmse"].append(abs(row["hmse"]))
        winners: dict = {}
        for metric, scores in per_metric.items():
            order = np.argsort(scores)
            if len(scores) > 1 and not np.isnan(scores).any() and scores[order[0]] < scores[order[1]]:
                winners[metric] = rows[order[0]]["model"]
        for row in rows:
            wins = tuple(m for m in METRICS if winners.get(m) == row["model"])
            reports.append(
                EvalReport(
                    asset=asset,
                    model=row["model"],
                    horizon=h,
                    r2=row["r2"],
                    qlike=row["qlike"],
                    hmse=row["hmse"],
                    n=row["n"],
                    wins=wins,
                )
            )
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

    rv must align 1:1 with series (entry t is the realized variance for
    period t). scalar_returns feeds the baseline; interval centers are the
    fallback when no closing returns exist. Both models forecast from the
    same origins: the interval model refits on the schedule, and the
    baseline refits on the same growing sample exactly where it did.

    Returns (reports, info) where info records skipped refits, failed
    baseline refits as (origin, message) pairs, and one (origin,
    converged) pair per completed refit of each model.
    """
    orders = orders or ModelOrders(1, 1, 1)
    n = len(series)
    rv_arr = np.asarray(rv, dtype=float)
    if rv_arr.shape != (n,):
        raise DataError(f"rv must have one entry per observation ({n}), got {rv_arr.shape}")
    if train_size is None or not 0 < train_size < n:
        raise DataError("train_size must split the series: 0 < train_size < length")
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
    labels = list(series.dates) if series.dates is not None else list(range(n))

    results, skipped = rolling_forecast(
        series, orders, horizons, train_size, refit_every=refit_every, init_mode=init_mode
    )
    if not results:
        raise DataError("all refits failed; nothing to evaluate")

    garch_failures: list = []
    garch_converged: list = []
    intgarch_converged: list = []
    garch_fit: Garch11Fit | None = None
    forecasts: dict = {name: {h: ([], []) for h in horizons} for name in ("intgarch", "garch11")}
    for res in results:
        t = res.origin_index
        if res.refit_converged is not None:
            intgarch_converged.append((t, res.refit_converged))
            try:
                garch_fit = fit_garch11(returns[: t + 1])
                garch_converged.append((t, garch_fit.converged))
            except IntGarchError as exc:
                if garch_fit is None:
                    raise DataError(f"baseline fit failed on the training window: {exc}") from exc
                garch_failures.append((t, str(exc)))
        path = garch11_path(garch_fit.params, returns[: t + 1])
        g_fc = garch11_forecast(garch_fit.params, returns[: t + 1], horizons[-1], path)
        for h in horizons:
            if t + h < n:
                for name, fc in (("intgarch", res.sigma2), ("garch11", g_fc)):
                    forecasts[name][h][0].append(labels[t + h])
                    forecasts[name][h][1].append(fc[h - 1])

    info: dict = {
        "skipped_refits": skipped,
        "garch_failed_refits": garch_failures,
        "garch_converged": garch_converged,
        "intgarch_converged": intgarch_converged,
    }
    if include_insample:
        full = fit_mle(series, orders, init_mode)
        g_full = fit_garch11(returns)
        forecasts["intgarch"][0] = (labels, volatility(full.params, full.h_path))
        forecasts["garch11"][0] = (labels, g_full.sigma2_path)
        info["insample_converged"] = (full.converged, g_full.converged)

    reports = compare(forecasts, (labels, rv_arr), asset=asset)
    return reports, info


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
    """One replication: simulate, fit, return estimates and model SEs."""
    name, params, length, seq = args
    series, _ = simulate(SimConfig(params=params, length=length, seed=seq))
    fitted = fit_mle(series, params.orders)
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
    and refits the generating orders. Cells aggregate every replication
    whose fit completed, converged or not; the moment estimator of k has
    no model-based SE, so its mean_model_se is None. jobs > 1 runs the
    replications in worker processes, at most one per task and per core.
    """
    designs = dict(designs) if designs is not None else dict(BENCHMARK_DESIGNS)
    if replications < 2:
        raise DataError("replications must be >= 2")
    if length < 100:
        raise DataError("length must be >= 100")
    if jobs < 1:
        raise DataError("jobs must be >= 1")
    root = np.random.SeedSequence(seed)
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


def reports_to_csv(reports: Sequence[EvalReport]) -> str:
    """Long-format CSV: one row per asset x model x horizon x metric."""
    return "".join(line + "\n" for line in _csv_lines(*_report_rows(reports)))


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


def study_to_csv(cells: Sequence[StudyCell]) -> str:
    return "".join(line + "\n" for line in _csv_lines(*_study_rows(cells)))
