"""Interval-valued GARCH: simulation, estimation, forecasting, evaluation.

Daily returns are intervals [low, high] rather than points. The process
scales a random interval shock by a conditional scale h_t driven by past
absolute centers, radii, and scales; the library covers the resulting
moment theory, a two-stage estimator (moments for the shape k, projected
Newton for the scale parameters), multi-step volatility forecasts,
tick-data preparation, and a forecast-evaluation harness with a scalar
GARCH(1,1) baseline.
"""

from .exceptions import (
    ConvergenceError,
    DataError,
    IntGarchError,
    ModelError,
    NumericalError,
)
from .intervals import (
    Interval,
    IntervalSeries,
    SummaryMoments,
    aumann_mean,
    component_acf,
    rho2_distance,
    sample_acf,
    sample_correlation,
    sample_covariance,
    sample_variance,
    summarize,
)
from .process import (
    ABS_NORMAL_MEAN,
    InitMode,
    ModelOrders,
    ModelParams,
    TheoreticalMoments,
    conditional_variance,
    mean_stationarity,
    strict_stationarity_check,
    theoretical_acf,
    theoretical_acov,
    theoretical_moments,
    volatility,
    weak_stationarity,
)
from .simulate import SimConfig, simulate, simulate_paths
from .estimate import (
    FittedModel,
    asymptotic_covariance,
    estimate_k,
    fit_mle,
    init_theta,
    loglik_eval,
    score_and_hessian,
)
from .forecast import ForecastResult, forecast, rolling_forecast
from .marketdata import (
    DayBars,
    QuoteTick,
    SessionSpec,
    TickColumns,
    clean_quotes,
    day_bars_from_range,
    interval_returns,
    load_csv,
    make_day_bars,
    realized_variance,
    resample_to_grid,
    save_bars_csv,
    save_intervals_csv,
    save_ticks_csv,
)
from .evaluate import (
    BENCHMARK_DESIGNS,
    EvalReport,
    Garch11Fit,
    Garch11Params,
    StudyCell,
    compare,
    fit_garch11,
    garch11_forecast,
    garch11_path,
    hmse,
    mz_r2,
    qlike,
    render_reports,
    render_study,
    reports_to_csv,
    run_backtest,
    rv_proxy,
    simulation_study,
    study_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exceptions
    "IntGarchError",
    "DataError",
    "ModelError",
    "NumericalError",
    "ConvergenceError",
    # intervals
    "Interval",
    "IntervalSeries",
    "SummaryMoments",
    "aumann_mean",
    "rho2_distance",
    "sample_variance",
    "sample_covariance",
    "sample_correlation",
    "sample_acf",
    "component_acf",
    "summarize",
    # process
    "ABS_NORMAL_MEAN",
    "InitMode",
    "ModelOrders",
    "ModelParams",
    "TheoreticalMoments",
    "conditional_variance",
    "volatility",
    "mean_stationarity",
    "weak_stationarity",
    "strict_stationarity_check",
    "theoretical_moments",
    "theoretical_acov",
    "theoretical_acf",
    # simulate
    "SimConfig",
    "simulate",
    "simulate_paths",
    # estimate
    "FittedModel",
    "estimate_k",
    "init_theta",
    "loglik_eval",
    "score_and_hessian",
    "fit_mle",
    "asymptotic_covariance",
    # forecast
    "ForecastResult",
    "forecast",
    "rolling_forecast",
    # marketdata
    "QuoteTick",
    "TickColumns",
    "DayBars",
    "SessionSpec",
    "clean_quotes",
    "resample_to_grid",
    "make_day_bars",
    "day_bars_from_range",
    "realized_variance",
    "interval_returns",
    "load_csv",
    "save_intervals_csv",
    "save_bars_csv",
    "save_ticks_csv",
    # evaluate
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
