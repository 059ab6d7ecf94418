"""The three workloads: inputs, one operation, span hooks and oracle checks.

Each workload is a Workload with
  inputs(seed, workdir)   the fixed input list of one round
  run(x)                  one operation; returns (items, output)
  hooks()                 (module, attribute, span name, fields) for the
                          public functions the operation reaches, patched
                          where their callers look them up
  check(x, recorder, output) problems found by the oracles, given a
                          Recorder(keep=True) that watched run(x)
  capture                 how many operations of the first round to check
"""

from __future__ import annotations

import contextlib
import importlib
import io
from dataclasses import dataclass
from typing import Callable

import inputs
import oracles
from intgarch import cli, evaluate
from intgarch.intervals import IntervalSeries
from intgarch.process import ModelOrders

# the package exports a function of the same name as this module
forecast = importlib.import_module("intgarch.forecast")


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable
    run: Callable
    hooks: Callable
    check: Callable
    capture: int


def _fit_fields(args, kwargs, fit) -> dict:
    return {"iterations": fit.iterations, "converged": int(fit.converged)}


# ---------------------------------------------------------------------------
# prepare: `intgarch prepare` in-process on each tick file


@dataclass(frozen=True)
class PrepareJob:
    ticks: inputs.TickFile
    out_intervals: str
    out_bars: str


def prepare_inputs(seed: int, workdir: str) -> list:
    return [
        PrepareJob(f, f"{f.path[:-4]}.intervals.csv", f"{f.path[:-4]}.bars.csv")
        for f in inputs.make_tick_files(workdir, seed)
    ]


def prepare_run(job: PrepareJob) -> tuple:
    argv = ["prepare", "--ticks", job.ticks.path,
            "--out-intervals", job.out_intervals, "--out-bars", job.out_bars]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"intgarch prepare exited with {code} on {job.ticks.path}")
    return job.ticks.rows, None


def prepare_hooks() -> list:
    return [
        (cli, "main", "cli.main", None),
        (cli, "load_csv", "marketdata.load_csv", None),
        (cli, "clean_quotes", "marketdata.clean_quotes",
         lambda a, k, out: {"ticks_in": len(a[0]), "ticks_out": len(out)}),
        (cli, "resample_to_grid", "marketdata.resample_to_grid",
         lambda a, k, out: {"days": len(out)}),
        (cli, "interval_returns", "marketdata.interval_returns", None),
        (cli, "save_intervals_csv", "marketdata.save_intervals_csv", None),
    ]


def prepare_check(job: PrepareJob, recorder, output) -> list:
    return oracles.check_prepare(
        job.ticks, job.out_intervals, job.out_bars,
        inputs.SESSION_START, inputs.SESSION_END, inputs.GRID_MINUTES,
    )


# ---------------------------------------------------------------------------
# backtest: run_backtest on simulated design-I worlds


@dataclass(frozen=True)
class BacktestJob:
    world: inputs.World
    series: IntervalSeries


def backtest_inputs(seed: int, workdir: str) -> list:
    return [BacktestJob(w, IntervalSeries(w.centers, w.radii)) for w in inputs.make_worlds(seed)]


def backtest_run(job: BacktestJob) -> tuple:
    reports, info = evaluate.run_backtest(
        job.series,
        job.world.rv,
        orders=ModelOrders(1, 1, 1),
        train_size=inputs.BACKTEST_TRAIN,
        horizons=inputs.BACKTEST_HORIZONS,
        refit_every=inputs.BACKTEST_REFIT_EVERY,
        scalar_returns=job.world.returns,
    )
    return inputs.BACKTEST_ORIGINS - len(info["skipped_refits"]), (reports, info)


def backtest_hooks() -> list:
    return [
        (evaluate, "run_backtest", "evaluate.run_backtest", None),
        (evaluate, "rolling_forecast", "forecast.rolling_forecast",
         lambda a, k, out: {"skipped": len(out[1])}),
        (forecast, "fit_mle", "estimate.fit_mle", _fit_fields),
        (forecast, "loglik_eval", "estimate.loglik_eval", None),
        (forecast, "forecast", "forecast.forecast", None),
        (evaluate, "fit_garch11", "evaluate.fit_garch11", _fit_fields),
        (evaluate, "garch11_path", "evaluate.garch11_path", None),
        (evaluate, "garch11_forecast", "evaluate.garch11_forecast", None),
        (evaluate, "compare", "evaluate.compare", None),
    ]


def backtest_check(job: BacktestJob, recorder, output) -> list:
    reports, info = output
    k, *true_theta = inputs.DESIGN_I
    c, r, ret = job.world.centers, job.world.radii, job.world.returns
    problems = []
    for (series, *_), _, fit in recorder.calls("estimate.fit_mle"):
        n = len(series)
        problems += oracles.check_interval_fit(fit, c[:n], r[:n], tuple(true_theta))
    for (returns,), _, fit in recorder.calls("evaluate.fit_garch11"):
        problems += oracles.check_garch_fit(fit, returns)
    for (params, _, horizon), kw, res in recorder.calls("forecast.forecast"):
        n = kw["origin_index"] + 1
        want = oracles.interval_forecast(params.k, params.theta, c[:n], r[:n], horizon)
        if not oracles.close(res.sigma2, want, oracles.LOGLIK_RTOL):
            problems.append(f"interval forecast at origin {n - 1} differs from the reference")
    for (params, returns, horizon, _), _, out in recorder.calls("evaluate.garch11_forecast"):
        want = oracles.garch_forecast(params.omega, params.a, params.b, returns, horizon)
        if not oracles.close(out, want, oracles.LOGLIK_RTOL):
            problems.append(f"baseline forecast at origin {len(returns) - 1} differs from the reference")
    if not recorder.calls("evaluate.fit_garch11") or not recorder.calls("estimate.fit_mle"):
        problems.append("backtest made no fits")
    problems += oracles.check_reports(
        reports, inputs.BACKTEST_HORIZONS, inputs.BACKTEST_ORIGINS, len(info["skipped_refits"])
    )
    return problems


# ---------------------------------------------------------------------------
# study: simulation_study (what `intgarch table1` runs) on design I


def study_inputs(seed: int, workdir: str) -> list:
    return inputs.study_seeds(seed)


def study_run(seed: int) -> tuple:
    cells = evaluate.simulation_study(
        {"I": evaluate.BENCHMARK_DESIGNS["I"]},
        replications=inputs.STUDY_REPLICATIONS,
        length=inputs.STUDY_LENGTH,
        seed=seed,
        jobs=1,
    )
    return inputs.STUDY_REPLICATIONS * inputs.STUDY_LENGTH, cells


def study_hooks() -> list:
    return [
        (evaluate, "simulation_study", "evaluate.simulation_study", None),
        (evaluate, "simulate", "simulate.simulate",
         lambda a, k, out: {"steps": a[0].length + a[0].burn_in}),
        (evaluate, "fit_mle", "estimate.fit_mle", _fit_fields),
    ]


def study_check(seed: int, recorder, cells) -> list:
    simulated = [(s.centers, s.radii, h) for _, _, (s, h) in recorder.calls("simulate.simulate")]
    fits = [fit for _, _, fit in recorder.calls("estimate.fit_mle")]
    return oracles.check_study(
        inputs.DESIGN_I, seed, inputs.STUDY_REPLICATIONS, inputs.STUDY_LENGTH,
        simulated, fits, cells,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prepare", prepare_inputs, prepare_run, prepare_hooks, prepare_check,
                 inputs.QUOTE_FILES + inputs.PRICE_FILES),
        Workload("backtest", backtest_inputs, backtest_run, backtest_hooks, backtest_check, 3),
        Workload("study", study_inputs, study_run, study_hooks, study_check, 1),
    )
}
