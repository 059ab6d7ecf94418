"""Command-line entry point.

Subcommands: simulate | fit | forecast | acf | prepare | backtest | table1.
Exit codes: 0 ok, 2 bad input, 3 numerical failure, 4 non-convergence.

Every run writes its resolved configuration (and seed, for randomized
commands) into the output header as `# key = value` comment lines, which
the CSV loaders skip. A --config file (JSON object or flat key=value
lines) supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import errno
import itertools
import json
import os
import sys
from collections import Counter

import numpy as np

from . import __version__
from .estimate import FittedModel, fit_mle
from .evaluate import (
    BENCHMARK_DESIGNS,
    _report_rows,
    _study_rows,
    render_reports,
    render_study,
    run_backtest,
    simulation_study,
)
from .exceptions import ConvergenceError, DataError, IntGarchError, NumericalError
from .forecast import forecast
from .intervals import IntervalSeries, sample_acf
from .marketdata import (
    SessionSpec,
    _csv_lines,
    _reading,
    _write_csv,
    _write_lines,
    clean_quotes,
    interval_returns,
    load_csv,
    resample_to_grid,
    save_bars_csv,
    save_intervals_csv,
)
from .process import (
    InitMode,
    ModelOrders,
    ModelParams,
    mean_stationarity,
    theoretical_acf,
)
from .simulate import SimConfig, simulate

__all__ = ["main", "build_parser"]


def _parse_orders(text: str) -> ModelOrders:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise DataError(f"orders must be 'p,q' or 'p,q,w', got {text!r}")
    try:
        nums = [int(x) for x in parts]
    except ValueError as exc:
        raise DataError(f"orders must be integers, got {text!r}") from exc
    if len(nums) == 2:
        nums.append(0)
    return ModelOrders(*nums)


def _parse_horizons(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise DataError(f"horizons must be integers, got {text!r}") from exc


def _parse_iso(kind, text: str):
    """A datetime.date or datetime.time (kind) from ISO 8601 text."""
    try:
        return kind.fromisoformat(text)
    except ValueError as exc:
        raise DataError(f"unparsable {kind.__name__} {text!r}") from exc


# the flags that name a file a command writes, and those that name one it reads
_OUTPUTS = ("out", "out_intervals", "out_bars", "h_out", "summary_out")
_INPUTS = ("data", "ticks", "bars", "model", "config")


def _check_outputs(args) -> None:
    """Refuse, before any work, an output path that names the same file as
    an input or another output, or whose directory is missing or not
    writable, the latter with the message a failed write gives; creates
    nothing. The writers still report whatever fails later."""
    named: dict = {}  # real path -> the first flag that names it
    for dest in _INPUTS + _OUTPUTS:
        path = getattr(args, dest, None)
        if path is None:
            continue
        real = os.path.realpath(path)
        first = named.setdefault(real, dest)
        if dest in _INPUTS:
            continue
        if first != dest:
            flags = (f"--{d.replace('_', '-')}" for d in (first, dest))
            raise DataError(f"{' and '.join(flags)} name the same file {real}")
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            code = errno.ENOENT
        elif not os.access(directory, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise DataError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _load_model_json(path) -> tuple:
    """(ModelParams, FittedModel or None) from a model document."""
    with _reading(path), open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
        if not isinstance(doc, dict):
            raise DataError("expected a JSON object")
        if "model" in doc:
            fitted = FittedModel.from_dict(doc)
            return fitted.params, fitted
        if "orders" in doc:
            return ModelParams.from_dict(doc), None
        raise DataError("neither a parameter nor a fit document")


def _resolve_seed(seed) -> int:
    """Explicit seed, or a fresh recorded one."""
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy)


def _meta(args, keys, **extra) -> dict:
    meta = {"command": args.command, "version": __version__}
    for key in keys:
        meta[key] = getattr(args, key.replace("-", "_"))
    meta.update(extra)
    return meta


def _emit(args, meta, header, rows, text=None) -> None:
    """Write the table under the run lines to --out, if set; print text, else the CSV."""
    if args.out:
        _write_csv(args.out, meta, header, rows)
    print("\n".join(_csv_lines(header, rows)) if text is None else text)


def _synth_dates(n: int, start: _dt.date) -> list:
    """n consecutive weekdays from start (synthetic calendar for
    simulated series; intervals CSV needs date labels)."""
    days = map(_dt.date.fromordinal, range(start.toordinal(), _dt.date.max.toordinal() + 1))
    out = list(itertools.islice((d for d in days if d.weekday() < 5), n))
    if len(out) < n:
        raise DataError(f"--start-date {start}: {n} weekdays from it run past {_dt.date.max}")
    return out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    params, _ = _load_model_json(args.model)
    start = _parse_iso(_dt.date, args.start_date)
    seed = _resolve_seed(args.seed)
    stationary, weight_sum = mean_stationarity(params)
    if args.require_stationary and not stationary:
        raise DataError(
            f"model is not mean stationary: lag weight sum = {weight_sum:.6g} >= 1"
        )
    cfg = SimConfig(
        params=params,
        length=args.T,
        seed=seed,
        burn_in=args.burn_in,
        init_mode=InitMode(args.init),
    )
    series, h = simulate(cfg)
    dates = _synth_dates(len(series), start)
    series = IntervalSeries(series.centers, series.radii, dates=tuple(dates))
    meta = _meta(
        args,
        ["model", "T", "burn_in", "init", "start_date"],
        seed=seed,
        weight_sum=f"{weight_sum:.6g}",
    )
    save_intervals_csv(series, args.out, meta=meta)
    if args.h_out:
        _write_csv(args.h_out, meta, "date,h", zip(dates, h))
    print(f"wrote {len(series)} intervals to {args.out} (seed {seed})")
    return 0


def _fit_summary(fitted: FittedModel) -> str:
    lines = [
        f"observations      {fitted.n_obs}",
        f"log-likelihood    {fitted.loglik:.6f}",
        f"converged         {fitted.converged}",
        f"stop reason       {fitted.stop_reason}",
        f"iterations        {fitted.iterations}",
        f"max |gradient|    {fitted.gradient_max:.3e}",
        f"boundary          {', '.join(fitted.boundary) if fitted.boundary else '(none)'}",
        "",
        f"{'parameter':<10} {'estimate':>12} {'std error':>12}",
        f"{'k':<10} {fitted.params.k:>12.6f} {'-':>12}",
    ]
    named = dict(zip(fitted.params.param_names(), fitted.params.theta))
    for name, value in named.items():
        se = fitted.std_errors.get(name)
        se_txt = f"{se:.6f}" if se is not None else "-"
        lines.append(f"{name:<10} {value:>12.6f} {se_txt:>12}")
    return "\n".join(lines)


def cmd_fit(args) -> int:
    series = load_csv(args.data, "intervals")
    orders = _parse_orders(args.orders)
    with _reading(args.data):  # too short or degenerate a series names the file
        fitted = fit_mle(series, orders, InitMode(args.init))
    doc = fitted.to_dict()
    doc["run_config"] = _meta(args, ["data", "orders", "init"])
    _write_lines(args.out, [json.dumps(doc, indent=2)])
    summary = _fit_summary(fitted)
    print(summary)
    if args.summary_out:
        _write_lines(args.summary_out, [summary])
    if not fitted.converged:
        print(f"fit did not converge: {fitted.stop_reason}", file=sys.stderr)
        return 4
    return 0


def cmd_forecast(args) -> int:
    params, fitted = _load_model_json(args.model)
    series = load_csv(args.data, "intervals")
    origin = args.origin if args.origin is not None else len(series) - 1
    result = forecast(
        fitted if fitted is not None else params,
        series,
        args.horizon,
        origin_index=origin,
        init_mode=InitMode(args.init),
    )
    meta = _meta(
        args,
        ["model", "data", "horizon", "init"],
        init=args.init if fitted is None else fitted.init_mode.value,
        origin_index=result.origin_index,
        origin_date=result.origin_date,
    )
    header = "step,h_hat,sigma2"
    rows = [(j + 1, result.h_hat[j], result.sigma2[j]) for j in range(args.horizon)]
    _emit(args, meta, header, rows)
    return 0


def cmd_acf(args) -> int:
    series = load_csv(args.data, "intervals")
    sample = sample_acf(series, args.max_lag)
    theo = None
    if args.model:
        params, _ = _load_model_json(args.model)
        theo = theoretical_acf(params, args.max_lag)
    meta = _meta(args, ["data", "max_lag", "model"], n=len(series))
    lags = range(args.max_lag + 1)
    if theo is None:
        header, rows = "lag,sample_acf", [(s, sample[s]) for s in lags]
    else:
        header, rows = "lag,sample_acf,theoretical_acf", [(s, sample[s], theo[s]) for s in lags]
    _emit(args, meta, header, rows)
    return 0


def cmd_prepare(args) -> int:
    ticks = load_csv(args.ticks, "ticks")
    drops: dict = {}
    cleaned = clean_quotes(ticks, drops)
    session = SessionSpec(
        start=_parse_iso(_dt.time, args.session_start),
        end=_parse_iso(_dt.time, args.session_end),
        grid_minutes=args.grid_minutes,
    )
    days = resample_to_grid(cleaned, session)
    with _reading(args.ticks):
        if len(days) < 2:
            raise DataError("insufficient data: need at least 2 usable days")
    series = interval_returns(days)
    meta = _meta(
        args,
        ["ticks", "session_start", "session_end", "grid_minutes"],
        ticks_in=len(ticks),
        ticks_clean=len(cleaned),
        days=len(days),
        intervals=len(series),
        **{f"dropped_{rule}": n for rule, n in drops.items()},
    )
    save_intervals_csv(series, args.out_intervals, meta=meta)
    if args.out_bars:
        save_bars_csv(days, args.out_bars, meta=meta)
    print(
        f"ticks in {len(ticks)}, after cleaning {len(cleaned)}, "
        f"days {len(days)}, intervals {len(series)}, "
        f"dropped by rules 1-4: {', '.join(str(n) for n in drops.values())}"
    )
    return 0


def cmd_backtest(args) -> int:
    if not np.isfinite(args.train):
        raise DataError(f"--train must be finite, got {args.train}")
    days = load_csv(args.bars, "daily_bars")
    with _reading(args.bars):  # as does a pair of days whose return overflows
        if len(days) < 3:
            raise DataError("insufficient data: need at least 3 days")
        series = interval_returns(days)
    rv = np.array([d.rv for d in days[1:]])
    if all(d.close_log is not None for d in days):
        returns = np.diff([d.close_log for d in days])
        returns_kind = "close-to-close"
    else:
        returns = None  # run_backtest falls back to interval centers
        returns_kind = "interval centers (no intraday closes in input)"
        print(
            "warning: bars carry no intraday prices; baseline uses interval centers",
            file=sys.stderr,
        )
    n = len(series)
    train_size = int(round(args.train * n)) if args.train < 1 else int(args.train)
    horizons = _parse_horizons(args.horizons)
    reports, info = run_backtest(
        series,
        rv,
        orders=_parse_orders(args.orders),
        train_size=train_size,
        horizons=horizons,
        refit_every=args.refit_every,
        init_mode=InitMode(args.init),
        scalar_returns=returns,
        include_insample=args.insample,
        asset=args.asset,
    )
    meta = _meta(
        args,
        ["bars", "orders", "horizons", "refit_every", "init", "insample", "asset"],
        train_size=train_size,
        n=n,
        baseline_returns=returns_kind,
        skipped_refits=len(info["skipped_refits"]),
    )
    header, rows = _report_rows(reports)
    _emit(args, meta, header, rows, render_reports(reports) if args.format == "text" else None)
    for r in reports:
        if np.isnan(r.r2):
            print(f"R² undefined for {r.model} at horizon {r.horizon}: "
                  "constant forecasts or realized values", file=sys.stderr)
    stages = Counter(stage for _, stage, _ in info["skipped_refits"])
    counts = {"failed interval-model refits": stages["refit"],
              "failed baseline refits": len(info["garch_failed_refits"]),
              "overflowed interval-model forecasts": stages["forecast"]}
    for name, label in (("intgarch", "interval-model"), ("garch11", "baseline")):
        for kind, runs in (("refits", [run for _, run in info["refits"][name]]),
                           ("in-sample fits", [info["insample"][name]] if "insample" in info else [])):
            reasons = Counter(run.stop_reason for run in runs if not run.converged)
            split = ", ".join(f"{reason}: {n}" for reason, n in sorted(reasons.items()))
            counts[f"unconverged {label} {kind}"] = f"{reasons.total()} ({split})" if reasons else 0
    for label, count in counts.items():
        if count:
            print(f"{label}: {count}", file=sys.stderr)
    return 0


def cmd_table1(args) -> int:
    seed = _resolve_seed(args.seed)
    names = [x.strip() for x in args.designs.split(",") if x.strip()]
    unknown = [x for x in names if x not in BENCHMARK_DESIGNS]
    if unknown:
        raise DataError(f"unknown designs {unknown}; available: {', '.join(BENCHMARK_DESIGNS)}")
    repeated = [x for i, x in enumerate(names) if x in names[:i]]
    if repeated:
        raise DataError(f"--designs names {', '.join(dict.fromkeys(repeated))} more than once")
    designs = {name: BENCHMARK_DESIGNS[name] for name in names}
    cells = simulation_study(
        designs,
        replications=args.reps,
        length=args.T,
        seed=seed,
        jobs=args.jobs,
    )
    meta = _meta(args, ["designs", "reps", "T", "jobs"], seed=seed)
    header, rows = _study_rows(cells)
    _emit(args, meta, header, rows, render_study(cells) if args.format == "text" else None)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> tuple:
    """(parser, {command: (subparser, required dests)}).

    Required flags are enforced after the config merge, not by argparse,
    so a --config file can supply them.
    """
    parser = argparse.ArgumentParser(
        prog="intgarch",
        description="Interval-valued GARCH: simulate, fit, forecast, and evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict = {}

    def add(name, func, help_text, required):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--config", help="JSON or key=value defaults file (flags win)")
        commands[name] = (sp, required)
        return sp

    sp = add("simulate", cmd_simulate, "simulate an interval return series", ["model", "T", "out"])
    sp.add_argument("--model", help="model parameter JSON")
    sp.add_argument("--T", type=int, help="series length")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed (recorded if omitted)")
    sp.add_argument("--burn-in", type=int, default=0, help="discarded warm-up steps")
    sp.add_argument("--init", choices=["zero", "mean"], default="zero", help="pre-sample h")
    sp.add_argument("--start-date", default="2000-01-03", help="first synthetic date")
    sp.add_argument("--require-stationary", action="store_true", help="refuse weight sum >= 1")
    sp.add_argument("--out", help="intervals CSV path")
    sp.add_argument("--h-out", default=None, help="optional h-path CSV")

    sp = add("fit", cmd_fit, "fit the model to an interval CSV", ["data", "out"])
    sp.add_argument("--data", help="intervals CSV")
    sp.add_argument("--orders", default="1,1,1", help="lag orders p,q[,w]")
    sp.add_argument("--init", choices=["zero", "mean"], default="mean", help="pre-sample h")
    sp.add_argument("--out", help="fit JSON path")
    sp.add_argument("--summary-out", default=None, help="optional text summary path")

    sp = add("forecast", cmd_forecast, "multi-step volatility forecast", ["model", "data", "horizon"])
    sp.add_argument("--model", help="model or fit JSON")
    sp.add_argument("--data", help="intervals CSV")
    sp.add_argument("--horizon", type=int, help="steps ahead")
    sp.add_argument("--origin", type=int, default=None, help="origin index (default: last)")
    sp.add_argument("--init", choices=["zero", "mean"], default="mean",
                    help="pre-sample h for a parameter document; a fit document keeps its own")
    sp.add_argument("--out", default=None, help="optional CSV path")

    sp = add("acf", cmd_acf, "sample (and theoretical) autocorrelations", ["data"])
    sp.add_argument("--data", help="intervals CSV")
    sp.add_argument("--max-lag", type=int, default=20, help="largest lag")
    sp.add_argument("--model", default=None, help="optional model JSON for the overlay")
    sp.add_argument("--out", default=None, help="optional CSV path")

    sp = add("prepare", cmd_prepare, "clean ticks, grid, and build interval returns", ["ticks", "out_intervals"])
    sp.add_argument("--ticks", help="tick CSV (timestamp,bid,ask[,price])")
    sp.add_argument("--session-start", default="09:30", help="session open (HH:MM)")
    sp.add_argument("--session-end", default="16:00", help="session close (HH:MM)")
    sp.add_argument("--grid-minutes", type=int, default=5, help="grid spacing")
    sp.add_argument("--out-intervals", help="interval returns CSV path")
    sp.add_argument("--out-bars", default=None, help="optional daily bars CSV path")

    sp = add("backtest", cmd_backtest, "walk-forward comparison against GARCH(1,1)", ["bars", "train"])
    sp.add_argument("--bars", help="daily bars CSV (either layout)")
    sp.add_argument("--train", type=float, help="training rows (or fraction < 1)")
    sp.add_argument("--horizons", default="1,2,5", help="comma-separated horizons")
    sp.add_argument("--refit-every", type=int, default=1, help="origins between refits")
    sp.add_argument("--orders", default="1,1,1", help="lag orders p,q[,w]")
    sp.add_argument("--init", choices=["zero", "mean"], default="mean", help="pre-sample h")
    sp.add_argument("--insample", action="store_true", help="also report horizon 0")
    sp.add_argument("--asset", default="data", help="label for the reports")
    sp.add_argument("--format", choices=["text", "csv"], default="text", help="stdout format")
    sp.add_argument("--out", default=None, help="optional report CSV path")

    sp = add("table1", cmd_table1, "benchmark-design estimator recovery study", [])
    sp.add_argument("--designs", default="I,II,III,IV", help="subset, e.g. I,III")
    sp.add_argument("--reps", type=int, default=100, help="replications per design")
    sp.add_argument("--T", type=int, default=1000, help="series length")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed (recorded if omitted)")
    sp.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    sp.add_argument("--format", choices=["text", "csv"], default="text", help="stdout format")
    sp.add_argument("--out", default=None, help="optional CSV path")

    return parser, commands


def _load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):  # text from "{" that parses is a JSON object
        doc = json.loads(text)
        for key, value in doc.items():
            if value is None or isinstance(value, (list, dict)):
                raise DataError(f"config key {key!r} must be a string, number or boolean")
        # as strings, JSON values take the same conversion as key=value lines
        return {str(k): str(v) for k, v in doc.items()}
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


# the words a config file may give an on/off flag, in any case
_ON_OFF = {**dict.fromkeys(("1", "true", "yes", "on"), True),
           **dict.fromkeys(("0", "false", "no", "off"), False)}


def _apply_config(parser, commands, argv, args):
    """Merge --config values under the explicit flags and reparse. Each
    string value takes its flag's type, choices or on/off reading."""
    sp, _ = commands[args.command]
    actions = {action.dest: action for action in sp._actions if action.dest != "help"}
    defaults: dict = {}
    with _reading(args.config):
        for key, value in _load_config_file(args.config).items():
            action = actions.get(key.replace("-", "_"))
            if action is None:
                raise DataError(f"unknown config key {key!r} for command {args.command!r}")
            if action.nargs == 0:  # an on/off flag
                if value.lower() not in _ON_OFF:
                    raise DataError(f"config key {key!r}: {value!r} is not one of {list(_ON_OFF)}")
                value = _ON_OFF[value.lower()]
            elif action.type is not None:
                try:
                    value = action.type(value)
                except ValueError as exc:
                    raise DataError(f"config key {key!r}: {exc}") from exc
            if action.choices and value not in action.choices:
                raise DataError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
            defaults[action.dest] = value
    sp.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _apply_config(parser, commands, argv, args)
        _, required = commands[args.command]
        missing = [d for d in required if getattr(args, d) is None]
        if missing:
            flags = ", ".join("--" + d.replace("_", "-") for d in missing)
            raise DataError(f"missing required flags: {flags}")
        _check_outputs(args)
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IntGarchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
