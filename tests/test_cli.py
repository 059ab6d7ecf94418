"""End-to-end CLI tests driving main() in process."""

import csv
import dataclasses
import datetime as dt
import importlib
import io
import json
import math

import numpy as np
import pytest

from intgarch import (
    BENCHMARK_DESIGNS,
    FittedModel,
    InitMode,
    IntervalSeries,
    ModelOrders,
    ModelParams,
    NumericalError,
    SimConfig,
    __version__,
    forecast,
    interval_returns,
    mean_stationarity,
    run_backtest,
    sample_acf,
    simulate,
    simulation_study,
    theoretical_acf,
)
from intgarch import cli
from intgarch.evaluate import _report_rows
from intgarch.marketdata import (
    DayBars,
    QuoteTick,
    _csv_lines,
    clean_quotes,
    day_bars_from_range,
    load_csv,
    make_day_bars,
    resample_to_grid,
    save_bars_csv,
    save_intervals_csv,
    save_ticks_csv,
)

MODEL_I = ModelParams(ModelOrders(1, 1, 1), 1.8147, 0.0906, (0.0318,), (0.374,), (0.1265,))


def run(*argv):
    """Invoke the CLI, treating SystemExit like a return code."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def data_rows(path):
    with open(path) as fh:
        return [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]


def meta_text(**meta):
    return "".join(f"# {k} = {v}\n" for k, v in meta.items())


def split_meta(text):
    """(the leading `# key = value` lines, the rest) of a written table."""
    lines = text.splitlines(keepends=True)
    n = next(i for i, ln in enumerate(lines) if not ln.startswith("# "))
    assert all(" = " in ln for ln in lines[:n])
    return "".join(lines[:n]), "".join(lines[n:])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "model.json").write_text(json.dumps(MODEL_I.to_dict(), indent=2) + "\n")
    assert run("simulate", "--model", str(d / "model.json"), "--T", "600",
               "--seed", "12", "--burn-in", "100", "--out", str(d / "train.csv")) == 0
    return d


@pytest.fixture(scope="module")
def fit_dir(workdir):
    assert run("fit", "--data", str(workdir / "train.csv"),
               "--out", str(workdir / "fit.json"),
               "--summary-out", str(workdir / "summary.txt")) == 0
    return workdir


class TestTopLevel:
    def test_version(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out.startswith("intgarch ")

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "simulate" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        assert run("--nope") == 2

    def test_missing_required_flags(self, capsys):
        assert run("simulate") == 2
        assert "missing required flags: --model, --T, --out" in capsys.readouterr().err


class TestSimulate:
    def test_same_seed_same_file(self, workdir):
        a, b = workdir / "s1.csv", workdir / "s2.csv"
        for p in (a, b):
            assert run("simulate", "--model", str(workdir / "model.json"),
                       "--T", "80", "--seed", "3", "--out", str(p)) == 0
        assert data_rows(a) == data_rows(b)

    def test_different_seed_differs(self, workdir):
        a, b = workdir / "s3.csv", workdir / "s4.csv"
        run("simulate", "--model", str(workdir / "model.json"), "--T", "80",
            "--seed", "3", "--out", str(a))
        run("simulate", "--model", str(workdir / "model.json"), "--T", "80",
            "--seed", "4", "--out", str(b))
        assert data_rows(a) != data_rows(b)

    def test_seed_recorded_when_omitted(self, workdir, capsys):
        out = workdir / "s5.csv"
        assert run("simulate", "--model", str(workdir / "model.json"),
                   "--T", "60", "--out", str(out)) == 0
        assert "(seed " in capsys.readouterr().out
        meta = [ln for ln in out.read_text().splitlines() if ln.startswith("# seed = ")]
        assert len(meta) == 1 and int(meta[0].split("=")[1]) >= 0

    def test_run_metadata_in_header(self, workdir):
        text = (workdir / "train.csv").read_text()
        for line in ("# command = simulate", "# T = 600", "# burn_in = 100", "# init = zero"):
            assert line in text

    def test_require_stationary_refusal(self, workdir, tmp_path, capsys):
        bad = ModelParams(ModelOrders(1, 1, 1), 1.8147, 0.0906, (0.5,), (0.6,), (0.4,))
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad.to_dict(), indent=2))
        assert run("simulate", "--model", str(p), "--T", "60",
                   "--out", str(tmp_path / "x.csv"), "--require-stationary") == 2
        assert "not mean stationary" in capsys.readouterr().err

    def test_overflow_exits_three(self, tmp_path, capsys):
        boom = ModelParams(ModelOrders(1, 1, 1), 1.8147, 0.0906, (2.0,), (6.0,), (4.0,))
        p = tmp_path / "boom.json"
        p.write_text(json.dumps(boom.to_dict(), indent=2))
        assert run("simulate", "--model", str(p), "--T", "5000", "--seed", "1",
                   "--out", str(tmp_path / "y.csv")) == 3
        assert "overflow" in capsys.readouterr().err


class TestConfigFile:
    def test_json_defaults_and_flag_override(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": str(workdir / "model.json"), "T": 70, "seed": 4}))
        a, b = tmp_path / "c1.csv", tmp_path / "c2.csv"
        assert run("simulate", "--config", str(cfg), "--out", str(a)) == 0
        assert run("simulate", "--config", str(cfg), "--T", "90", "--out", str(b)) == 0
        assert len(data_rows(a)) == 70 + 1  # header + rows
        assert len(data_rows(b)) == 90 + 1

    def test_key_value_config(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.kv"
        cfg.write_text(f"# defaults\nmodel = {workdir / 'model.json'}\nT=55\nseed=4\n")
        out = tmp_path / "c3.csv"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        assert len(data_rows(out)) == 55 + 1

    def test_json_booleans_and_choices(self, workdir, tmp_path, capsys):
        bad = ModelParams(ModelOrders(1, 1, 1), 1.8147, 0.0906, (0.5,), (0.6,), (0.4,))
        (tmp_path / "bad.json").write_text(json.dumps(bad.to_dict(), indent=2))
        cfg = tmp_path / "cfg.json"
        doc = {"T": 50, "seed": 4, "init": "mean", "require_stationary": True}
        cfg.write_text(json.dumps({**doc, "model": str(workdir / "model.json")}))
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "ok.csv")) == 0
        assert "# init = mean" in (tmp_path / "ok.csv").read_text()
        cfg.write_text(json.dumps({**doc, "model": str(tmp_path / "bad.json")}))
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "no.csv")) == 2
        assert "not mean stationary" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, code",
        [("require-stationary = on", 2), ("require_stationary = ON", 2), ("require-stationary = off", 0),
         ("require-stationary = No", 0), ('{"require_stationary": "on"}', 2)],
    )
    def test_on_off_words(self, workdir, tmp_path, capsys, line, code):
        bad = ModelParams(ModelOrders(1, 1, 1), 1.8147, 0.0906, (0.5,), (0.6,), (0.4,))
        (tmp_path / "bad.json").write_text(json.dumps(bad.to_dict(), indent=2))
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        assert run("simulate", "--config", str(cfg), "--model", str(tmp_path / "bad.json"), "--T", "50",
                   "--out", str(tmp_path / "s.csv")) == code
        assert ("not mean stationary" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("line, key", [("require_stationary = maybe", "require_stationary"),
                                           ('{"require-stationary": 2}', "require-stationary")])
    def test_other_on_off_words_exit_two_naming_the_key(self, workdir, tmp_path, capsys, line, key):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        assert run("simulate", "--config", str(cfg), "--model", str(workdir / "model.json"), "--T", "50",
                   "--out", str(tmp_path / "s.csv")) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}: " in err and "is not one of ['1', 'true', 'yes', 'on'" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("fit", {"orders": [1, 1, 1]}, "orders"),
            ("fit", {"orders": {"p": 1}}, "orders"),
            ("fit", {"init": None}, "init"),
            ("simulate", {"T": 1.5}, "T"),
            ("simulate", {"T": 50, "init": "bogus"}, "init"),
            ("simulate", {"T": 50, "seed": True}, "seed"),
        ],
    )
    def test_bad_json_values_exit_two_naming_the_key(self, workdir, tmp_path, capsys, command, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        flags = {
            "fit": ["--data", str(workdir / "train.csv"), "--out", str(tmp_path / "f.json")],
            "simulate": ["--model", str(workdir / "model.json"), "--out", str(tmp_path / "s.csv")],
        }[command]
        assert run(command, "--config", str(cfg), *flags) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r}" in err and "Traceback" not in err

    def test_bad_key_value_exits_two_naming_the_key(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.kv"
        cfg.write_text(f"model = {workdir / 'model.json'}\nT = 12x\n")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")) == 2
        assert "config key 'T'" in capsys.readouterr().err


class TestNotUtf8:
    """An input that does not decode as UTF-8 exits 2 naming the file and
    the line of its first bad byte, for each reader of the CLI."""

    TICKS = b"timestamp,bid,ask\n" + b"2024-03-04T10:00:00,99.99,100.01\n" * 400

    @pytest.mark.parametrize("reader, content, line", [
        # the bad byte lies past the text reader's first 8 KiB chunk
        ("ticks", TICKS + b"2024-03-04T10:05:00,99.98,100.0\xff\n", 402),
        ("intervals", b"date,low,high\n2020-01-01,-1.0,1.0\n2020-01-02,\xff,1.0\n", 3),
        ("model", b'{"orders": [1, 1, 1],\n "k": "\xff"}\n', 2),
        ("config", b"T = 50\nseed = 4\xff\n", 2),
    ], ids=["ticks", "intervals", "model", "config"])
    def test_exits_two_naming_the_line(self, workdir, tmp_path, capsys, reader, content, line):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        argv = {
            "ticks": ["prepare", "--ticks", str(bad), "--out-intervals"],
            "intervals": ["fit", "--data", str(bad), "--out"],
            "model": ["simulate", "--model", str(bad), "--T", "50", "--out"],
            "config": ["simulate", "--config", str(bad), "--model", str(workdir / "model.json"), "--out"],
        }[reader]
        assert run(*argv, str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert f"{bad} line {line}: not UTF-8 text (byte 0xff)" in err and "Traceback" not in err

    def test_a_cut_sequence_is_named_by_its_first_byte(self, tmp_path, capsys):
        # a two-byte sequence cut short by a line break
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"date,low,high\n# caf\xc3\n2020-01-01,-1.0,1.0\n")
        assert run("fit", "--data", str(bad), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {bad} line 2: not UTF-8 text (byte 0xc3)\n"


class TestTableBytes:
    """Every table the CLI writes is its `# key = value` run lines, then
    the rows in the bytes the per-command formatting wrote before all
    tables shared one writer."""

    def test_simulate_h_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.json").write_text(json.dumps(MODEL_I.to_dict(), indent=2))
        assert run("simulate", "--model", "model.json", "--T", "30", "--seed", "9",
                   "--out", "s.csv", "--h-out", "h.csv") == 0
        _, h = simulate(SimConfig(params=MODEL_I, length=30, seed=9, burn_in=0, init_mode=InitMode("zero")))
        dates = [row.split(",")[0] for row in data_rows("s.csv")[1:]]
        meta = meta_text(
            command="simulate", version=__version__, model="model.json", T=30, burn_in=0, init="zero",
            start_date="2000-01-03", seed=9, weight_sum=f"{mean_stationarity(MODEL_I)[1]:.6g}",
        )
        body = "date,h\n" + "".join(f"{d},{float(x)!r}\n" for d, x in zip(dates, h))
        assert (tmp_path / "h.csv").read_text() == meta + body
        assert split_meta((tmp_path / "s.csv").read_text())[0] == meta

    def test_forecast(self, fit_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(fit_dir)
        out = tmp_path / "fc.csv"
        assert run("forecast", "--model", "model.json", "--data", "train.csv",
                   "--horizon", "4", "--origin", "550", "--out", str(out)) == 0
        series = load_csv("train.csv", "intervals")
        r = forecast(MODEL_I, series, 4, origin_index=550, init_mode=InitMode("mean"))
        body = "step,h_hat,sigma2\n" + "".join(
            f"{j + 1},{float(r.h_hat[j])!r},{float(r.sigma2[j])!r}\n" for j in range(4)
        )
        meta = meta_text(
            command="forecast", version=__version__, model="model.json", data="train.csv",
            horizon=4, init="mean", origin_index=550, origin_date=series.dates[550],
        )
        assert out.read_text() == meta + body
        assert capsys.readouterr().out == body

    @pytest.mark.parametrize("with_model", [False, True])
    def test_acf(self, fit_dir, tmp_path, monkeypatch, capsys, with_model):
        monkeypatch.chdir(fit_dir)
        out = tmp_path / "acf.csv"
        flags = ["--model", "model.json"] if with_model else []
        assert run("acf", "--data", "train.csv", "--max-lag", "5", *flags, "--out", str(out)) == 0
        sample = sample_acf(load_csv("train.csv", "intervals"), 5)
        if with_model:
            theo = theoretical_acf(MODEL_I, 5)
            body = "lag,sample_acf,theoretical_acf\n" + "".join(
                f"{s},{float(sample[s])!r},{float(theo[s])!r}\n" for s in range(6)
            )
        else:
            body = "lag,sample_acf\n" + "".join(f"{s},{float(sample[s])!r}\n" for s in range(6))
        meta = meta_text(
            command="acf", version=__version__, data="train.csv", max_lag=5,
            model="model.json" if with_model else None, n=600,
        )
        assert out.read_text() == meta + body
        assert capsys.readouterr().out == body

    def test_backtest(self, bars_csv, tmp_path, capsys):
        out = tmp_path / "bt.csv"
        assert run("backtest", "--bars", str(bars_csv), "--train", "100", "--horizons", "1,2",
                   "--refit-every", "64", "--format", "csv", "--out", str(out)) == 0
        days = load_csv(bars_csv, "daily_bars")
        reports, _ = run_backtest(interval_returns(days), [d.rv for d in days[1:]],
                                  train_size=100, horizons=[1, 2], refit_every=64, asset="data")
        body = "asset,model,horizon,metric,value,n,winner\n" + "".join(
            f"{r.asset},{r.model},{r.horizon},{m},{float(getattr(r, m))!r},{r.n},{int(m in r.wins)}\n"
            for r in sorted(reports, key=lambda r: (r.asset, r.horizon, r.model))
            for m in ("r2", "qlike", "hmse")
        )
        meta = meta_text(
            command="backtest", version=__version__, bars=str(bars_csv), orders="1,1,1",
            horizons="1,2", refit_every=64, init="mean", insample=False, asset="data",
            train_size=100, n=139, baseline_returns="interval centers (no intraday closes in input)",
            skipped_refits=0,
        )
        assert out.read_text() == meta + body
        assert capsys.readouterr().out == body

    def test_table1(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        assert run("table1", "--designs", "III", "--reps", "2", "--T", "300", "--seed", "11",
                   "--format", "csv", "--out", str(out)) == 0
        cells = simulation_study({"III": BENCHMARK_DESIGNS["III"]}, replications=2, length=300, seed=11)
        body = "design,param,true,mean_est,mae,empirical_se,mean_model_se,n_fits,n_converged\n" + "".join(
            f"{c.design},{c.param},{c.true!r},{c.mean_est!r},{c.mae!r},{c.empirical_se!r},"
            f"{'' if c.mean_model_se is None else repr(c.mean_model_se)},{c.n_fits},{c.n_converged}\n"
            for c in cells
        )
        meta = meta_text(command="table1", version=__version__, designs="III", reps=2, T=300,
                         jobs=1, seed=11)
        assert out.read_text() == meta + body
        assert capsys.readouterr().out == body


class TestFit:
    def test_fit_outputs(self, fit_dir, capsys):
        doc = json.loads((fit_dir / "fit.json").read_text())
        assert doc["converged"] is True
        assert doc["model"]["orders"] == [1, 1, 1]
        assert 1.0 < doc["model"]["k"] < 3.0
        summary = (fit_dir / "summary.txt").read_text()
        assert "log-likelihood" in summary and "std error" in summary

    def test_eigen_failure_exits_three(self, workdir, tmp_path, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert run("fit", "--data", str(workdir / "train.csv"),
                   "--out", str(tmp_path / "fit.json")) == 3
        assert "eigen-decomposition of the Hessian failed" in capsys.readouterr().err

    def test_fit_json_is_loadable(self, fit_dir):
        fitted = FittedModel.from_dict(json.loads((fit_dir / "fit.json").read_text()))
        assert fitted.converged
        assert fitted.params.orders == ModelOrders(1, 1, 1)

    def test_nonconvergence_exits_four(self, fit_dir, tmp_path, monkeypatch, capsys):
        fitted = FittedModel.from_dict(json.loads((fit_dir / "fit.json").read_text()))
        stub = dataclasses.replace(fitted, stop_reason="iteration cap")
        monkeypatch.setattr(cli, "fit_mle", lambda *a, **k: stub)
        out = tmp_path / "nc.json"
        assert run("fit", "--data", str(fit_dir / "train.csv"), "--out", str(out)) == 4
        assert "fit did not converge: iteration cap\n" in capsys.readouterr().err
        assert out.exists()  # the fit is still written for inspection

    def test_missing_data_file(self, tmp_path, capsys):
        assert run("fit", "--data", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "f.json")) == 2
        assert "cannot read" in capsys.readouterr().err


class TestForecast:
    def test_forecast_csv(self, fit_dir, tmp_path):
        out = tmp_path / "fc.csv"
        assert run("forecast", "--model", str(fit_dir / "model.json"),
                   "--data", str(fit_dir / "train.csv"),
                   "--horizon", "5", "--out", str(out)) == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(data_rows(out)))))
        assert [r["step"] for r in rows] == ["1", "2", "3", "4", "5"]
        scale = 1.0 + MODEL_I.k / 3.0
        for r in rows:
            assert float(r["sigma2"]) == pytest.approx(scale * float(r["h_hat"]) ** 2, rel=1e-12)
        assert "# origin_index = 599" in out.read_text()

    def test_forecast_accepts_fit_document(self, fit_dir, capsys):
        assert run("forecast", "--model", str(fit_dir / "fit.json"),
                   "--data", str(fit_dir / "train.csv"), "--horizon", "3") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "step,h_hat,sigma2"
        assert len(lines) == 4

    def test_fit_document_keeps_its_init_mode(self, workdir, tmp_path, capsys):
        fit_path = tmp_path / "fit_zero.json"
        data = str(workdir / "train.csv")
        assert run("fit", "--data", data, "--init", "zero", "--out", str(fit_path)) == 0
        outputs = []
        for init in ("zero", "mean"):
            capsys.readouterr()
            assert run("forecast", "--model", str(fit_path), "--data", data,
                       "--horizon", "2", "--origin", "0", "--init", init) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        fitted = FittedModel.from_dict(json.loads(fit_path.read_text()))
        series = load_csv(data, "intervals")
        want = forecast(fitted.params, series, 2, origin_index=0, init_mode=InitMode.ZERO_H)
        got = [float(line.split(",")[1]) for line in outputs[0].splitlines()[1:]]
        assert got == [float(x) for x in want.h_hat]

    def test_overflowing_forecast_exits_three(self, tmp_path, capsys):
        # k * beta1 = 0.75: a radius near the float maximum at 254 overflows
        # the forecast from there (and the log-likelihood of the h path the
        # forecast rebuilds, to -inf); 8e307, not 1e308, so that the file's
        # high - low stays finite
        model = ModelParams.first_order(k=0.3, mu=0.05, alpha1=0.05, beta1=2.5, gamma1=0.1)
        s, _ = simulate(SimConfig(model, length=256, seed=24, burn_in=100))
        radii = s.radii.copy()
        radii[254] = 8e307
        dates = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(len(s))]
        save_intervals_csv(IntervalSeries(s.centers, radii, dates), tmp_path / "x.csv")
        (tmp_path / "m.json").write_text(json.dumps(model.to_dict(), indent=2))
        args = ("forecast", "--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "x.csv"),
                "--horizon", "1", "--origin")
        assert run(*args, "253") == 0
        capsys.readouterr()
        assert run(*args, "254") == 3
        assert capsys.readouterr().err == "error: numerical overflow in the forecast from origin 254\n"

    def test_bad_horizon(self, fit_dir, capsys):
        assert run("forecast", "--model", str(fit_dir / "model.json"),
                   "--data", str(fit_dir / "train.csv"), "--horizon", "0") == 2
        assert "horizon must be >= 1" in capsys.readouterr().err


class TestAcf:
    def test_lag_zero_is_one(self, fit_dir, capsys):
        assert run("acf", "--data", str(fit_dir / "train.csv"), "--max-lag", "3",
                   "--model", str(fit_dir / "model.json")) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lag,sample_acf,theoretical_acf"
        assert len(lines) == 5
        lag0 = lines[1].split(",")
        assert float(lag0[1]) == 1.0 and float(lag0[2]) == 1.0

    def test_sample_only_without_model(self, fit_dir, capsys):
        assert run("acf", "--data", str(fit_dir / "train.csv"), "--max-lag", "2") == 0
        assert capsys.readouterr().out.splitlines()[0] == "lag,sample_acf"

    @pytest.mark.parametrize("model, message", [
        # mean stationary (weight sum 0.556), but of higher order
        (ModelParams(ModelOrders(2, 1, 1), 1.5, 0.05, (0.05, 0.02), (0.2,), (0.2,)),
         "closed-form autocovariances need a first-order model, got orders (2,1,1)"),
        # mean stationary (c1 = 0.64), but c2 = 2.91
        (ModelParams.first_order(k=0.1, mu=0.05, alpha1=0.05, beta1=5.0, gamma1=0.1),
         "second moments do not exist: c2 = 2.91"),
    ], ids=["higher-order", "c2-past-one"])
    def test_model_without_autocovariances_names_the_cause(self, fit_dir, tmp_path, capsys, model, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model.to_dict(), indent=2))
        out = tmp_path / "acf.csv"
        assert run("acf", "--data", str(fit_dir / "train.csv"), "--max-lag", "3",
                   "--model", str(path), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert "nonstationary" not in captured.err and not out.exists()


class TestPrepare:
    def test_pipeline_drops_bad_quotes(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        ticks = []
        for d in range(3):
            day = dt.datetime(2024, 3, 4 + d, 9, 30)
            mid = 100.0 + d
            for m in range(0, 391, 5):
                mid += rng.normal(scale=0.05)
                ticks.append(QuoteTick(day + dt.timedelta(minutes=m),
                                       bid=round(mid - 0.01, 4), ask=round(mid + 0.01, 4)))
            if d == 0:
                # crossed quote inside the first day, in time order
                ticks.append(QuoteTick(day + dt.timedelta(minutes=391), bid=101.0, ask=100.0))
        tick_path = tmp_path / "ticks.csv"
        save_ticks_csv(ticks, tick_path)
        iv, bars = tmp_path / "iv.csv", tmp_path / "bars.csv"
        assert run("prepare", "--ticks", str(tick_path), "--grid-minutes", "30",
                   "--out-intervals", str(iv), "--out-bars", str(bars)) == 0
        out = capsys.readouterr().out
        assert "ticks in 238, after cleaning 237" in out
        assert "dropped by rules 1-4: 0, 1, 0, 0" in out
        assert len(data_rows(iv)) == 1 + 2  # header + one return per day pair
        bar_rows = data_rows(bars)
        assert bar_rows[0] == "date,min_log,max_log,rv,close_log"
        assert len(bar_rows) == 1 + 3
        assert "# ticks_clean = 237" in bars.read_text()
        for rule, n in [(1, 0), (2, 1), (3, 0), (4, 0)]:
            assert f"# dropped_rule{rule} = {n}" in iv.read_text()


    def test_offset_timestamps_exit_two_naming_the_line(self, tmp_path, capsys):
        tick_path = tmp_path / "ticks.csv"
        tick_path.write_text(
            "timestamp,bid,ask\n"
            "2024-03-04T10:00:00,99.99,100.01\n"
            "2024-03-04T10:05:00+00:00,99.98,100.02\n"
            "2024-03-04T10:10:00,99.97,100.03\n"
        )
        assert run("prepare", "--ticks", str(tick_path),
                   "--out-intervals", str(tmp_path / "iv.csv")) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "UTC offset" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row", ["99.98,100.02,0", "-5,-4.9,", "99.98,100.02,nan", "99.98,inf,"])
    def test_bad_prices_exit_two_naming_the_line(self, tmp_path, capsys, row):
        tick_path = tmp_path / "ticks.csv"
        tick_path.write_text(
            "timestamp,bid,ask,price\n"
            "2024-03-04T10:00:00,99.99,100.01,\n"
            f"2024-03-04T10:05:00,{row}\n"
            "2024-03-04T10:10:00,99.97,100.03,\n"
        )
        assert run("prepare", "--ticks", str(tick_path),
                   "--out-intervals", str(tmp_path / "iv.csv")) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "finite and positive" in err
        assert "Traceback" not in err


class TestOutputErrors:
    """An unwritable output path exits 2 naming it, for every command."""

    @pytest.fixture
    def argv(self, fit_dir, bars_csv, tmp_path):
        data, model = str(fit_dir / "train.csv"), str(fit_dir / "model.json")
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("timestamp,bid,ask\n" + "".join(
            f"2024-03-0{d}T{9 + m // 60:02d}:{m % 60:02d}:00,99.99,100.01\n"
            for d in (4, 5) for m in range(30, 400, 30)
        ))
        return {
            "simulate": ["--model", model, "--T", "50", "--seed", "1", "--out"],
            "fit": ["--data", data, "--out"],
            "forecast": ["--model", model, "--data", data, "--horizon", "2", "--out"],
            "acf": ["--data", data, "--out"],
            "prepare": ["--ticks", str(ticks), "--grid-minutes", "30", "--out-intervals"],
            "backtest": ["--bars", str(bars_csv), "--train", "130", "--horizons", "1",
                         "--refit-every", "64", "--out"],
            "table1": ["--designs", "III", "--reps", "2", "--T", "100", "--seed", "1", "--out"],
        }

    @pytest.mark.parametrize("command", ["simulate", "fit", "forecast", "acf", "prepare", "backtest", "table1"])
    def test_unwritable_output_exits_two(self, argv, command, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "out"
        assert run(command, *argv[command], str(target)) == 2
        err = capsys.readouterr().err
        assert f"cannot write {target}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, work", [
        ("fit", "fit_mle"), ("backtest", "run_backtest"), ("table1", "simulation_study"), ("prepare", "load_csv"),
    ])
    def test_unwritable_output_is_refused_before_the_work(self, argv, command, work, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output path was checked")

        monkeypatch.setattr(cli, work, refuse)
        target = tmp_path / "no_such_dir" / "out"
        assert run(command, *argv[command], str(target)) == 2
        assert f"cannot write {target}: [Errno 2] No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--h-out"), ("fit", "--summary-out"), ("prepare", "--out-bars"),
    ])
    def test_unwritable_second_output_exits_two_and_writes_nothing(self, argv, command, flag, tmp_path, capsys):
        first, target = tmp_path / "first.out", tmp_path / "no_such_dir" / "second.out"
        assert run(command, *argv[command], str(first), flag, str(target)) == 2
        assert f"cannot write {target}" in capsys.readouterr().err
        assert not first.exists()

    @pytest.mark.parametrize("command, first, spelled, second", [
        ("fit", "--data", "same", "--out"),
        ("prepare", "--ticks", "same", "--out-intervals"),
        ("simulate", "--out", "same", "--h-out"),
        ("fit", "--out", "same", "--summary-out"),
        ("fit", "--out", "./same", "--summary-out"),
    ])
    def test_output_naming_an_input_or_another_output_exits_two(
            self, fit_dir, command, first, spelled, second, tmp_path, monkeypatch, capsys):
        # "same" holds an input, or a file an output would overwrite: its
        # bytes stay as they were, whichever spelling names it
        ticks = "".join(f"2024-03-0{d}T{9 + m // 60:02d}:{m % 60:02d}:00,99.99,100.01\n"
                        for d in (4, 5) for m in range(30, 400, 30))
        before = ("timestamp,bid,ask\n" + ticks).encode() if command == "prepare" else (
            fit_dir / "train.csv").read_bytes()
        (tmp_path / "same").write_bytes(before)
        monkeypatch.chdir(tmp_path)
        given = {"fit": ["--data", str(fit_dir / "train.csv")], "prepare": ["--grid-minutes", "30"],
                 "simulate": ["--model", str(fit_dir / "model.json"), "--T", "50", "--seed", "1"]}[command]
        assert run(command, *given, first, spelled, second, "same") == 2
        message = f"{first} and {second} name the same file {tmp_path.resolve() / 'same'}"
        assert message in capsys.readouterr().err
        assert (tmp_path / "same").read_bytes() == before

    def test_bad_start_date_exits_two(self, workdir, tmp_path, capsys):
        assert run("simulate", "--model", str(workdir / "model.json"), "--T", "50",
                   "--start-date", "2020-13-01", "--out", str(tmp_path / "s.csv")) == 2
        assert "unparsable date '2020-13-01'" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


def walk_paths():
    """140 (date, 20 grid log prices) pairs, a random walk of 1% per step."""
    rng = np.random.default_rng(5)
    paths, level = [], 4.6
    for i in range(140):
        path = level + np.cumsum(rng.normal(scale=0.01, size=20))
        paths.append((dt.date(2023, 1, 2) + dt.timedelta(days=i), path))
        level = float(path[-1])
    return paths


def walk_days():
    return [make_day_bars(date, path) for date, path in walk_paths()]


@pytest.fixture(scope="module")
def bars_csv(tmp_path_factory):
    """walk_days as compact bars without closes (date,min_log,max_log,rv):
    the baseline falls back to interval centers."""
    path = tmp_path_factory.mktemp("bars") / "bars.csv"
    save_bars_csv([day_bars_from_range(d.date, d.min_log, d.max_log, d.rv) for d in walk_days()], path)
    return path


@pytest.fixture(scope="module")
def closes_csv(tmp_path_factory):
    """walk_days as compact bars with each day's close_log."""
    path = tmp_path_factory.mktemp("closes") / "bars.csv"
    save_bars_csv(walk_days(), path)
    return path


@pytest.fixture(scope="module")
def prices_csv(tmp_path_factory):
    """140 weekdays of 12 half-hourly prices: a random walk with 0.3% per
    step, on which the baseline fit ends at a = 0."""
    rng = np.random.default_rng(3)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(scale=0.003, size=140 * 12)))
    times = [f"{9 + (30 + 30 * j) // 60:02d}:{(30 + 30 * j) % 60:02d}" for j in range(12)]
    weekdays = (dt.date(2023, 1, 2) + dt.timedelta(days=i) for i in range(200))
    dates = [d for d in weekdays if d.weekday() < 5][:140]
    lines = [f"{d},{t},{float(p)!r}" for (d, t), p in zip(((d, t) for d in dates for t in times), prices)]
    path = tmp_path_factory.mktemp("prices") / "prices.csv"
    path.write_text("date,time,price\n" + "\n".join(lines) + "\n")
    return path


class TestBacktest:
    def test_constant_baseline_forecasts_keep_the_report(self, prices_csv, tmp_path, capsys):
        # the baseline's flat variance path makes every forecast equal, so
        # its R² is undefined; the rest of the report is still written
        out = tmp_path / "bt.csv"
        assert run("backtest", "--bars", str(prices_csv), "--train", "100", "--horizons", "1,2",
                   "--refit-every", "64", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert "R² undefined for garch11 at horizon 1" in err
        assert "R² undefined for garch11 at horizon 2" in err
        rows = list(csv.DictReader(io.StringIO("\n".join(data_rows(out)))))
        assert len(rows) == 2 * 2 * 3
        r2 = {(r["model"], r["horizon"]): float(r["value"]) for r in rows if r["metric"] == "r2"}
        assert math.isnan(r2["garch11", "1"]) and math.isnan(r2["garch11", "2"])
        assert not math.isnan(r2["intgarch", "1"]) and not math.isnan(r2["intgarch", "2"])
        assert all(r["winner"] == "0" for r in rows if r["metric"] == "r2")

    def test_text_report_and_csv_out(self, bars_csv, tmp_path, capsys):
        out = tmp_path / "bt.csv"
        assert run("backtest", "--bars", str(bars_csv), "--train", "100",
                   "--horizons", "1", "--refit-every", "64", "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert "baseline uses interval centers" in captured.err
        header = captured.out.splitlines()[0].split()
        assert header == ["asset", "model", "horizon", "n", "r2", "qlike", "hmse"]
        assert "*" in captured.out  # some metric has a winner
        text = out.read_text()
        assert "# train_size = 100" in text and "# n = 139" in text
        rows = list(csv.DictReader(io.StringIO("\n".join(data_rows(out)))))
        assert {r["model"] for r in rows} == {"intgarch", "garch11"}
        assert all(r["n"] == "39" for r in rows)  # 139 - 100 - 1 + 1

    def test_compact_closes_give_close_to_close_returns(self, closes_csv, tmp_path, capsys):
        out = tmp_path / "bt.csv"
        assert run("backtest", "--bars", str(closes_csv), "--train", "100", "--horizons", "1,2",
                   "--refit-every", "64", "--format", "csv", "--out", str(out)) == 0
        assert "bars carry no intraday prices" not in capsys.readouterr().err
        days = walk_days()
        assert load_csv(closes_csv, "daily_bars") == days
        # the baseline's returns are the differences of each day's last grid log price
        reports, _ = run_backtest(interval_returns(days), [d.rv for d in days[1:]], train_size=100,
                                  horizons=[1, 2], refit_every=64, asset="data",
                                  scalar_returns=np.diff([path[-1] for _, path in walk_paths()]))
        meta, body = split_meta(out.read_text())
        assert "# baseline_returns = close-to-close\n" in meta
        assert body == "".join(line + "\n" for line in _csv_lines(*_report_rows(reports)))

    def test_prepare_then_backtest_gives_close_to_close_returns(self, tmp_path, capsys):
        # the quick start's tick file: 120 weekdays of 160 quotes 150 s apart
        rng = np.random.default_rng(0)
        days = [d for d in (dt.date(2024, 1, 1) + dt.timedelta(i) for i in range(200)) if d.weekday() < 5][:120]
        mid = 100.0 * np.exp(np.cumsum(rng.normal(scale=0.001, size=(120, 160))))
        ticks = tmp_path / "ticks.csv"
        save_ticks_csv([QuoteTick(dt.datetime.combine(day, dt.time(9, 30)) + dt.timedelta(seconds=150 * j),
                                  bid=float(mid[i * 160 + j] - 0.01), ask=float(mid[i * 160 + j] + 0.01))
                        for i, day in enumerate(days) for j in range(160)], ticks)
        bars, iv = tmp_path / "bars.csv", tmp_path / "returns.csv"
        assert run("prepare", "--ticks", str(ticks), "--out-intervals", str(iv), "--out-bars", str(bars)) == 0
        # the bars file holds the prepared days, record for record
        assert load_csv(bars, "daily_bars") == resample_to_grid(clean_quotes(load_csv(ticks, "ticks")))
        assert run("backtest", "--bars", str(bars), "--train", "0.8", "--horizons", "1,2,5", "--insample",
                   "--out", str(tmp_path / "bt.csv")) == 0
        assert "bars carry no intraday prices" not in capsys.readouterr().err
        assert "# baseline_returns = close-to-close\n" in (tmp_path / "bt.csv").read_text()

    def test_unconverged_baseline_refits_counted(self, bars_csv, monkeypatch, capsys):
        from intgarch import evaluate

        real = evaluate.fit_garch11
        monkeypatch.setattr(
            evaluate, "fit_garch11",
            lambda r, start=None: dataclasses.replace(
                real(r, start=start), stop_reason="iteration cap"),
        )
        assert run("backtest", "--bars", str(bars_csv), "--train", "100",
                   "--horizons", "1", "--refit-every", "16") == 0
        # origins 99..138 refit at 99, 115 and 131
        assert "unconverged baseline refits: 3 (iteration cap: 3)\n" in capsys.readouterr().err

    def test_unconverged_interval_refits_counted(self, bars_csv, monkeypatch, capsys):
        forecast_module = importlib.import_module("intgarch.forecast")
        real = forecast_module.fit_mle
        monkeypatch.setattr(
            forecast_module, "fit_mle",
            lambda *args, **kw: dataclasses.replace(
                real(*args, **kw),
                stop_reason="no uphill step" if len(args[0]) == 116 else "iteration cap"),
        )
        assert run("backtest", "--bars", str(bars_csv), "--train", "100",
                   "--horizons", "1", "--refit-every", "16") == 0
        # origins 99..138 refit at 99, 115 and 131
        assert ("unconverged interval-model refits: 3 (iteration cap: 2, no uphill step: 1)\n"
                in capsys.readouterr().err)

    def test_unconverged_insample_fits_printed(self, bars_csv, monkeypatch, capsys):
        from intgarch import evaluate

        # the in-sample fits are the only ones on all 139 intervals
        real_fit, real_garch = evaluate.fit_mle, evaluate.fit_garch11

        def garch(r, start=None):
            fit = real_garch(r, start=start)
            return fit if len(r) < 139 else dataclasses.replace(
                fit, stop_reason="no uphill step")

        monkeypatch.setattr(
            evaluate, "fit_mle",
            lambda *args, **kw: dataclasses.replace(
                real_fit(*args, **kw), stop_reason="iteration cap"),
        )
        monkeypatch.setattr(evaluate, "fit_garch11", garch)
        argv = ["backtest", "--bars", str(bars_csv), "--train", "100", "--horizons", "1",
                "--refit-every", "64", "--insample"]
        assert run(*argv) == 0
        err = capsys.readouterr().err
        assert "unconverged interval-model in-sample fits: 1 (iteration cap: 1)\n" in err
        assert "unconverged baseline in-sample fits: 1 (no uphill step: 1)\n" in err
        assert "refits" not in err
        monkeypatch.undo()
        assert run(*argv) == 0
        assert "in-sample" not in capsys.readouterr().err

    def test_failed_refits_and_overflowed_forecasts_counted_apart(
        self, bars_csv, tmp_path, monkeypatch, capsys
    ):
        forecast_module = importlib.import_module("intgarch.forecast")
        real_fit, real_forecast = forecast_module.fit_mle, forecast_module.forecast

        def fit(sample, *args, **kw):
            if len(sample) == 116:
                raise NumericalError("forced failure")
            return real_fit(sample, *args, **kw)

        def forecast(*args, origin_index, **kw):
            if origin_index in (120, 121):
                raise NumericalError(f"numerical overflow in the forecast from origin {origin_index}")
            return real_forecast(*args, origin_index=origin_index, **kw)

        monkeypatch.setattr(forecast_module, "fit_mle", fit)
        monkeypatch.setattr(forecast_module, "forecast", forecast)
        out = tmp_path / "bt.csv"
        assert run("backtest", "--bars", str(bars_csv), "--train", "100", "--horizons", "1",
                   "--refit-every", "16", "--out", str(out)) == 0
        # origins 99..138 refit at 99, 115 and 131; the refit at 115 fails
        err = capsys.readouterr().err
        assert "failed interval-model refits: 1\n" in err
        assert "overflowed interval-model forecasts: 2\n" in err
        assert "skipped refits" not in err
        assert "# skipped_refits = 3" in out.read_text()

    def test_failed_baseline_refits_counted(self, bars_csv, tmp_path, monkeypatch, capsys):
        from intgarch import evaluate

        real, calls = evaluate.fit_garch11, []

        def fit(r, start=None):
            calls.append(len(r))
            if len(calls) == 2:
                raise NumericalError("forced failure")
            return real(r, start=start)

        monkeypatch.setattr(evaluate, "fit_garch11", fit)
        out = tmp_path / "bt.csv"
        assert run("backtest", "--bars", str(bars_csv), "--train", "100", "--horizons", "1",
                   "--refit-every", "16", "--init", "zero", "--out", str(out)) == 0
        # origins 99..138 refit at 99, 115 and 131; the baseline refit at 115 fails
        assert calls == [100, 116, 132]
        err = capsys.readouterr().err
        assert "failed baseline refits: 1\n" in err
        assert "interval-model" not in err
        assert "# init = zero\n" in out.read_text()

    def test_closes_whose_baseline_variances_overflow(self, tmp_path, capsys):
        # closes near 1e150: the baseline's squared variances overflow in its
        # score, and Newton refuses those steps with no numpy warning
        close = np.cumsum(np.random.default_rng(0).normal(size=80)) * 1e150
        bars = tmp_path / "bars.csv"
        save_bars_csv([DayBars(dt.date(2023, 1, 2) + dt.timedelta(i), x - 1e149, x + 1e149, 4e298, x)
                       for i, x in enumerate(close)], bars)
        assert run("backtest", "--bars", str(bars), "--train", "60", "--horizons", "1") == 0
        out = capsys.readouterr().out
        assert "garch11   1" in out and "intgarch  1" in out

    def test_fractional_train_split(self, bars_csv, tmp_path, capsys):
        out = tmp_path / "bt.csv"
        assert run("backtest", "--bars", str(bars_csv), "--train", "0.8", "--horizons", "1",
                   "--refit-every", "64", "--format", "csv", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert split_meta(out.read_text())[1] == printed  # the same table as printed
        rows = list(csv.DictReader(io.StringIO(printed)))
        # train = round(0.8 * 139) = 111 -> 139 - 111 - 1 + 1 evaluable
        assert all(r["n"] == "28" for r in rows)

    def test_train_must_split(self, bars_csv, capsys):
        assert run("backtest", "--bars", str(bars_csv), "--train", "200") == 2
        assert capsys.readouterr().err.endswith(
            f"error: {bars_csv}: train_size must split the series: 0 < train_size < length\n")

    @pytest.mark.parametrize("train", ["nan", "inf"])
    def test_non_finite_train_exits_two(self, bars_csv, capsys, train):
        assert run("backtest", "--bars", str(bars_csv), "--train", train) == 2
        err = capsys.readouterr().err
        assert "--train must be finite" in err and "Traceback" not in err

    def test_non_finite_train_from_config_exits_two(self, bars_csv, tmp_path, capsys):
        cfg = tmp_path / "bt.cfg"
        cfg.write_text("train = nan\n")
        assert run("backtest", "--config", str(cfg), "--bars", str(bars_csv)) == 2
        assert "--train must be finite" in capsys.readouterr().err

    def test_hmse_separates_from_minus_one(self, prices_csv, tmp_path, capsys):
        # rv is a variance of about 1e-4 here; squared, rv²/σ² was about
        # 1e-4 and every HMSE read -0.9999
        out = tmp_path / "bt.csv"
        assert run("backtest", "--bars", str(prices_csv), "--train", "100", "--horizons", "1,2",
                   "--refit-every", "64", "--out", str(out)) == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(data_rows(out)))))
        hmse = {(r["model"], r["horizon"]): float(r["value"]) for r in rows if r["metric"] == "hmse"}
        assert len(hmse) == 4
        assert all(abs(v + 1.0) > 0.5 for v in hmse.values()), hmse

    def test_asset_with_a_comma_is_quoted(self, bars_csv, tmp_path, capsys):
        out = tmp_path / "bt.csv"
        assert run("backtest", "--bars", str(bars_csv), "--train", "100", "--horizons", "1",
                   "--refit-every", "64", "--asset", "a,b", "--format", "csv", "--out", str(out)) == 0
        for text in (capsys.readouterr().out, split_meta(out.read_text())[1]):
            header, *rows = list(csv.reader(io.StringIO(text)))
            assert len(header) == 7 and len(rows) == 2 * 3
            assert all(len(row) == 7 and row[0] == "a,b" for row in rows)


class TestUnreadableCsv:
    """A row csv cannot read exits 2 naming the file and the line the row
    starts on, as does a bad row after a quoted line break, for the
    interval, tick and bar readers of the CLI."""

    # an unmatched quote, then more text than csv's 128 KiB field limit
    RUN_ON = '"' + "x" * 140_000 + "\n"

    def run_on(self, tmp_path, reader, text):
        bad, out = tmp_path / "bad.csv", str(tmp_path / "out")
        bad.write_text(text)
        argv = {"intervals": ["fit", "--data", str(bad), "--out", out],
                "ticks": ["prepare", "--ticks", str(bad), "--out-intervals", out],
                "bars": ["backtest", "--bars", str(bad), "--train", "100", "--out", out]}[reader]
        return bad, run(*argv)

    @pytest.mark.parametrize("reader, text, line", [
        ("intervals", "date,low,high\n2020-01-01,-1.0,1.0\n2020-01-02," + RUN_ON, 3),
        ("intervals", "# a comment\n" + RUN_ON, 2),  # in the header
        ("ticks", "timestamp,bid,ask\n2024-03-04T10:00:00,99.99,100.01\n2024-03-04T10:01:00," + RUN_ON, 3),
        ("bars", "date,min_log,max_log,rv\n" + RUN_ON, 2),
    ], ids=["intervals", "header", "ticks", "bars"])
    def test_field_past_the_limit(self, tmp_path, capsys, reader, text, line):
        bad, code = self.run_on(tmp_path, reader, text)
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{bad} line {line}: field larger than field limit" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reader, text", [
        ("intervals", 'date,low,high\n"2020-01-01\n",-1.0,1.0\n2020-01-02,1.0\n'),
        ("ticks", 'timestamp,bid,ask\n"2024-03-04T10:00:00\n",99.99,100.01\n2024-03-04T10:01:00,99.99\n'),
    ], ids=["intervals", "ticks"])
    def test_row_after_a_quoted_line_break(self, tmp_path, capsys, reader, text):
        # the quoted first cell spans lines 2-3, and the short row is line 4
        bad, code = self.run_on(tmp_path, reader, text)
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {bad} line 4: expected 3 columns, got 2" in err and "Traceback" not in err


class TestTable1:
    def test_single_design_csv(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        assert run("table1", "--designs", "III", "--reps", "2", "--T", "300",
                   "--seed", "11", "--format", "csv", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert split_meta(out.read_text())[1] == printed  # the same table as printed
        rows = list(csv.DictReader(io.StringIO(printed)))
        assert [r["param"] for r in rows] == ["k", "mu", "alpha1", "beta1"]
        assert all(r["design"] == "III" for r in rows)
        assert "# seed = 11" in out.read_text()

    def test_unknown_design(self, capsys):
        assert run("table1", "--designs", "V", "--reps", "2", "--T", "300") == 2
        assert "unknown designs" in capsys.readouterr().err

    @pytest.mark.parametrize("designs", [",", " , ", ""])
    def test_no_designs_exit_two(self, designs, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        assert run("table1", "--designs", designs, "--reps", "2", "--T", "100", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "no designs given" in err and "Traceback" not in err
        assert not out.exists()

    def test_repeated_design_exit_two(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        assert run("table1", "--designs", "III,I,III", "--reps", "2", "--T", "100", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "--designs names III more than once" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_two(self, jobs, capsys):
        assert run("table1", "--designs", "III", "--reps", "2", "--T", "100", "--jobs", jobs) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err


class TestBadInput:
    """Each bad input exits 2 with its message and no traceback, and
    writes no output."""

    def exits_two(self, capsys, argv, message):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def simulate_argv(self, workdir, tmp_path, *flags):
        return ["simulate", "--model", str(workdir / "model.json"), "--T", "50",
                *flags, "--out", str(tmp_path / "s.csv")]

    def test_negative_seed(self, workdir, tmp_path, capsys):
        self.exits_two(capsys, self.simulate_argv(workdir, tmp_path, "--seed", "-1"),
                       "seed must be a nonnegative integer, got -1")
        self.exits_two(capsys, ["table1", "--reps", "2", "--T", "100", "--seed", "-3",
                                "--out", str(tmp_path / "t1.csv")],
                       "seed must be a nonnegative integer, got -3")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -5}))
        self.exits_two(capsys, self.simulate_argv(workdir, tmp_path, "--config", str(cfg)),
                       "seed must be a nonnegative integer, got -5")
        assert not (tmp_path / "s.csv").exists() and not (tmp_path / "t1.csv").exists()

    def test_start_date_past_the_calendar(self, workdir, tmp_path, capsys):
        self.exits_two(capsys, self.simulate_argv(workdir, tmp_path, "--start-date", "9999-12-30"),
                       "--start-date 9999-12-30: 50 weekdays from it run past 9999-12-31")
        assert not (tmp_path / "s.csv").exists()

    def test_start_date_whose_weekdays_end_on_the_last_day(self, workdir, tmp_path):
        # Monday 9999-12-27 to Friday 9999-12-31
        out = tmp_path / "s.csv"
        assert run("simulate", "--model", str(workdir / "model.json"), "--T", "5", "--seed", "1",
                   "--start-date", "9999-12-27", "--out", str(out)) == 0
        assert [row.split(",")[0] for row in data_rows(out)[1:]] == [
            f"9999-12-{d}" for d in range(27, 32)]

    @pytest.mark.parametrize("orders, message", [
        ("1,1,1,1", "orders must be 'p,q' or 'p,q,w', got '1,1,1,1'"),
        ("1,x,1", "orders must be integers, got '1,x,1'"),
        ("1,1,-1", "orders '1,1,-1': order w must be >= 0"),
    ])
    def test_bad_orders(self, workdir, tmp_path, capsys, orders, message):
        self.exits_two(capsys, ["fit", "--data", str(workdir / "train.csv"), "--orders", orders,
                                "--out", str(tmp_path / "f.json")], message)
        assert not (tmp_path / "f.json").exists()

    def test_two_part_orders_fit_without_w(self, workdir, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert run("fit", "--data", str(workdir / "train.csv"), "--orders", "1,1",
                   "--out", str(out)) == 0
        assert FittedModel.from_dict(json.loads(out.read_text())).params.orders == ModelOrders(1, 1, 0)

    def test_bad_horizons(self, bars_csv, capsys):
        self.exits_two(capsys, ["backtest", "--bars", str(bars_csv), "--train", "100",
                                "--horizons", "1,x"], "horizons must be integers, got '1,x'")

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read {}"),
        ('{"orders": [1, 1, 1],', "{}: invalid JSON"),
        ("[1, 1, 1]", "{}: expected a JSON object"),
        ('{"k": 1.5}', "{}: neither a parameter nor a fit document"),
        ('{"model": {}}', "{}: malformed fit document: 'converged'"),
        ('{"orders": [1, 1]}', "{}: malformed model document: "),
    ], ids=["missing", "invalid", "not-an-object", "neither", "malformed-fit", "malformed-parameters"])
    def test_bad_model_document(self, tmp_path, capsys, text, message):
        model = tmp_path / "model.json"
        if text is not None:
            model.write_text(text)
        self.exits_two(capsys, ["simulate", "--model", str(model), "--T", "50",
                                "--out", str(tmp_path / "s.csv")], message.format(model))
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read {}: "),
        ('{"T": 50,', "{}: invalid JSON"),
        ("T = 50\nseed 4\n", "{} line 2: expected key=value"),
        ("[1]", "{} line 1: expected key=value"),
        ("T = 50\nbogus = 1\n", "{}: unknown config key 'bogus' for command 'simulate'"),
    ], ids=["missing", "invalid-json", "no-equals", "json-array", "unknown-key"])
    def test_bad_config_file(self, workdir, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.txt"
        if text is not None:
            cfg.write_text(text)
        self.exits_two(capsys, self.simulate_argv(workdir, tmp_path, "--config", str(cfg)), message.format(cfg))
        assert not (tmp_path / "s.csv").exists()

    def test_refused_orders_from_a_config_are_quoted(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"orders": "1,1,-1"}))
        self.exits_two(capsys, ["fit", "--config", str(cfg), "--data", str(workdir / "train.csv"),
                                "--out", str(tmp_path / "f.json")],
                       f"error: {cfg}: config key 'orders': orders '1,1,-1': order w must be >= 0\n")

    @pytest.mark.parametrize("command, key, value, reason", [
        ("fit", "orders", "1,1,-1", "orders '1,1,-1': order w must be >= 0"),
        ("backtest", "horizons", "0,1", "horizons must be integers >= 1"),
        ("backtest", "horizons", "x", "horizons must be integers, got 'x'"),
        ("backtest", "refit-every", "0", "refit_every must be >= 1"),
        ("simulate", "start-date", "2020-13-01", "unparsable date '2020-13-01'"),
        ("prepare", "session-start", "noon", "unparsable time 'noon'"),
        ("prepare", "session-end", "25:00", "unparsable time '25:00'"),
    ], ids=["orders", "horizons-range", "horizons-word", "refit-every", "start-date", "session-start",
            "session-end"])
    def test_refused_value_names_its_config_and_key(self, tmp_path, capsys, command, key, value, reason):
        # from a config the message names the config and the key; as a flag the
        # value is refused before any file is read, so the missing input is not reached
        missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
        argv = {"fit": ["fit", "--data", missing, "--out", out],
                "backtest": ["backtest", "--bars", missing, "--train", "100"],
                "simulate": ["simulate", "--model", missing, "--T", "50", "--out", out],
                "prepare": ["prepare", "--ticks", missing, "--out-intervals", out]}[command]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = {value}\n")
        self.exits_two(capsys, [*argv, "--config", str(cfg)], f"error: {cfg}: config key '{key}': {reason}\n")
        self.exits_two(capsys, [*argv, f"--{key}", value], f"error: {reason}\n")

    def test_flags_missing_after_a_config_name_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"seed = 4\nout = {tmp_path / 's.csv'}\n")
        self.exits_two(capsys, ["simulate", "--config", str(cfg)],
                       f"error: {cfg}: missing required flags: --model, --T\n")

    @pytest.mark.parametrize("command", ["fit", "forecast"])
    def test_out_names_a_directory(self, fit_dir, tmp_path, capsys, command):
        data, model = str(fit_dir / "train.csv"), str(fit_dir / "model.json")
        argv = {"fit": ["fit", "--data", data],
                "forecast": ["forecast", "--model", model, "--data", data, "--horizon", "2"]}[command]
        self.exits_two(capsys, [*argv, "--out", str(tmp_path)], f"cannot write {tmp_path}: [Errno 21]")

    def test_prepare_with_one_usable_day(self, tmp_path, capsys):
        ticks = tmp_path / "ticks.csv"
        ticks.write_text("timestamp,bid,ask\n" + "".join(
            f"2024-03-04T{9 + m // 60:02d}:{m % 60:02d}:00,99.99,100.01\n" for m in range(30, 400, 30)))
        self.exits_two(capsys, ["prepare", "--ticks", str(ticks), "--grid-minutes", "30",
                                "--out-intervals", str(tmp_path / "iv.csv")],
                       f"error: {ticks}: insufficient data: need at least 2 usable days\n")
        assert not (tmp_path / "iv.csv").exists()

    def test_backtest_with_two_days(self, tmp_path, capsys):
        bars = tmp_path / "bars.csv"
        save_bars_csv([make_day_bars(dt.date(2023, 1, 2 + i), 4.6 + 0.01 * np.arange(5.0))
                       for i in range(2)], bars)
        self.exits_two(capsys, ["backtest", "--bars", str(bars), "--train", "1"],
                       f"error: {bars}: insufficient data: need at least 3 days\n")

    def test_rows_whose_squares_overflow(self, tmp_path, capsys):
        # every row is valid, but the squares of centers near 1e200 are not finite:
        # fit's score and forecast's h path overflow (exit 3) and acf's moments do
        # (exit 2, naming the file), with no numpy warning, which the suite's
        # filter makes an error
        rng = np.random.default_rng(0)
        centers, radii = rng.normal(size=60) * 1e200, np.abs(rng.normal(size=60)) * 1e200
        data = tmp_path / "huge.csv"
        save_intervals_csv(IntervalSeries(centers, radii, [dt.date(2024, 1, 1) + dt.timedelta(i)
                                                           for i in range(60)]), data)
        assert run("fit", "--data", str(data), "--out", str(tmp_path / "f.json")) == 3
        assert capsys.readouterr().err == "error: numerical overflow in the score or Hessian\n"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(BENCHMARK_DESIGNS["I"].to_dict()))
        assert run("forecast", "--model", str(model), "--data", str(data), "--horizon", "1") == 3
        assert capsys.readouterr().err == "error: numerical overflow in the forecast from origin 59\n"
        self.exits_two(capsys, ["acf", "--data", str(data)],
                       f"error: {data}: second moments overflow: values too large\n")

    @pytest.mark.parametrize("rows, message", [
        (["-1.0,1.0"] * 39, "insufficient data: need at least 40 observations for orders (1,1,1), got 39"),
        (["0.5,0.5"] * 45, "degenerate radii: k not identified"),
        (["-0.5,0.5"] * 45, "degenerate centers: k not identified"),
    ], ids=["short", "zero-radii", "zero-centers"])
    def test_fit_refusing_the_series_names_the_file(self, tmp_path, capsys, rows, message):
        data = tmp_path / "data.csv"
        data.write_text("date,low,high\n" + "".join(
            f"{dt.date(2024, 1, 1) + dt.timedelta(i)},{row}\n" for i, row in enumerate(rows)))
        self.exits_two(capsys, ["fit", "--data", str(data), "--out", str(tmp_path / "f.json")],
                       f"error: {data}: {message}\n")

    @pytest.mark.parametrize("low, high", [("-1.7e308", "1.7e308"), ("1e308", "1.7e308")],
                             ids=["width", "sum"])
    def test_overflowing_interval_row_names_its_line(self, tmp_path, capsys, low, high):
        # refused by the row check, before numpy can overflow (a RuntimeWarning
        # is an error under the test suite's warning filter)
        data = tmp_path / "data.csv"
        data.write_text(f"date,low,high\n2024-01-02,-1.0,1.0\n2024-01-03,{low},{high}\n")
        self.exits_two(capsys, ["fit", "--data", str(data), "--out", str(tmp_path / "f.json")],
                       f"error: {data} line 3: low {low} and high {high}: their width or sum overflows\n")

    def test_overflowing_bar_ranges_name_the_file(self, tmp_path, capsys):
        # each row is valid; the return between the first two days overflows
        bars = tmp_path / "bars.csv"
        bars.write_text("date,min_log,max_log,rv\n2024-01-02,-1.7e308,1.7e308,0.001\n"
                        "2024-01-03,-1.7e308,1.7e308,0.001\n2024-01-04,4.5,4.6,0.001\n")
        self.exits_two(capsys, ["backtest", "--bars", str(bars), "--train", "1"],
                       f"error: {bars}: interval coordinates must be finite\n")

    def test_intervals_out_of_order_name_their_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("date,low,high\n2024-01-03,-1.0,1.0\n2024-01-02,-1.0,1.0\n")
        self.exits_two(capsys, ["fit", "--data", str(data), "--out", str(tmp_path / "f.json")],
                       f"error: {data} line 3: dates must be strictly increasing, got 2024-01-03 before 2024-01-02\n")

    @pytest.mark.parametrize("layout", ["compact", "long"])
    def test_bar_rows_out_of_order_or_alone_name_their_line(self, tmp_path, capsys, layout):
        bars = tmp_path / "bars.csv"
        if layout == "compact":  # a repeated day
            bars.write_text("date,min_log,max_log,rv\n2024-01-02,4.5,4.6,0.001\n2024-01-03,4.5,4.6,0.001\n"
                            "2024-01-03,4.5,4.6,0.001\n")
            message = "line 4: dates must be strictly increasing, got 2024-01-03 before 2024-01-03"
        else:  # a day of one row
            bars.write_text("date,time,price\n2024-01-02,10:00,100.0\n2024-01-02,11:00,101.0\n"
                            "2024-01-03,10:00,100.0\n")
            message = "line 4: 2024-01-03: insufficient intraday observations"
        self.exits_two(capsys, ["backtest", "--bars", str(bars), "--train", "1"], f"error: {bars} {message}\n")
