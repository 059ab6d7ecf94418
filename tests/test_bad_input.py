"""Generated bad input: seeded mutations of one valid file of each kind.

Each input the command line reads (the interval, tick and bar layouts,
parameter and fit documents, and both config forms) has one valid file
here. A fixed number of seeded mutations of it (byte edits, inserted
tokens, truncations, duplicated, dropped and swapped lines) go through
every subcommand, each reading the mutated file, in process. Each run
must exit 0, 2, 3 or 4 with no traceback. When the file's reader
(load_csv, the model-document reader or the config merge) refuses it, the
run exits 2 with the reader's message, which names the file, and, for a
CSV that holds a data row, the line. A file its reader accepts may still
exit 2 from the command's own checks of what it read as a whole (say, too
few rows for --train, or a config that drops a required key); those
name no file.
"""

import datetime as dt
import json
import random
import re

import numpy as np
import pytest

from intgarch import BENCHMARK_DESIGNS, cli
from intgarch.exceptions import DataError
from intgarch.marketdata import QuoteTick, load_csv, make_day_bars, save_bars_csv, save_ticks_csv

MUTATIONS = 20  # per (file, command) pair
TOKENS = [b'"', b"nan", b"1e309", b"\xff", b"\r\n", b"\n", b",", b"-", b"#", b"0", b""]


def run(*argv):
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse
        return exc.code


def weekdays(n):
    days = (dt.date(2024, 1, 1) + dt.timedelta(i) for i in range(2 * n))
    return [d for d in days if d.weekday() < 5][:n]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """{kind: path} of one valid file of each kind the command line reads."""
    d = tmp_path_factory.mktemp("valid")
    files = {kind: d / name for kind, name in [
        ("params", "model.json"), ("fit", "fit.json"), ("intervals", "intervals.csv"),
        ("quotes", "quotes.csv"), ("prices", "prices.csv"), ("bars", "bars.csv"),
        ("range-bars", "range_bars.csv"), ("long-bars", "long_bars.csv"),
        ("json-config", "fit_config.json"), ("config", "simulate_config.txt"),
        ("table1-config", "table1_config.txt")]}
    files["params"].write_text(json.dumps(BENCHMARK_DESIGNS["I"].to_dict(), indent=2) + "\n")
    assert run("simulate", "--model", files["params"], "--T", 120, "--seed", 3,
               "--out", files["intervals"]) == 0
    assert run("fit", "--data", files["intervals"], "--out", files["fit"]) in (0, 4)

    rng = np.random.default_rng(7)
    stamps = [dt.datetime.combine(day, dt.time(9, 30)) + dt.timedelta(minutes=12 * j)
              for day in weekdays(3) for j in range(30)]
    mid = 100.0 * np.exp(np.cumsum(rng.normal(scale=0.002, size=len(stamps))))
    save_ticks_csv([QuoteTick(t, bid=m - 0.01, ask=m + 0.01) for t, m in zip(stamps, mid.tolist())],
                   files["quotes"])
    save_ticks_csv([QuoteTick(t, price=m) for t, m in zip(stamps, mid.tolist())], files["prices"])

    days = weekdays(60)
    paths = np.log(100.0) + np.cumsum(rng.normal(scale=0.01, size=(60, 3)), axis=None).reshape(60, 3)
    bars = [make_day_bars(day, path) for day, path in zip(days, paths.tolist())]
    save_bars_csv(bars, files["bars"])
    files["range-bars"].write_text("date,min_log,max_log,rv\n" + "".join(
        f"{b.date},{b.min_log!r},{b.max_log!r},{b.rv!r}\n" for b in bars))
    files["long-bars"].write_text("date,time,price\n" + "".join(
        f"{day},{10 + j}:00:00,{float(np.exp(x))!r}\n" for day, path in zip(days, paths.tolist())
        for j, x in enumerate(path)))

    files["json-config"].write_text('{"orders": "1,1,1", "init": "mean"}\n')
    files["config"].write_text("# simulate defaults\nT = 40\nseed = 4\nburn-in = 10\ninit = mean\n")
    files["table1-config"].write_text("designs = I\nreps = 2\nT = 150\nseed = 2\nformat = csv\n")
    return files


# (kind of the mutated file, the command that reads it, with {bad} for its path)
RUNS = {
    "fit-data": ("intervals", "fit --data {bad} --out {out}"),
    "acf-data": ("intervals", "acf --data {bad} --max-lag 5"),
    "forecast-data": ("intervals", "forecast --model {params} --data {bad} --horizon 3"),
    "simulate-model": ("params", "simulate --model {bad} --T 40 --seed 1 --out {out}"),
    "acf-model": ("params", "acf --data {intervals} --model {bad} --max-lag 5"),
    "forecast-fit": ("fit", "forecast --model {bad} --data {intervals} --horizon 3"),
    "prepare-quotes": ("quotes", "prepare --ticks {bad} --out-intervals {out} --out-bars {out2}"),
    "prepare-prices": ("prices", "prepare --ticks {bad} --out-intervals {out}"),
    "backtest-bars": ("bars", "backtest --bars {bad} --train 50 --horizons 1 --refit-every 100"),
    "backtest-range-bars": ("range-bars", "backtest --bars {bad} --train 50 --horizons 1 --refit-every 100"),
    "backtest-long-bars": ("long-bars", "backtest --bars {bad} --train 50 --horizons 1 --refit-every 100"),
    "fit-json-config": ("json-config", "fit --config {bad} --data {intervals} --out {out}"),
    "simulate-config": ("config", "simulate --config {bad} --model {params} --out {out}"),
    "table1-config": ("table1-config", "table1 --config {bad}"),
}
SCHEMAS = {"intervals": "intervals", "quotes": "ticks", "prices": "ticks", "bars": "daily_bars",
           "range-bars": "daily_bars", "long-bars": "daily_bars"}


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One seeded edit of data: a byte replaced by a token, a token
    inserted, a truncation, or a line duplicated, dropped or swapped with
    the next."""
    at = rng.randrange(len(data) + 1)
    token = rng.choice(TOKENS + [bytes([rng.randrange(256)])])
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    kind = rng.choice(["replace", "insert", "truncate", "duplicate", "drop", "swap"])
    if kind == "replace":
        return data[:at] + token + data[at + 1:]
    if kind == "insert":
        return data[:at] + token + data[at:]
    if kind == "truncate":
        return data[:at]
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "drop":
        del lines[i]
    else:
        lines[i:i + 2] = lines[i:i + 2][::-1]
    return b"".join(lines)


def refusal(kind, path, argv):
    """The message with which the reader of a file of this kind refuses
    the file at path, or None if it reads it."""
    try:
        if kind in SCHEMAS:
            load_csv(path, SCHEMAS[kind])
        elif kind in ("params", "fit"):
            cli._load_model_json(path)
        else:
            parser, commands = cli.build_parser()
            cli._apply_config(parser, commands, argv, parser.parse_args(argv))
    except DataError as exc:
        return str(exc)
    return None


@pytest.mark.filterwarnings("ignore::UserWarning")  # unsorted ticks, skipped days
@pytest.mark.parametrize("name", RUNS)
def test_mutated_input_exits_cleanly_and_names_the_file(valid, tmp_path, capsys, name):
    kind, command = RUNS[name]
    rng = random.Random(f"{name}:27")
    original = valid[kind].read_bytes()
    bad = tmp_path / valid[kind].name
    for i in range(MUTATIONS):
        data = mutate(original, rng)
        bad.write_bytes(data)
        argv = command.format(bad=bad, out=tmp_path / "out", out2=tmp_path / "out2",
                              params=valid["params"], intervals=valid["intervals"]).split()
        message = refusal(kind, bad, argv)
        code = run(*argv)
        err = capsys.readouterr().err
        case = (i, data[:200], message, err)
        assert code in (0, 2, 3, 4), case
        assert "Traceback" not in err, case
        if message is not None:
            assert code == 2 and err.endswith(f"error: {message}\n"), case
            assert message.startswith((f"{bad} ", f"{bad}: ", f"cannot read {bad}: ")), case
            if kind in SCHEMAS and message != f"{bad}: no data rows":
                assert re.match(rf"{re.escape(str(bad))} line \d+: ", message), case
