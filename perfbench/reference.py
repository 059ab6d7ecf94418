"""The reference kernel: fixed work of the benchmark's own, timed between
a workload's operations so that the workload's timings can be given in
units of the machine's speed at that moment.

The host this benchmark runs on is shared. Its speed for the same work
moves by 15-30% for tens of seconds to minutes at a time, and by more
than a factor of two between its busy and quiet hours; CPU time moves
with wall time, so longer runs and medians within a run do not cancel
it. The kernel, run in the same process every 0.75 s between
operations, slows with the operations. An operation's time divided by
the median kernel time of the run is its cost in kernel runs ("ref"),
which stays put while the host's speed moves.

The kernel does the three kinds of work the workloads do, one after
another: Python objects built from text (prepare), short scipy fits
driven from Python (backtest), and a recursion stepped over small numpy
arrays followed by passes over long ones (study). Over the same two
minutes on a busy host, a study operation's time over this mix moved
half as much as over the study part alone. Its input is fixed,
independent of the workload seed, and nothing here imports intgarch, so
a change to the program cannot change the kernel's work.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import statistics
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

_rng = np.random.default_rng(20240304)


# prepare: CSV rows parsed into frozen dataclasses, sorted, rolling medians

@dataclass(frozen=True)
class _Quote:
    ts: dt.datetime
    bid: float
    ask: float


def _quote_text(rows: int) -> str:
    start = dt.datetime(2024, 3, 4, 9, 30)
    offsets = np.sort(_rng.choice(23_400_000, rows, replace=False))
    mids = 100.0 + np.cumsum(0.01 * _rng.standard_normal(rows))
    lines = ["timestamp,bid,ask"]
    for ms, m in zip(offsets, mids.tolist()):
        ts = (start + dt.timedelta(milliseconds=int(ms))).isoformat(timespec="milliseconds")
        lines.append(f"{ts},{m - 0.01!r},{m + 0.01!r}")
    return "\n".join(lines) + "\n"


_QUOTES = _quote_text(6000)


def _objects() -> None:
    reader = csv.reader(io.StringIO(_QUOTES))
    next(reader)
    quotes = [_Quote(dt.datetime.fromisoformat(t), float(b), float(a)) for t, b, a in reader]
    quotes.sort(key=lambda q: q.ts)
    mids = [(q.bid + q.ask) / 2.0 for q in quotes]
    [statistics.median(mids[i:i + 50]) for i in range(0, len(mids), 25)]


# backtest: a short L-BFGS-B fit of a GARCH(1,1) likelihood

_SQUARED = (0.01 * _rng.standard_normal(300)) ** 2


def _garch_nll(p) -> float:
    omega, a, b = p
    s2 = np.empty(_SQUARED.size)
    s2[0] = _SQUARED.mean()
    for t in range(1, _SQUARED.size):
        s2[t] = omega + a * _SQUARED[t - 1] + b * s2[t - 1]
    return 0.5 * float(np.sum(np.log(s2) + _SQUARED / s2))


def _fit() -> None:
    minimize(_garch_nll, [1e-5, 0.05, 0.9], method="L-BFGS-B",
             bounds=[(1e-8, 1.0), (0.0, 1.0), (0.0, 0.999)], options={"maxiter": 12})


# study: a scale recursion stepped in a Python loop over small numpy
# arrays, as simulate steps its lag buffers, then filters, outer products
# and elementwise passes over (10^4, 4) arrays, as the long-series score
# and Hessian make

_EPS = _rng.standard_normal(2500)
_ETA = _rng.gamma(1.8147, 1.0, 2500)
_COEF = np.array([0.0318, 0.374])
_COLUMNS = _rng.standard_normal((10_000, 4))


def _recursion() -> None:
    lags = np.zeros((1, 2))
    for t in range(_EPS.size):
        ht = 0.0906 + lags @ _COEF
        lags[:, 0] = np.abs(ht * _EPS[t])
        lags[:, 1] = ht * _ETA[t]
    for _ in range(16):
        d = lfilter([1.0], [1.0, -0.374], _COLUMNS, axis=0)
        d.T @ d
        np.log1p(d * d).sum(axis=0)


def kernel() -> None:
    _objects()
    _fit()
    _recursion()


def reference_units(op_times: list, kernel_times: list) -> list:
    """Each operation's time over the median kernel time of the run."""
    unit = statistics.median(kernel_times)
    return [t / unit for t in op_times]
