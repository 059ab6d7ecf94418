"""Workload inputs, generated from the run seed with numpy only.

Nothing here imports intgarch: the program receives only the files and
arrays built below; design-I paths come from the oracles' recursion.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

import oracles

# Design I of the paper's simulation study: (k, mu, alpha1, beta1, gamma1).
DESIGN_I = (1.8147, 0.0906, 0.0318, 0.374, 0.1265)

# prepare: tick files
FIRST_SESSION = dt.date(2024, 3, 4)  # a Monday
SESSION_START = dt.time(9, 30)
SESSION_END = dt.time(16, 0)
GRID_MINUTES = 5
SESSIONS_PER_FILE = 8
TICKS_PER_SESSION = 1200
QUOTE_FILES = 3
PRICE_FILES = 1
FAULTS_PER_KIND = 3  # per session and kind
DUPLICATE_SHARE = 0.02
# Relative mid displacement of injected rows. Crossed quotes and wide
# spreads stay within rule 4's tolerance, so only rules 2 and 3 remove
# them; outliers sit far outside the fault-free path.
QUOTE_FAULT_SHIFT = 0.002
OUTLIER_SHIFT = 0.10
WIDE_SPREAD = 3.0  # about 150 times the typical spread at a price near 100

# backtest: simulated worlds
BACKTEST_WORLDS = 192
BACKTEST_TRAIN = 500
BACKTEST_ORIGINS = 8
BACKTEST_HORIZONS = (1, 5)
BACKTEST_REFIT_EVERY = 4
BACKTEST_BURN_IN = 200
RV_NOISE_SD = 0.2

# study: simulation_study calls
STUDY_CALLS = 8
STUDY_REPLICATIONS = 3
STUDY_LENGTH = 10_000


def _weekdays(start: dt.date, n: int) -> list:
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


@dataclass(frozen=True)
class TickFile:
    """One generated tick CSV and what was injected into it.

    faults holds (timestamp, kind) for every injected row; clean_range
    maps each session date to the (min, max) mid of its fault-free path.
    """

    path: str
    rows: int
    faults: tuple
    clean_range: dict


def _iso(t: dt.datetime) -> str:
    return t.isoformat(timespec="milliseconds")


def make_tick_file(path: str, rng: np.random.Generator, price_only: bool) -> TickFile:
    """Write one tick file over SESSIONS_PER_FILE sessions.

    The fault-free path is a log random walk around 100 with about 1%
    daily volatility and spreads of 0.01-0.03. Injected rows: duplicate
    timestamps, and rows placed half a second before grid points, where
    the grid would sample them if they survived: crossed quotes, spreads
    beyond rule 3's cut, and mid-quote outliers (price outliers for the
    price-only file). clean_range holds the range of the mids that should
    survive cleaning.
    """
    session_ms = int(
        (dt.datetime.combine(FIRST_SESSION, SESSION_END)
         - dt.datetime.combine(FIRST_SESSION, SESSION_START)).total_seconds() * 1000
    )
    grid_ms = GRID_MINUTES * 60_000
    per_tick_sd = 0.01 / math.sqrt(TICKS_PER_SESSION)
    log_mid = math.log(100.0)
    rows: list = []  # (timestamp, bid, ask, price)
    faults: list = []
    clean_range: dict = {}
    for day_no, day in enumerate(_weekdays(FIRST_SESSION, SESSIONS_PER_FILE)):
        open_dt = dt.datetime.combine(day, SESSION_START)
        # one late-opening session leaves early grid points without a tick
        first_ms = 37 * 60_000 if day_no == 2 else 0
        offsets = np.sort(first_ms + rng.choice(session_ms - first_ms, TICKS_PER_SESSION, replace=False))
        log_mid += 0.005 * rng.standard_normal()  # overnight gap
        log_path = log_mid + np.cumsum(per_tick_sd * rng.standard_normal(TICKS_PER_SESSION))
        log_mid = float(log_path[-1])
        mids = np.exp(log_path)
        spreads = rng.uniform(0.01, 0.03, TICKS_PER_SESSION)
        taken = set(int(x) for x in offsets)
        day_rows: list = []
        for off, m, s in zip(offsets, mids, spreads):
            ts = open_dt + dt.timedelta(milliseconds=int(off))
            if price_only:
                day_rows.append((ts, None, None, float(m)))
            else:
                day_rows.append((ts, float(m - s / 2), float(m + s / 2), None))
        # duplicates: the original row and copies at +e and +3e, so the
        # group median (+e) differs from the first row and from the mean
        n_dup = int(DUPLICATE_SHARE * TICKS_PER_SESSION)
        e = 0.001
        for i in rng.choice(TICKS_PER_SESSION, n_dup, replace=False):
            ts, bid, ask, px = day_rows[i]
            if price_only:
                day_rows += [(ts, None, None, px + e), (ts, None, None, px + 3 * e)]
            else:
                day_rows += [(ts, bid + e, ask + e, None), (ts, bid + 3 * e, ask + 3 * e, None)]
            mids[i] += e
            faults.append((ts, "duplicate"))
        clean_range[day] = (float(mids.min()), float(mids.max()))
        # faults half a second before grid points in the middle of the day,
        # where rule 4 has its full window of neighbours
        kinds = ["outlier"] if price_only else ["crossed", "wide", "outlier"]
        n_grid = session_ms // grid_ms
        slots = rng.choice(np.arange(n_grid // 4, 3 * n_grid // 4), FAULTS_PER_KIND * len(kinds), replace=False)
        for j, slot in enumerate(slots):
            kind = kinds[j % len(kinds)]
            off = int(slot) * grid_ms - 500
            while off in taken:
                off -= 1
            taken.add(off)
            ts = open_dt + dt.timedelta(milliseconds=off)
            i = int(np.searchsorted(offsets, off))
            m = float(mids[min(i, TICKS_PER_SESSION - 1)])
            sign = 1.0 if rng.random() < 0.5 else -1.0
            if kind == "crossed":
                m *= 1.0 + sign * QUOTE_FAULT_SHIFT
                row = (ts, m + 0.01, m - 0.01, None)
            elif kind == "wide":
                m *= 1.0 + sign * QUOTE_FAULT_SHIFT
                row = (ts, m - WIDE_SPREAD / 2, m + WIDE_SPREAD / 2, None)
            elif price_only:
                row = (ts, None, None, m * (1.0 + sign * OUTLIER_SHIFT))
            else:
                m *= 1.0 + sign * OUTLIER_SHIFT
                row = (ts, m - 0.01, m + 0.01, None)
            day_rows.append(row)
            faults.append((ts, kind))
        day_rows.sort(key=lambda r: r[0])
        rows.extend(day_rows)

    with open(path, "w") as fh:
        if price_only:
            fh.write("timestamp,bid,ask,price\n")
            fh.writelines(f"{_iso(ts)},,,{px!r}\n" for ts, _, _, px in rows)
        else:
            fh.write("timestamp,bid,ask\n")
            fh.writelines(f"{_iso(ts)},{b!r},{a!r}\n" for ts, b, a, _ in rows)
    return TickFile(path, len(rows), tuple(faults), clean_range)


def make_tick_files(directory: str, seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    files = []
    for i in range(QUOTE_FILES + PRICE_FILES):
        price_only = i >= QUOTE_FILES
        name = f"{directory}/ticks-{i}-{'price' if price_only else 'quote'}.csv"
        files.append(make_tick_file(name, rng, price_only))
    return files


@dataclass(frozen=True)
class World:
    """A design-I interval series with a noisy realized-variance proxy and
    a close-to-close return per day."""

    centers: np.ndarray
    radii: np.ndarray
    rv: np.ndarray
    returns: np.ndarray


def make_world(rng: np.random.Generator, n: int) -> World:
    """Simulate design I with the oracles' recursion and drop the burn-in.

    The close sits uniformly inside each day's interval; the proxy is
    (1 + k/3) h^2 times mean-one lognormal noise of RV_NOISE_SD.
    """
    k, *theta = DESIGN_I
    total = n + BACKTEST_BURN_IN
    eps = rng.standard_normal(total)
    eta = rng.gamma(k, 1.0, total)
    centers, radii, h = (x[BACKTEST_BURN_IN:] for x in oracles.scale_path(k, theta, eps, eta))
    s = math.sqrt(math.log1p(RV_NOISE_SD**2))
    rv = (1.0 + k / 3.0) * h * h * rng.lognormal(-0.5 * s * s, s, n)
    returns = centers + radii * rng.uniform(-1.0, 1.0, n)
    return World(centers, radii, rv, returns)


def make_worlds(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    n = BACKTEST_TRAIN + BACKTEST_ORIGINS - 1
    return [make_world(rng, n) for _ in range(BACKTEST_WORLDS)]


def study_seeds(seed: int) -> list:
    """Seeds of the simulation_study calls of one round."""
    return [int(x) for x in np.random.SeedSequence([seed, 3]).generate_state(STUDY_CALLS)]
