"""Tick ingestion, cleaning, gridding, realized variance, and interval returns.

The cleaning stage applies four rules in order: collapse duplicate
timestamps to median quotes, drop negative spreads, drop spreads beyond 50
times the day's median spread, and drop mid-quotes straying more than 10
mean absolute deviations from a centered rolling median (window 25 back /
25 forward, self excluded; at the edges all available neighbors are used,
and ticks with fewer than 10 neighbors are not tested).

Cleaned ticks are sampled onto an intra-session grid by carrying the last
observation forward. A day's grid log prices give its realized variance
(sum of squared consecutive differences) and its min/max, from which the
daily interval return is

    r_t = [min_log(t) - max_log(t-1), max_log(t) - min_log(t-1)].
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exceptions import DataError
from .intervals import IntervalSeries

__all__ = [
    "QuoteTick",
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
]

RULE4_HALF_WINDOW = 25
RULE4_MIN_NEIGHBORS = 10
RULE4_MAD_MULTIPLE = 10.0
RULE3_SPREAD_MULTIPLE = 50.0


@dataclass(frozen=True)
class QuoteTick:
    """One quote (bid/ask) or trade (price) observation.

    Quote ticks carry bid and ask; price-only ticks carry just price.
    Spreads may be negative on ingest; cleaning removes them.
    """

    timestamp: _dt.datetime
    bid: float | None = None
    ask: float | None = None
    price: float | None = None

    def __post_init__(self) -> None:
        has_quote = self.bid is not None and self.ask is not None
        if not has_quote and self.price is None:
            raise DataError(f"tick at {self.timestamp} has neither quotes nor a price")

    @property
    def spread(self) -> float | None:
        if self.bid is None or self.ask is None:
            return None
        return self.ask - self.bid

    @property
    def mid(self) -> float:
        if self.bid is not None and self.ask is not None:
            return 0.5 * (self.bid + self.ask)
        return float(self.price)


@dataclass(frozen=True)
class DayBars:
    """One day's grid log prices with their range and realized variance.

    log_prices is None for compact records loaded without the intraday
    path (range-only fallback); min_log/max_log/rv then stand alone.
    """

    date: _dt.date
    log_prices: tuple | None
    min_log: float
    max_log: float
    rv: float

    def __post_init__(self) -> None:
        if self.min_log > self.max_log:
            raise DataError(f"{self.date}: min_log exceeds max_log")
        if self.rv < 0:
            raise DataError(f"{self.date}: negative realized variance")
        if self.log_prices is not None:
            lp = tuple(float(x) for x in self.log_prices)
            object.__setattr__(self, "log_prices", lp)
            if not lp:
                raise DataError(f"{self.date}: empty log-price grid")
            if not math.isclose(min(lp), self.min_log, rel_tol=0, abs_tol=1e-12):
                raise DataError(f"{self.date}: min_log does not match log_prices")
            if not math.isclose(max(lp), self.max_log, rel_tol=0, abs_tol=1e-12):
                raise DataError(f"{self.date}: max_log does not match log_prices")


@dataclass(frozen=True)
class SessionSpec:
    """Exchange session and sampling grid. Times are exchange-local;
    no time zone inference happens anywhere."""

    start: _dt.time = _dt.time(9, 30)
    end: _dt.time = _dt.time(16, 0)
    grid_minutes: int = 5

    def __post_init__(self) -> None:
        if self.grid_minutes < 1:
            raise DataError("grid_minutes must be >= 1")
        if self.start >= self.end:
            raise DataError("session start must precede end")


def _is_price_only(ticks: Sequence[QuoteTick]) -> bool:
    has_quotes = [t.bid is not None and t.ask is not None for t in ticks]
    if all(has_quotes):
        return False
    if not any(has_quotes):
        return True
    raise DataError("mixed quote and price-only ticks; split the inputs")


def clean_quotes(ticks: Sequence[QuoteTick]) -> list:
    """Apply the four cleaning rules in order; returns sorted ticks with
    strictly increasing timestamps.

    For price-only data the quote rules (1-3) do not apply and the
    rolling-median rule runs on prices. Empty input gives empty output.
    """
    ticks = sorted(ticks, key=lambda t: t.timestamp)
    if not ticks:
        return []
    price_only = _is_price_only(ticks)

    if not price_only:
        # rule 1: one tick per timestamp, median bid and ask
        collapsed: list = []
        i = 0
        while i < len(ticks):
            j = i
            while j < len(ticks) and ticks[j].timestamp == ticks[i].timestamp:
                j += 1
            if j - i == 1:
                collapsed.append(ticks[i])
            else:
                group = ticks[i:j]
                prices = [t.price for t in group if t.price is not None]
                collapsed.append(
                    QuoteTick(
                        timestamp=ticks[i].timestamp,
                        bid=float(np.median([t.bid for t in group])),
                        ask=float(np.median([t.ask for t in group])),
                        price=float(np.median(prices)) if prices else None,
                    )
                )
            i = j
        # rule 2: negative spreads out
        ticks = [t for t in collapsed if t.spread >= 0]
        # rule 3: per-day spread blowups out
        kept: list = []
        for day_ticks in _group_by_day(ticks):
            med = float(np.median([t.spread for t in day_ticks]))
            kept.extend(
                t for t in day_ticks if t.spread <= RULE3_SPREAD_MULTIPLE * med
            )
        ticks = kept
    else:
        # price-only: still collapse exact duplicates to keep output strict
        dedup: list = []
        i = 0
        while i < len(ticks):
            j = i
            while j < len(ticks) and ticks[j].timestamp == ticks[i].timestamp:
                j += 1
            if j - i == 1:
                dedup.append(ticks[i])
            else:
                group = ticks[i:j]
                dedup.append(
                    QuoteTick(
                        timestamp=ticks[i].timestamp,
                        price=float(np.median([t.price for t in group])),
                    )
                )
            i = j
        ticks = dedup

    # rule 4: rolling-median outlier filter on mids (or prices)
    out: list = []
    for day_ticks in _group_by_day(ticks):
        mids = np.array([t.mid for t in day_ticks])
        n = len(mids)
        deviations = np.full(n, np.nan)
        for i in range(n):
            lo = max(0, i - RULE4_HALF_WINDOW)
            hi = min(n, i + RULE4_HALF_WINDOW + 1)
            neighbors = np.concatenate((mids[lo:i], mids[i + 1 : hi]))
            if neighbors.size < RULE4_MIN_NEIGHBORS:
                continue  # edge rule: too few neighbors, tick not tested
            deviations[i] = abs(mids[i] - float(np.median(neighbors)))
        tested = np.isfinite(deviations)
        if tested.any():
            mad = float(deviations[tested].mean())
            drop = tested & (deviations > RULE4_MAD_MULTIPLE * mad) if mad > 0 else np.zeros(n, bool)
        else:
            drop = np.zeros(n, bool)
        out.extend(t for t, d in zip(day_ticks, drop) if not d)
    return out


def _group_by_day(ticks: Sequence[QuoteTick]) -> Iterable:
    day: list = []
    for t in ticks:
        if day and t.timestamp.date() != day[-1].timestamp.date():
            yield day
            day = []
        day.append(t)
    if day:
        yield day


def resample_to_grid(
    ticks: Sequence[QuoteTick], session: SessionSpec | None = None
) -> list:
    """Sample cleaned ticks onto the session grid, last observation
    carried forward, one DayBars per day.

    Grid points before the day's first tick are dropped; days ending up
    with fewer than 2 grid prices are skipped with a warning.
    """
    session = session or SessionSpec()
    days: list = []
    for day_ticks in _group_by_day(sorted(ticks, key=lambda t: t.timestamp)):
        date = day_ticks[0].timestamp.date()
        grid_time = _dt.datetime.combine(date, session.start)
        end_time = _dt.datetime.combine(date, session.end)
        step = _dt.timedelta(minutes=session.grid_minutes)
        prices: list = []
        idx = -1  # last tick at or before the grid time
        n = len(day_ticks)
        while grid_time <= end_time:
            while idx + 1 < n and day_ticks[idx + 1].timestamp <= grid_time:
                idx += 1
            if idx >= 0:
                prices.append(math.log(day_ticks[idx].mid))
            grid_time = grid_time + step
        if len(prices) < 2:
            warnings.warn(f"{date}: fewer than 2 grid observations, day skipped")
            continue
        days.append(make_day_bars(date, prices))
    return days


def make_day_bars(date: _dt.date, log_prices: Sequence[float]) -> DayBars:
    """Assemble a DayBars from a day's grid log prices."""
    lp = tuple(float(x) for x in log_prices)
    if len(lp) < 2:
        raise DataError("insufficient intraday observations")
    return DayBars(
        date=date,
        log_prices=lp,
        min_log=min(lp),
        max_log=max(lp),
        rv=realized_variance(lp),
    )


def day_bars_from_range(
    date: _dt.date, min_log: float, max_log: float, rv: float | None = None
) -> DayBars:
    """Range-only fallback when no intraday path exists (e.g. published
    daily high/low). The interval-return construction treats the two-point
    set {min_log, max_log} as the day's price set. rv defaults to the
    coarse two-point value (max_log - min_log)^2."""
    if rv is None:
        rv = (max_log - min_log) ** 2
    return DayBars(date=date, log_prices=None, min_log=min_log, max_log=max_log, rv=rv)


def realized_variance(day) -> float:
    """Sum of squared consecutive log-price differences within one day.

    Accepts a DayBars or a plain sequence of log prices. No overnight term.
    """
    lp = day.log_prices if isinstance(day, DayBars) else day
    if lp is None or len(lp) < 2:
        raise DataError("insufficient intraday observations")
    d = np.diff(np.asarray(lp, dtype=float))
    return float(d @ d)


def interval_returns(days: Sequence[DayBars]) -> IntervalSeries:
    """Daily interval returns from consecutive day ranges.

    For each consecutive pair of days the return interval is
    [min_log(t) - max_log(t-1), max_log(t) - min_log(t-1)], dated at day t.
    """
    if len(days) < 2:
        raise DataError("insufficient data: need at least 2 days")
    for a, b in zip(days, days[1:]):
        if not a.date < b.date:
            raise DataError(f"days must be strictly increasing in date, got {a.date} before {b.date}")
    lowers = np.array([t.min_log - s.max_log for s, t in zip(days, days[1:])])
    uppers = np.array([t.max_log - s.min_log for s, t in zip(days, days[1:])])
    return IntervalSeries.from_bounds(lowers, uppers, dates=[d.date for d in days[1:]])


# ---------------------------------------------------------------------------
# CSV input/output

_SCHEMAS = ("ticks", "daily_bars", "intervals")


def _open_rows(path) -> tuple:
    """All CSV rows with their 1-based line numbers, comment lines skipped."""
    try:
        with open(path, newline="") as fh:
            raw = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, row in enumerate(raw, start=1):
        if not row or (row[0].startswith("#")):
            continue
        rows.append((lineno, [c.strip() for c in row]))
    if not rows:
        raise DataError("no data rows")
    return rows[0], rows[1:]


def _parse_float(cell: str, lineno: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise DataError(f"line {lineno}: unparsable {col} value {cell!r}") from exc


def _parse_date(cell: str, lineno: int) -> _dt.date:
    try:
        return _dt.date.fromisoformat(cell)
    except ValueError as exc:
        raise DataError(f"line {lineno}: unparsable date {cell!r}") from exc


def load_csv(path, schema: str):
    """Load a typed table.

    schema 'ticks' -> list of QuoteTick (auto-sorted with a warning if
    unsorted); 'daily_bars' -> list of DayBars (compact range rows or
    date,time,price long format); 'intervals' -> IntervalSeries.
    Malformed rows raise DataError naming the line.
    """
    if schema not in _SCHEMAS:
        raise DataError(f"unknown schema {schema!r}; expected one of {_SCHEMAS}")
    (header_line, header), body = _open_rows(path)
    cols = [c.lower() for c in header]
    if schema == "intervals":
        if cols != ["date", "low", "high"]:
            raise DataError(
                f"line {header_line}: unknown columns {header!r}; expected date,low,high"
            )
        if not body:
            raise DataError("no data rows")
        dates, lows, highs = [], [], []
        for lineno, row in body:
            if len(row) != 3:
                raise DataError(f"line {lineno}: expected 3 columns, got {len(row)}")
            d = _parse_date(row[0], lineno)
            lo = _parse_float(row[1], lineno, "low")
            hi = _parse_float(row[2], lineno, "high")
            if hi < lo:
                raise DataError(f"line {lineno}: high < low")
            dates.append(d)
            lows.append(lo)
            highs.append(hi)
        return IntervalSeries.from_bounds(lows, highs, dates=dates)

    if schema == "ticks":
        if cols not in (["timestamp", "bid", "ask"], ["timestamp", "bid", "ask", "price"]):
            raise DataError(
                f"line {header_line}: unknown columns {header!r}; "
                "expected timestamp,bid,ask[,price]"
            )
        if not body:
            raise DataError("no data rows")
        ticks = []
        for lineno, row in body:
            if len(row) != len(cols):
                raise DataError(f"line {lineno}: expected {len(cols)} columns, got {len(row)}")
            try:
                ts = _dt.datetime.fromisoformat(row[0])
            except ValueError as exc:
                raise DataError(f"line {lineno}: unparsable timestamp {row[0]!r}") from exc
            if ts.tzinfo is not None:
                # the session grid is naive local time; an offset cannot be placed on it
                raise DataError(
                    f"line {lineno}: timestamp {row[0]!r} carries a UTC offset; "
                    "give naive exchange-local times"
                )
            bid = _parse_float(row[1], lineno, "bid") if row[1] else None
            ask = _parse_float(row[2], lineno, "ask") if row[2] else None
            price = None
            if len(cols) == 4 and row[3]:
                price = _parse_float(row[3], lineno, "price")
            try:
                ticks.append(QuoteTick(timestamp=ts, bid=bid, ask=ask, price=price))
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
        if any(b.timestamp < a.timestamp for a, b in zip(ticks, ticks[1:])):
            warnings.warn("tick timestamps unsorted; sorting")
            ticks.sort(key=lambda t: t.timestamp)
        return ticks

    # daily_bars
    if cols == ["date", "min_log", "max_log", "rv"]:
        if not body:
            raise DataError("no data rows")
        days = []
        for lineno, row in body:
            if len(row) != 4:
                raise DataError(f"line {lineno}: expected 4 columns, got {len(row)}")
            date = _parse_date(row[0], lineno)
            min_log = _parse_float(row[1], lineno, "min_log")
            max_log = _parse_float(row[2], lineno, "max_log")
            rv = _parse_float(row[3], lineno, "rv")
            try:
                days.append(DayBars(date=date, log_prices=None, min_log=min_log, max_log=max_log, rv=rv))
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
        return days
    if cols == ["date", "time", "price"]:
        if not body:
            raise DataError("no data rows")
        by_day: dict = {}
        order: list = []
        for lineno, row in body:
            if len(row) != 3:
                raise DataError(f"line {lineno}: expected 3 columns, got {len(row)}")
            d = _parse_date(row[0], lineno)
            try:
                tm = _dt.time.fromisoformat(row[1])
            except ValueError as exc:
                raise DataError(f"line {lineno}: unparsable time {row[1]!r}") from exc
            px = _parse_float(row[2], lineno, "price")
            if px <= 0:
                raise DataError(f"line {lineno}: price must be positive")
            if d not in by_day:
                by_day[d] = []
                order.append(d)
            by_day[d].append((tm, math.log(px)))
        days = []
        for d in sorted(order):
            pts = sorted(by_day[d], key=lambda x: x[0])
            if len(pts) < 2:
                raise DataError(f"{d}: insufficient intraday observations")
            days.append(make_day_bars(d, [p for _, p in pts]))
        return days
    raise DataError(
        f"line {header_line}: unknown columns {header!r}; expected "
        "date,min_log,max_log,rv or date,time,price"
    )


def _meta_lines(meta: dict | None) -> list:
    if not meta:
        return []
    return [f"# {k} = {v}" for k, v in meta.items()]


def save_intervals_csv(series: IntervalSeries, path, meta: dict | None = None) -> None:
    """Write date,low,high rows (full float precision, round-trippable)."""
    if series.dates is None:
        raise DataError("interval CSV requires a dated series")
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(meta):
            fh.write(line + "\n")
        fh.write("date,low,high\n")
        for d, lo, hi in zip(series.dates, series.lowers, series.uppers):
            fh.write(f"{d.isoformat()},{float(lo)!r},{float(hi)!r}\n")


def save_bars_csv(days: Sequence[DayBars], path, meta: dict | None = None) -> None:
    """Write compact date,min_log,max_log,rv rows."""
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(meta):
            fh.write(line + "\n")
        fh.write("date,min_log,max_log,rv\n")
        for d in days:
            fh.write(
                f"{d.date.isoformat()},{float(d.min_log)!r},"
                f"{float(d.max_log)!r},{float(d.rv)!r}\n"
            )


def save_ticks_csv(ticks: Sequence[QuoteTick], path, meta: dict | None = None) -> None:
    """Write timestamp,bid,ask,price rows (empty cells for missing)."""
    with open(path, "w", newline="") as fh:
        for line in _meta_lines(meta):
            fh.write(line + "\n")
        fh.write("timestamp,bid,ask,price\n")
        for t in ticks:
            bid = "" if t.bid is None else repr(float(t.bid))
            ask = "" if t.ask is None else repr(float(t.ask))
            px = "" if t.price is None else repr(float(t.price))
            fh.write(f"{t.timestamp.isoformat()},{bid},{ask},{px}\n")
