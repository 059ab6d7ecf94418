"""Tick ingestion, cleaning, gridding, realized variance, and interval returns.

The cleaning stage applies four rules in order (Q1-Q4 of Barndorff-Nielsen,
Hansen, Lunde & Shephard 2009): collapse duplicate timestamps to median
quotes, drop negative spreads, drop spreads beyond 50 times the day's median
spread, and drop mid-quotes straying more than 10 mean absolute deviations
from a centered rolling median (window 25 back / 25 forward, self excluded;
at the edges all available neighbors are used, and ticks with fewer than 10
neighbors are not tested). Price-only data skip the two spread rules.

Ticks travel through loading, cleaning and gridding as columns
(TickColumns): an int64 key, the microseconds since 1970-01-01 of the
naive exchange-local timestamp, and float bid, ask and price arrays with
NaN for a missing value. QuoteTick is the element view: indexing or
iterating the columns builds QuoteTicks on demand, and a sequence of
QuoteTick given to clean_quotes or resample_to_grid is converted once.

Cleaning runs as array passes over the time-sorted columns. Rule 1 takes
the median of each run of equal keys in one pass; a run of one keeps its
tick as it is. The bid, ask and mid (or price) columns of the collapsed
ticks then go through rules 2-4 one day at a time: rules 2 and 3 as
boolean masks, rule 4 as a sort of the rows of one 51-wide sliding window
over the day, in blocks of bounded size. The day is padded with +inf on
both sides and each window's centre set to +inf, so every row holds its
tick's real neighbors first and +inf after them: edge ticks, short days
and interior ticks share one pass and one median formula. Every median
equals np.median's, bit for bit.

Cleaned ticks are sampled onto an intra-session grid by carrying the last
observation forward, found by np.searchsorted on the sorted keys. A day's
grid log prices give its realized variance (sum of squared consecutive
differences) and its min/max, from which the daily interval return is

    r_t = [min_log(t) - max_log(t-1), max_log(t) - min_log(t-1)].

CSV input goes through one table mapping each accepted header to a parser
of one row (_LAYOUTS). One loop checks each row's width, runs its parser
and turns any bad cell, non-finite numbers included, into a DataError
naming the line, as it does a dated row out of date order. A tick file's
body is read as whole columns instead when every row is proven to give
what the row parser gives (_tick_columns). One context (_reading) names
the file in every input error, the CLI's documents and config included.
One writer serves every table, the CLI's too: `# key = value` run lines,
the header, one line of cells per row."""

from __future__ import annotations

import contextlib
import csv
import datetime as _dt
import io
import itertools
import json
import math
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import DataError
from .intervals import IntervalSeries

__all__ = [
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
]

RULE4_HALF_WINDOW = 25
RULE4_MIN_NEIGHBORS = 10
RULE4_MAD_MULTIPLE = 10.0
RULE3_SPREAD_MULTIPLE = 50.0
_RULE4_BLOCK_ROWS = 512  # rows per rule-4 sort, bounding its memory

_EPOCH = _dt.datetime(1970, 1, 1)
_MICROSECOND = _dt.timedelta(microseconds=1)
_DAY_US = 86_400_000_000


@dataclass(frozen=True)
class QuoteTick:
    """One quote (bid/ask) or trade (price) observation.

    Quote ticks carry bid and ask; price-only ticks carry just price.
    Every value given must be finite and positive. Spreads may be
    negative on ingest; cleaning removes them.
    """

    timestamp: _dt.datetime
    bid: float | None = None
    ask: float | None = None
    price: float | None = None

    def __post_init__(self) -> None:
        bid, ask, price = self.bid, self.ask, self.price
        if (bid is None or ask is None) and price is None:
            raise DataError(f"tick at {self.timestamp} has neither quotes nor a price")
        for value in (bid, ask, price):
            # also false for NaN; the grid takes logs of these values
            if value is not None and not 0 < value < math.inf:
                raise DataError(
                    f"tick at {self.timestamp}: bid {bid!r}, ask {ask!r}, price {price!r}; "
                    "each given value must be finite and positive"
                )

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


def _quote_tick(key: int, bid: float, ask: float, price: float) -> QuoteTick:
    """The QuoteTick of one row of TickColumns."""
    return QuoteTick(_EPOCH + _dt.timedelta(microseconds=key),
                     *(None if math.isnan(v) else v for v in (bid, ask, price)))


class TickColumns(Sequence):
    """Ticks as columns: key, the int64 microseconds since 1970-01-01 of
    each naive exchange-local timestamp, and float bid, ask and price
    arrays with NaN for a missing value.

    At the public edge it reads as a list of QuoteTick: len(), indexing
    and iteration build QuoteTicks on demand, and == with a sequence of
    QuoteTick compares element by element. Whoever builds one vouches
    that each row is a valid QuoteTick.
    """

    __slots__ = ("key", "bid", "ask", "price")

    def __init__(self, key: np.ndarray, bid: np.ndarray, ask: np.ndarray, price: np.ndarray) -> None:
        self.key, self.bid, self.ask, self.price = key, bid, ask, price

    @classmethod
    def of(cls, ticks: Sequence) -> "TickColumns":
        """ticks itself if it is TickColumns, else its QuoteTicks as columns."""
        if isinstance(ticks, cls):
            return ticks
        try:
            key = np.fromiter(((t.timestamp - _EPOCH) // _MICROSECOND for t in ticks), np.int64, len(ticks))
        except TypeError as exc:
            raise DataError("tick timestamps must be naive exchange-local times") from exc
        # None becomes NaN
        values = np.array([(t.bid, t.ask, t.price) for t in ticks], dtype=float).reshape(-1, 3)
        return cls(key, *values.T.copy())

    def _columns(self) -> tuple:
        return self.key, self.bid, self.ask, self.price

    def _take(self, index) -> "TickColumns":
        return TickColumns(*(c[index] for c in self._columns()))

    def __len__(self) -> int:
        return len(self.key)

    def __getitem__(self, i: int) -> QuoteTick:
        return _quote_tick(*(c[i].item() for c in self._columns()))

    def __iter__(self):
        return map(_quote_tick, *(c.tolist() for c in self._columns()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    @property
    def mid(self) -> np.ndarray:
        """Each tick's QuoteTick.mid: the mid-quote where both quotes are
        given, else the price."""
        return np.where(np.isnan(self.bid) | np.isnan(self.ask), self.price, 0.5 * (self.bid + self.ask))

    def sorted(self) -> "TickColumns":
        """The ticks in time order: itself when already sorted, else a
        stable sort, so ticks of one time keep their order."""
        k = self.key
        return self if np.all(k[:-1] <= k[1:]) else self._take(np.argsort(k, kind="stable"))


@dataclass(frozen=True)
class DayBars:
    """One day's grid log prices with their range and realized variance.

    log_prices is None for compact records loaded without the intraday
    path (range-only fallback); min_log/max_log/rv then stand alone.
    close_log is the day's last grid log price: log_prices[-1] when they
    are given, else the compact record's own, or None if it has none.
    """

    date: _dt.date
    log_prices: tuple | None
    min_log: float
    max_log: float
    rv: float
    close_log: float | None = None

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
            close = self.close_log
            if close is not None and not math.isclose(lp[-1], close, rel_tol=0, abs_tol=1e-12):
                raise DataError(f"{self.date}: close_log does not match log_prices")
            object.__setattr__(self, "close_log", lp[-1])
        elif self.close_log is not None and not self.min_log <= self.close_log <= self.max_log:
            raise DataError(f"{self.date}: close_log outside [min_log, max_log]")


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
        if self.start.tzinfo is not None or self.end.tzinfo is not None:
            raise DataError("session times must be naive exchange-local times")
        if self.start >= self.end:
            raise DataError("session start must precede end")


def _runs(ids: np.ndarray) -> tuple:
    """Start index and length of each run of equal values in a sorted array."""
    change = np.ones(len(ids), bool)
    change[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(change)
    return starts, np.diff(np.r_[starts, len(ids)])


def _run_medians(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """One median per run of equal ids (sorted), in run order.

    The middle element, or the mean of the two middle elements, of each
    sorted run: the same bits as np.median of that run.
    """
    v = values[np.lexsort((values, ids))]
    starts, counts = _runs(ids)
    lo = v[starts + (counts - 1) // 2]
    hi = v[starts + counts // 2]
    return np.where(counts % 2 == 1, lo, (lo + hi) / 2)


def _rule4_deviations(mid: np.ndarray) -> np.ndarray:
    """|mid - median of its neighbours| for each tick of one day, NaN
    where not tested.

    Neighbours are up to RULE4_HALF_WINDOW ticks either side, the tick
    itself excluded; a tick with fewer than RULE4_MIN_NEIGHBORS of them
    is not tested. The day is padded with +inf on both sides and each
    window's centre is set to +inf, so one pass serves interior and edge
    ticks alike: after a row sort the m real neighbours come first, and
    their middle one or two give the median bit for bit as np.median does.
    """
    n, w = len(mid), RULE4_HALF_WINDOW
    i = np.arange(n)
    neighbours = np.minimum(i, w) + np.minimum(n - 1 - i, w)
    pad = np.full(w, np.inf)
    windows = sliding_window_view(np.concatenate((pad, mid, pad)), 2 * w + 1)  # row i: tick i
    dev = np.full(n, np.nan)
    for b in range(0, n, _RULE4_BLOCK_ROWS):
        rows = slice(b, b + _RULE4_BLOCK_ROWS)
        block = windows[rows].copy()
        block[:, w] = np.inf
        block.sort(axis=1)
        m, r = neighbours[rows], np.arange(len(block))
        med = (block[r, (m - 1) // 2] + block[r, m // 2]) / 2
        dev[rows] = np.where(m >= RULE4_MIN_NEIGHBORS, np.abs(mid[rows] - med), np.nan)
    return dev


def clean_quotes(ticks: Sequence, drops: dict | None = None) -> TickColumns:
    """Apply the four cleaning rules in order; returns ticks sorted by
    time with strictly increasing timestamps.

    ticks is TickColumns or a sequence of QuoteTick. For price-only data
    the quote rules (2-3) do not apply, rule 1 takes median prices and the
    rolling-median rule runs on prices. Empty input gives empty output.
    When drops is given, it receives the number of ticks each rule removed
    under the keys "rule1" (duplicates merged) to "rule4".
    """
    if drops is None:
        drops = {}
    drops.update(rule1=0, rule2=0, rule3=0, rule4=0)
    ticks = TickColumns.of(ticks).sorted()
    quoted = int(np.count_nonzero(~np.isnan(ticks.bid) & ~np.isnan(ticks.ask)))
    if 0 < quoted < len(ticks):
        raise DataError("mixed quote and price-only ticks; split the inputs")
    price_only = quoted == 0

    # rule 1: one tick per timestamp; a run of several takes the median
    # of each field over the run's ticks that have it
    starts, counts = _runs(ticks.key)
    reps = ticks._take(starts)
    merged = np.flatnonzero(counts > 1)
    rows = np.flatnonzero(np.repeat(counts > 1, counts))
    run = np.repeat(np.arange(len(merged)), counts[merged])
    for col, rep in zip(ticks._columns()[1:], reps._columns()[1:]):
        values = col[rows]
        present = ~np.isnan(values)
        medians = np.full(len(merged), np.nan)
        if present.any():
            ids = run[present]
            medians[ids[_runs(ids)[0]]] = _run_medians(values[present], ids)
        rep[merged] = medians
    if price_only:  # a merged price-only tick keeps only its price
        reps.bid[merged] = reps.ask[merged] = np.nan
    drops["rule1"] = len(ticks) - len(reps)

    bid, ask, mid = reps.bid, reps.ask, reps.mid
    keep = np.ones(len(reps), bool)
    for s, c in zip(*(a.tolist() for a in _runs(reps.key // _DAY_US))):
        day = slice(s, s + c)
        kept = keep[day]  # a view: writes land in keep
        if not price_only:
            # rule 2: negative spreads out
            spread = ask[day] - bid[day]
            kept &= spread >= 0
            drops["rule2"] += c - int(kept.sum())
            # rule 3: spreads beyond a multiple of the day's median out
            if kept.any():
                cut = RULE3_SPREAD_MULTIPLE * float(np.median(spread[kept]))
                wide = kept & ~(spread <= cut)
                kept &= ~wide
                drops["rule3"] += int(wide.sum())
        # rule 4: rolling-median outlier filter on mids (or prices)
        idx = np.flatnonzero(kept)
        if not idx.size:
            continue
        dev = _rule4_deviations(mid[day][idx])
        tested = np.isfinite(dev)
        if tested.any():
            mad = float(dev[tested].mean())
            if mad > 0:
                outliers = idx[tested & (dev > RULE4_MAD_MULTIPLE * mad)]
                kept[outliers] = False
                drops["rule4"] += len(outliers)

    return reps._take(keep)


def _day_us(t: _dt.time) -> int:
    """Microseconds from midnight to the time of day t."""
    return ((t.hour * 60 + t.minute) * 60 + t.second) * 1_000_000 + t.microsecond


def resample_to_grid(ticks: Sequence, session: SessionSpec | None = None) -> list:
    """Sample cleaned ticks onto the session grid, last observation
    carried forward, one DayBars per day.

    ticks is TickColumns or a sequence of QuoteTick. Grid points before
    the day's first tick are dropped; days ending up with fewer than 2
    grid prices are skipped with a warning.
    """
    session = session or SessionSpec()
    ticks = TickColumns.of(ticks).sorted()
    mid = ticks.mid
    grid = np.arange(_day_us(session.start), _day_us(session.end) + 1, session.grid_minutes * 60_000_000)
    day_no = ticks.key // _DAY_US
    days: list = []
    for s, c in zip(*(a.tolist() for a in _runs(day_no))):
        day = int(day_no[s])
        # the last tick at or before each grid time
        last = s - 1 + np.searchsorted(ticks.key[s:s + c], day * _DAY_US + grid, side="right")
        prices = [math.log(m) for m in mid[last[last >= s]].tolist()]
        date = _EPOCH.date() + _dt.timedelta(days=day)
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


def _finite(cell: str) -> float:
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {cell!r}")
    return x


def _interval_row(date: str, low: str, high: str) -> tuple:
    d, lo, hi = _dt.date.fromisoformat(date), _finite(low), _finite(high)
    if hi < lo:
        raise DataError("high < low")
    return d, lo, hi


def _tick_row(timestamp: str, bid: str, ask: str, price: str = "") -> QuoteTick:
    ts = _dt.datetime.fromisoformat(timestamp)
    if ts.tzinfo is not None:
        # the session grid is naive local time; an offset cannot be placed on it
        raise DataError(f"timestamp {timestamp!r} carries a UTC offset; give naive exchange-local times")
    # QuoteTick itself rejects values that are not finite and positive
    return QuoteTick(ts, float(bid) if bid else None, float(ask) if ask else None,
                     float(price) if price else None)


# The timestamp forms the column step reads, each digit written as d: the
# forms isoformat() writes, which datetime.fromisoformat reads the same way
# on every supported Python. numpy rejects out-of-range fields but reads
# year 0, which datetime does not.
_DIGITS = str.maketrans("0123456789", "d" * 10)
_NOT_SEPARATORS = dict.fromkeys(c for c in range(128) if chr(c) not in ",\n")  # str.translate deletes these
_STAMP_FORMS = {"dddd-dd-ddTdd:dd:dd", "dddd-dd-ddTdd:dd:dd.ddd", "dddd-dd-ddTdd:dd:dd.dddddd"}
_YEAR_ONE = (_dt.datetime.min - _EPOCH) // _MICROSECOND


def _tick_columns(body: str, width: int) -> TickColumns | None:
    """The rows of a tick file's body (the text after its header) as
    columns, or None unless every row is proven to give what _tick_row
    gives.

    Splitting on line breaks and commas is what csv.reader does when the
    body holds no carriage return and each line holds width cells; a
    quote, a comment or a blank line leaves a cell that fails a later
    check. Each timestamp must take one of _STAMP_FORMS. Each number cell
    is read by float() itself, which ignores the whitespace the row loop
    strips, and must give a finite positive value (an empty cell is a
    missing value). Each row needs both quotes or a price.
    """
    if "\r" in body:
        return None
    if body.endswith("\n"):
        body = body[:-1]
    # each line holds width cells: deleting all but commas and line breaks
    # leaves width - 1 commas on every line
    separators = body.translate(_NOT_SEPARATORS)
    commas = "," * (width - 1)
    if separators != (commas + "\n") * separators.count("\n") + commas:
        return None
    cells = body.replace("\n", ",").split(",")
    stamps = cells[::width]
    if not set("\n".join(stamps).translate(_DIGITS).split("\n")) <= _STAMP_FORMS:
        return None
    try:
        columns = [np.array(stamps, dtype="datetime64[us]").view(np.int64)]
        for j in range(1, width):
            col = cells[j::width]
            if "" in col:  # missing values
                values = np.array([float(c) if c else math.nan for c in col])
                given = np.fromiter(map(bool, col), bool, len(col))
            else:
                values, given = np.fromiter(map(float, col), float, len(col)), True
            if np.any(given & ~((values > 0) & (values < math.inf))):
                return None  # a given value that is not finite and positive
            columns.append(values)
    except ValueError:
        return None
    if width == 3:
        columns.append(np.full(len(stamps), np.nan))
    ticks = TickColumns(*columns)
    if ticks.key.min() < _YEAR_ONE:
        return None
    if np.any((np.isnan(ticks.bid) | np.isnan(ticks.ask)) & np.isnan(ticks.price)):
        return None  # a row with neither quotes nor a price
    return ticks


def _bar_row(date: str, min_log: str, max_log: str, rv: str, close_log: str | None = None) -> DayBars:
    return DayBars(_dt.date.fromisoformat(date), None, _finite(min_log), _finite(max_log), _finite(rv),
                   None if close_log is None else _finite(close_log))


def _price_row(date: str, time: str, price: str) -> tuple:
    d, tm, px = _dt.date.fromisoformat(date), _dt.time.fromisoformat(time), _finite(price)
    if px <= 0:
        raise DataError("price must be positive")
    return d, tm, math.log(px)


_BAR_COLUMNS = ("date", "min_log", "max_log", "rv", "close_log")  # the compact bars layout
# accepted header -> (schema, parser of one row's cells)
_LAYOUTS = {
    ("date", "low", "high"): ("intervals", _interval_row),
    ("timestamp", "bid", "ask"): ("ticks", _tick_row),
    ("timestamp", "bid", "ask", "price"): ("ticks", _tick_row),
    _BAR_COLUMNS[:4]: ("daily_bars", _bar_row),
    _BAR_COLUMNS: ("daily_bars", _bar_row),
    ("date", "time", "price"): ("daily_bars", _price_row),
}


def _csv_rows(lines, first: int = 1):
    """(line number, stripped cells) of each csv row read from lines, named
    by the line it starts on, the first line being line first; comment and
    blank lines are skipped. A row csv rejects (say, an unmatched quote
    past the field size limit) raises a DataError naming its line."""
    reader, lineno = csv.reader(lines), first
    try:
        for row in reader:
            if row and not row[0].startswith("#"):
                yield lineno, [c.strip() for c in row]
            lineno = first + reader.line_num
    except csv.Error as exc:
        raise DataError(f"line {lineno}: {exc}") from exc


def _not_utf8(path) -> DataError:
    """The error for a file that is not UTF-8, naming the line of its first
    bad byte. A text file decodes in chunks, so the file is read again as
    bytes, where each byte that is not UTF-8 decodes to a lone surrogate."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", "surrogateescape")
    bad = re.search("[\udc80-\udcff]", text)
    if bad is None:
        return DataError("not UTF-8 text")
    line = text.count("\n", 0, bad.start()) + 1
    return DataError(f"line {line}: not UTF-8 text (byte 0x{ord(bad.group()) - 0xdc00:02x})")


@contextlib.contextmanager
def _reading(path):
    """Name path in each input error raised inside the block: an OSError,
    text that is not UTF-8, invalid JSON, and every DataError, which reads
    "<path> line N: ..." when it names a line and "<path>: ..." otherwise."""
    try:
        try:
            yield
        except UnicodeDecodeError as exc:
            raise _not_utf8(path) from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    except DataError as exc:
        raise DataError(f"{path}{' ' if str(exc).startswith('line ') else ': '}{exc}") from exc


def _parse_rows(body: str, first: int, parse, width: int) -> tuple:
    """(line numbers, parse(*cells)) of the csv rows of body, whose first
    line is line first; a bad row raises a DataError naming its line."""
    lines, records = [], []
    for lineno, row in _csv_rows(io.StringIO(body, newline=""), first):
        try:
            if len(row) != width:
                raise DataError(f"expected {width} columns, got {len(row)}")
            records.append(parse(*row))
        except ValueError as exc:  # DataError included
            raise DataError(f"line {lineno}: {exc}") from exc
        lines.append(lineno)
    if not records:
        raise DataError("no data rows")
    return lines, records


def _in_date_order(dates, lines) -> None:
    """Refuse dates that do not strictly increase, naming the first row out of order."""
    for line, a, b in zip(lines[1:], dates, dates[1:]):
        if not a < b:
            raise DataError(f"line {line}: dates must be strictly increasing, got {a} before {b}")


def load_csv(path, schema: str):
    """Load a typed table.

    schema 'ticks' -> TickColumns (auto-sorted with a warning if
    unsorted); 'daily_bars' -> list of DayBars (compact rows in date
    order, close_log optional, or date,time,price long format);
    'intervals' -> IntervalSeries in date order. Every error names the
    file, and a bad row, non-finite numbers included, also its line.
    """
    headers = [cols for cols, (s, _) in _LAYOUTS.items() if s == schema]
    if not headers:
        schemas = ", ".join(dict.fromkeys(s for s, _ in _LAYOUTS.values()))
        raise DataError(f"unknown schema {schema!r}; expected one of {schemas}")
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        header_line, header = next(_csv_rows(fh), (0, None))
        body = fh.read()  # the text after the header row
        if header is None:
            raise DataError("no data rows")
        cols = tuple(c.lower() for c in header)
        if cols not in headers:
            raise DataError(
                f"line {header_line}: unknown columns {header!r}; expected "
                + " or ".join(",".join(h) for h in headers)
            )
        parse = _LAYOUTS[cols][1]
        if schema == "ticks":
            ticks = _tick_columns(body, len(cols))
            if ticks is None:
                ticks = TickColumns.of(_parse_rows(body, header_line + 1, parse, len(cols))[1])
            in_order = ticks.sorted()
            if in_order is not ticks:
                warnings.warn("tick timestamps unsorted; sorting")
            return in_order
        lines, records = _parse_rows(body, header_line + 1, parse, len(cols))
        if schema == "intervals":
            dates, lows, highs = zip(*records)
            _in_date_order(dates, lines)
            return IntervalSeries.from_bounds(lows, highs, dates=dates)
        if parse is _bar_row:
            _in_date_order([d.date for d in records], lines)
            return records
        # date,time,price: each date's log prices in time order make one day
        by_day: dict = {}
        for line, (date, time, log_price) in zip(lines, records):
            by_day.setdefault(date, []).append((time, log_price, line))
        days = []
        for date in sorted(by_day):
            points = sorted(by_day[date], key=itemgetter(0))
            if len(points) < 2:
                raise DataError(f"line {points[0][2]}: {date}: insufficient intraday observations")
            days.append(make_day_bars(date, [p for _, p, _ in points]))
        return days


def _cell(value) -> str:
    """One CSV cell: empty for None, the round-trippable repr of a float,
    ISO 8601 for a date or datetime, str of anything else, quoted (inner
    quotes doubled) when it holds a comma, a quote or a line break."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, _dt.date):
        return value.isoformat()
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(header: str, rows):
    """The header, then one line of comma-joined cells per row."""
    yield header
    for row in rows:
        yield ",".join(map(_cell, row))


def _write_lines(path, lines) -> None:
    """Write each string of lines to path as a line; a failure names the file."""
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _write_csv(path, meta: dict | None, header: str, rows) -> None:
    """Write meta as `# key = value` comment lines, then the table."""
    _write_lines(path, itertools.chain((f"# {k} = {v}" for k, v in (meta or {}).items()), _csv_lines(header, rows)))


def save_intervals_csv(series: IntervalSeries, path, meta: dict | None = None) -> None:
    """Write date,low,high rows (full float precision, round-trippable)."""
    if series.dates is None:
        raise DataError("interval CSV requires a dated series")
    _write_csv(path, meta, "date,low,high", zip(series.dates, series.lowers, series.uppers))


def save_bars_csv(days: Sequence[DayBars], path, meta: dict | None = None) -> None:
    """Write compact date,min_log,max_log,rv,close_log rows, without the
    close_log column when a day has no close (a range-only record)."""
    width = 5 if all(d.close_log is not None for d in days) else 4
    rows = ((d.date, d.min_log, d.max_log, d.rv, d.close_log)[:width] for d in days)
    _write_csv(path, meta, ",".join(_BAR_COLUMNS[:width]), rows)


def save_ticks_csv(ticks: Sequence[QuoteTick], path, meta: dict | None = None) -> None:
    """Write timestamp,bid,ask,price rows (empty cells for missing)."""
    _write_csv(path, meta, "timestamp,bid,ask,price", ((t.timestamp, t.bid, t.ask, t.price) for t in ticks))
