"""Tick cleaning, grid resampling, realized variance, and CSV I/O."""

import csv
import datetime as dt
import math
import random
import re
import sys
import warnings

import numpy as np
import pytest

from intgarch import (
    DataError,
    DayBars,
    IntervalSeries,
    QuoteTick,
    SessionSpec,
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
from intgarch import cli
from intgarch.marketdata import (
    RULE3_SPREAD_MULTIPLE,
    RULE4_HALF_WINDOW,
    RULE4_MAD_MULTIPLE,
    RULE4_MIN_NEIGHBORS,
    TickColumns,
    _parse_rows,
    _rule4_deviations,
    _tick_columns,
    _tick_row,
)

T0 = dt.datetime(2024, 3, 4, 9, 30)


def tick(seconds, bid=None, ask=None, price=None):
    return QuoteTick(T0 + dt.timedelta(seconds=seconds), bid=bid, ask=ask, price=price)


def steady_day(n=60, outlier_at=None):
    """n quote ticks around mid 100, optionally one wild mid."""
    ticks = []
    for i in range(n):
        wiggle = 0.005 * ((i % 3) - 1)
        b, a = 99.99 + wiggle, 100.01 + wiggle
        if i == outlier_at:
            b, a = 119.99, 120.01
        ticks.append(tick(10 * i, bid=b, ask=a))
    return ticks


class TestQuoteTick:
    def test_spread_and_mid(self):
        t = tick(0, bid=10.0, ask=11.0)
        assert t.spread == pytest.approx(1.0)
        assert t.mid == pytest.approx(10.5)

    def test_negative_spread_representable(self):
        # crossed quotes must survive ingest so rule 2 can see them
        t = tick(0, bid=10.0, ask=9.0)
        assert t.spread == pytest.approx(-1.0)

    def test_price_only(self):
        t = tick(0, price=50.0)
        assert t.mid == pytest.approx(50.0)
        assert t.spread is None

    def test_requires_some_value(self):
        with pytest.raises(DataError, match="neither"):
            QuoteTick(T0)

    @pytest.mark.parametrize(
        "values", [{"price": 0.0}, {"bid": -5.0, "ask": -4.9}, {"price": math.nan}, {"bid": 10.0, "ask": math.inf}]
    )
    def test_values_must_be_finite_and_positive(self, values):
        with pytest.raises(DataError, match="finite and positive"):
            QuoteTick(T0, **values)


class TestCleaningRules:
    def test_rule1_median_collapse(self):
        # same timestamp, bids {10, 12} and asks {11, 13} -> bid 11, ask 12
        ticks = [tick(0, bid=10.0, ask=11.0), tick(0, bid=12.0, ask=13.0), tick(5, bid=10.0, ask=10.4)]
        out = clean_quotes(ticks)
        assert len(out) == 2
        assert out[0].bid == pytest.approx(11.0)
        assert out[0].ask == pytest.approx(12.0)

    def test_rule2_negative_spread_deleted(self):
        ticks = [tick(0, bid=10.0, ask=10.2), tick(5, bid=10.0, ask=9.0), tick(10, bid=10.0, ask=10.2)]
        out = clean_quotes(ticks)
        assert len(out) == 2
        assert all(t.spread >= 0 for t in out)

    def test_rule3_wide_spread_deleted(self):
        # day's median spread 0.01; the 0.6 spread is 60x the median
        ticks = [tick(10 * i, bid=100.0, ask=100.01) for i in range(9)]
        ticks.append(tick(95, bid=99.7, ask=100.3))
        out = clean_quotes(ticks)
        assert len(out) == 9
        assert all(t.spread == pytest.approx(0.01) for t in out)

    def test_rule3_cut_is_inclusive(self):
        # dyadic quotes make the spreads exact: 3.125 is 50 x 0.0625 and stays
        ticks = [tick(10 * i, bid=100.0, ask=100.0625) for i in range(9)]
        ticks.append(tick(95, bid=100.0, ask=103.125))
        assert len(clean_quotes(ticks)) == 10
        ticks[-1] = tick(95, bid=100.0, ask=103.25)
        assert len(clean_quotes(ticks)) == 9

    def test_rule3_is_per_day(self):
        # a generally wide day must not be judged by another day's median
        narrow = [tick(10 * i, bid=100.0, ask=100.01) for i in range(9)]
        next_day = T0 + dt.timedelta(days=1)
        wide = [
            QuoteTick(next_day + dt.timedelta(seconds=10 * i), bid=100.0, ask=100.5)
            for i in range(9)
        ]
        out = clean_quotes(narrow + wide)
        assert len(out) == 18

    def test_rule4_outlier_mid_deleted(self):
        ticks = steady_day(60, outlier_at=30)
        out = clean_quotes(ticks)
        assert len(out) == 59
        assert all(abs(t.mid - 100.0) < 1.0 for t in out)

    def test_rule4_skipped_when_too_few_neighbors(self):
        ticks = steady_day(8, outlier_at=7)
        assert len(clean_quotes(ticks)) == 8

    def test_rule4_zero_mad_keeps_everything(self):
        ticks = [tick(i, bid=100.0, ask=100.02) for i in range(60)]
        assert len(clean_quotes(ticks)) == 60

    def test_idempotent(self):
        ticks = steady_day(60, outlier_at=30)
        ticks.append(tick(2, bid=99.99, ask=99.0))  # negative spread
        once = clean_quotes(ticks)
        twice = clean_quotes(once)
        assert twice == once

    def test_unsorted_input_sorted(self):
        ticks = [tick(10, bid=10.0, ask=10.1), tick(0, bid=10.0, ask=10.1)]
        out = clean_quotes(ticks)
        assert [t.timestamp for t in out] == sorted(t.timestamp for t in out)

    def test_empty_input(self):
        assert clean_quotes([]) == []

    def test_price_only_mode_dedups(self):
        ticks = [tick(0, price=10.0), tick(0, price=12.0), tick(5, price=11.0)]
        out = clean_quotes(ticks)
        assert len(out) == 2
        assert out[0].price == pytest.approx(11.0)  # median of {10, 12}

    def test_mixed_modes_rejected(self):
        ticks = [tick(0, bid=10.0, ask=10.1), tick(5, price=10.0)]
        with pytest.raises(DataError, match="mixed"):
            clean_quotes(ticks)

    def test_offset_timestamps_rejected(self):
        utc = T0.replace(tzinfo=dt.timezone.utc)
        with pytest.raises(DataError, match="naive"):
            clean_quotes([QuoteTick(utc, bid=10.0, ask=10.1)])

    def test_drop_counts_per_rule(self):
        ticks = steady_day(60, outlier_at=30)
        ticks += [tick(0, bid=99.99, ask=100.01), tick(0, bid=99.99, ask=100.01)]  # rule 1: 2 merged
        ticks.append(tick(5, bid=100.0, ask=99.9))  # rule 2
        ticks.append(tick(15, bid=99.0, ask=101.0))  # rule 3: 100x the median spread
        drops = {}
        out = clean_quotes(ticks, drops)
        assert drops == {"rule1": 2, "rule2": 1, "rule3": 1, "rule4": 1}
        assert len(out) == len(ticks) - 5

    def test_drop_counts_price_only_and_empty(self):
        drops = {}
        clean_quotes([tick(0, price=10.0), tick(0, price=12.0), tick(5, price=11.0)], drops)
        assert drops == {"rule1": 1, "rule2": 0, "rule3": 0, "rule4": 0}
        drops = {"rule4": 7}
        assert clean_quotes([], drops) == []
        assert drops == {"rule1": 0, "rule2": 0, "rule3": 0, "rule4": 0}

    def test_merged_quote_crossed_by_its_medians_is_dropped(self):
        # two of the three rows are proper quotes, but the median bid 10.2
        # exceeds the median ask 10.15, so rule 2 removes the merged row
        group = [tick(300, bid=10.0, ask=10.1), tick(300, bid=10.2, ask=10.15), tick(300, bid=10.25, ask=10.3)]
        ticks = [tick(10 * i, bid=10.1, ask=10.12) for i in range(20)] + group
        drops = {}
        out = clean_quotes(ticks, drops)
        assert T0 + dt.timedelta(seconds=300) not in [t.timestamp for t in out]
        assert drops == {"rule1": 2, "rule2": 1, "rule3": 0, "rule4": 0}
        assert out == reference_clean(ticks)


class TestRule4Boundaries:
    def test_ten_ticks_none_tested(self):
        # 9 neighbours each: below RULE4_MIN_NEIGHBORS, so no tick is tested
        for at in range(10):
            drops = {}
            assert len(clean_quotes(steady_day(10, outlier_at=at), drops)) == 10
            assert drops["rule4"] == 0

    def test_eleven_ticks_all_tested(self):
        # 10 neighbours each: an outlier is caught wherever it sits
        for at in range(11):
            ticks = steady_day(11, outlier_at=at)
            out = clean_quotes(ticks)
            assert len(out) == 10 and all(t.mid < 110 for t in out), at
            assert out == reference_clean(ticks)

    @pytest.mark.parametrize("n", [51, 52])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_full_window_boundary(self, n, where):
        # n = 51 has one tick with a full 25 + 25 window (position 25),
        # n = 52 has two; every other tick takes the edge neighbour sets
        at = {"first": 0, "middle": 25, "last": n - 1}[where]
        ticks = steady_day(n, outlier_at=at)
        drops = {}
        out = clean_quotes(ticks, drops)
        assert ticks[at] not in out and len(out) == n - 1
        assert drops["rule4"] == 1
        assert out == reference_clean(ticks)


# ---------------------------------------------------------------------------
# Reference: the per-tick loop implementation the columnar passes replace.


def _ref_group_by_day(ticks):
    day = []
    for t in ticks:
        if day and t.timestamp.date() != day[-1].timestamp.date():
            yield day
            day = []
        day.append(t)
    if day:
        yield day


def reference_clean(ticks):
    ticks = sorted(ticks, key=lambda t: t.timestamp)
    if not ticks:
        return []
    has_quotes = [t.bid is not None and t.ask is not None for t in ticks]
    if not all(has_quotes) and any(has_quotes):
        raise DataError("mixed quote and price-only ticks; split the inputs")
    price_only = not any(has_quotes)

    if not price_only:
        collapsed = []
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
        ticks = [t for t in collapsed if t.spread >= 0]
        kept = []
        for day_ticks in _ref_group_by_day(ticks):
            med = float(np.median([t.spread for t in day_ticks]))
            kept.extend(t for t in day_ticks if t.spread <= RULE3_SPREAD_MULTIPLE * med)
        ticks = kept
    else:
        dedup = []
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
                    QuoteTick(timestamp=ticks[i].timestamp, price=float(np.median([t.price for t in group])))
                )
            i = j
        ticks = dedup

    out = []
    for day_ticks in _ref_group_by_day(ticks):
        deviations = reference_deviations(np.array([t.mid for t in day_ticks]))
        n = len(deviations)
        tested = np.isfinite(deviations)
        if tested.any():
            mad = float(deviations[tested].mean())
            drop = tested & (deviations > RULE4_MAD_MULTIPLE * mad) if mad > 0 else np.zeros(n, bool)
        else:
            drop = np.zeros(n, bool)
        out.extend(t for t, d in zip(day_ticks, drop) if not d)
    return out


def reference_deviations(mids):
    n = len(mids)
    deviations = np.full(n, np.nan)
    for i in range(n):
        lo = max(0, i - RULE4_HALF_WINDOW)
        hi = min(n, i + RULE4_HALF_WINDOW + 1)
        neighbors = np.concatenate((mids[lo:i], mids[i + 1 : hi]))
        if neighbors.size < RULE4_MIN_NEIGHBORS:
            continue
        deviations[i] = abs(mids[i] - float(np.median(neighbors)))
    return deviations


def reference_grid(ticks, session=None):
    session = session or SessionSpec()
    days = []
    for day_ticks in _ref_group_by_day(sorted(ticks, key=lambda t: t.timestamp)):
        date = day_ticks[0].timestamp.date()
        grid_time = dt.datetime.combine(date, session.start)
        end_time = dt.datetime.combine(date, session.end)
        step = dt.timedelta(minutes=session.grid_minutes)
        prices = []
        idx = -1
        n = len(day_ticks)
        while grid_time <= end_time:
            while idx + 1 < n and day_ticks[idx + 1].timestamp <= grid_time:
                idx += 1
            if idx >= 0:
                prices.append(math.log(day_ticks[idx].mid))
            grid_time = grid_time + step
        if len(prices) < 2:
            continue
        days.append(make_day_bars(date, prices))
    return days


def random_ticks(seed):
    """A seeded tick set mixing every case the cleaning rules and the grid
    distinguish: duplicate timestamps (with and without prices), crossed
    and wide quotes, outliers, price-only data, days of 1-12, 45-60 and
    up to 200 ticks, microsecond times, times before the session, after
    it and exactly on 5-minute grid points, in shuffled order."""
    rng = np.random.default_rng([seed, 7])
    price_only = rng.random() < 0.3
    ticks = []
    for d in range(int(rng.integers(1, 5))):
        date = dt.datetime(2024, 3, 4) + dt.timedelta(days=d)
        n = int(rng.choice([rng.integers(1, 13), rng.integers(45, 61), rng.integers(60, 201)]))
        us = rng.integers(9 * 3600, 16 * 3600 + 1800, n) * 10**6
        us += rng.integers(0, 10**6, n) * (rng.random(n) < 0.3)
        on_grid = rng.random(n) < 0.15
        us[on_grid] = (9 * 3600 + 1800 + 300 * rng.integers(0, 79, on_grid.sum())) * 10**6
        dup = rng.random(n) < 0.15
        us[dup] = rng.choice(us, dup.sum())
        mid = np.round(100 * np.exp(np.cumsum(0.001 * rng.standard_normal(n))), 3)
        mid[rng.random(n) < 0.03] *= 1.2
        spread = np.round(rng.uniform(0.01, 0.05, n), 3)
        spread[rng.random(n) < 0.05] *= -1
        spread[rng.random(n) < 0.05] *= 80
        with_price = rng.random(n) < 0.3
        for u, m, s, p in zip(us.tolist(), mid.tolist(), spread.tolist(), with_price.tolist()):
            ts = date + dt.timedelta(microseconds=u)
            if price_only:
                ticks.append(QuoteTick(ts, price=m))
            else:
                ticks.append(QuoteTick(ts, bid=m - s / 2, ask=m + s / 2, price=m if p else None))
    rng.shuffle(ticks)
    return ticks


class TestColumnarEquivalence:
    @pytest.mark.parametrize("block", range(8))
    def test_matches_loop_reference(self, block):
        for seed in range(30 * block, 30 * (block + 1)):
            ticks = random_ticks(seed)
            drops = {}
            cleaned = clean_quotes(ticks, drops)
            assert cleaned == reference_clean(ticks), seed
            assert len(ticks) - sum(drops.values()) == len(cleaned)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert resample_to_grid(cleaned) == reference_grid(cleaned), seed
                assert resample_to_grid(ticks) == reference_grid(ticks), seed

    def test_rule4_deviations_bit_identical(self):
        # which ticks survive hides small errors in a median; the
        # deviations themselves must match the loop to the last bit,
        # for short days, the 51-tick boundary and days of several blocks
        rng = np.random.default_rng(3)
        for n in [1, 9, 10, 11, 12, 50, 51, 52, 53, 120, 1100]:
            for _ in range(4):
                mids = np.round(100 + rng.standard_normal(n).cumsum() * 0.01, 2)
                np.testing.assert_array_equal(_rule4_deviations(mids), reference_deviations(mids))

    def test_cases_covered(self):
        sets = [random_ticks(seed) for seed in range(240)]
        quote_sets = [s for s in sets if s[0].bid is not None]
        assert 0 < len(quote_sets) < len(sets)
        day_sizes = [
            sum(1 for t in s if t.timestamp.date() == d)
            for s in sets
            for d in {t.timestamp.date() for t in s}
        ]
        assert min(day_sizes) < RULE4_MIN_NEIGHBORS + 1 and max(day_sizes) > 150
        drops = []
        for ticks in sets:
            drops.append({})
            clean_quotes(ticks, drops[-1])
        for rule in ("rule1", "rule2", "rule3", "rule4"):
            assert sum(d[rule] > 0 for d in drops) > 10, rule
        times = [t.timestamp.time() for s in sets for t in s]
        assert min(times) < dt.time(9, 30) and max(times) > dt.time(16, 0)
        assert any(t.microsecond for t in times)
        assert any(t.minute % 5 == 0 and not t.second and not t.microsecond for t in times)


class TestResampling:
    def test_locf_on_grid(self):
        # ticks at 9:31 and 9:41; 5-minute grid points carry the last mid
        ticks = [tick(60, bid=99.0, ask=101.0), tick(660, bid=109.0, ask=111.0)]
        days = resample_to_grid(ticks)
        assert len(days) == 1
        lp = days[0].log_prices
        # grid 9:30 precedes the first tick and is dropped; 9:35 and 9:40
        # see mid 100, 9:45 onward mid 110
        assert lp[0] == pytest.approx(math.log(100.0))
        assert lp[1] == pytest.approx(math.log(100.0))
        assert lp[2] == pytest.approx(math.log(110.0))
        # 9:35..16:00 inclusive
        assert len(lp) == 78
        assert lp[-1] == pytest.approx(math.log(110.0))

    def test_custom_session(self):
        sess = SessionSpec(start=dt.time(9, 30), end=dt.time(10, 0), grid_minutes=15)
        ticks = [tick(0, bid=99.0, ask=101.0), tick(1200, bid=109.0, ask=111.0)]
        days = resample_to_grid(ticks, sess)
        lp = days[0].log_prices
        # grid 9:30, 9:45, 10:00
        assert len(lp) == 3
        assert lp == (
            pytest.approx(math.log(100.0)),
            pytest.approx(math.log(100.0)),
            pytest.approx(math.log(110.0)),
        )

    def test_sparse_day_skipped_with_warning(self):
        sess = SessionSpec(start=dt.time(9, 30), end=dt.time(10, 0), grid_minutes=30)
        ticks = [tick(1500, bid=99.0, ask=101.0)]  # only the 10:00 point survives
        with pytest.warns(UserWarning, match="fewer than 2"):
            days = resample_to_grid(ticks, sess)
        assert days == []

    def test_groups_by_day(self):
        next_day = T0 + dt.timedelta(days=1)
        ticks = [tick(0, bid=99.0, ask=101.0), tick(600, bid=99.0, ask=101.0)]
        ticks += [
            QuoteTick(next_day + dt.timedelta(seconds=s), bid=109.0, ask=111.0)
            for s in (0, 600)
        ]
        days = resample_to_grid(ticks)
        assert [d.date for d in days] == [T0.date(), next_day.date()]


class TestDayBars:
    def test_make_day_bars(self):
        d = make_day_bars(T0.date(), [0.0, 0.01, -0.01])
        assert d.min_log == -0.01
        assert d.max_log == 0.01
        assert d.rv == pytest.approx(0.0005)

    def test_invariants_enforced(self):
        with pytest.raises(DataError):
            DayBars(T0.date(), (0.0, 0.01), min_log=0.005, max_log=0.01, rv=1e-4)

    def test_close_is_the_last_grid_log_price(self):
        assert make_day_bars(T0.date(), [0.0, 0.01, -0.005]).close_log == -0.005
        assert day_bars_from_range(T0.date(), 1.0, 1.3).close_log is None
        assert DayBars(T0.date(), None, 1.0, 1.3, 0.02, close_log=1.3).close_log == 1.3
        with pytest.raises(DataError, match="close_log does not match log_prices"):
            DayBars(T0.date(), (0.0, 0.01), 0.0, 0.01, 1e-4, close_log=0.0)
        with pytest.raises(DataError, match=r"close_log outside \[min_log, max_log\]"):
            DayBars(T0.date(), None, 1.0, 1.3, 0.02, close_log=1.31)

    def test_from_range_default_rv(self):
        d = day_bars_from_range(T0.date(), min_log=1.0, max_log=1.3)
        assert d.log_prices is None
        assert d.rv == pytest.approx(0.09)

    def test_from_range_explicit_rv(self):
        d = day_bars_from_range(T0.date(), 1.0, 1.3, rv=0.02)
        assert d.rv == pytest.approx(0.02)

    def test_from_range_inverted(self):
        with pytest.raises(DataError):
            day_bars_from_range(T0.date(), min_log=1.3, max_log=1.0)


class TestRealizedVariance:
    def test_hand_values(self):
        assert realized_variance([0.0, 0.01]) == pytest.approx(1e-4)
        assert realized_variance([0.0, 0.01, -0.01]) == pytest.approx(5e-4)
        assert realized_variance([0.3, 0.3, 0.3]) == 0.0

    def test_accepts_day_bars(self):
        d = make_day_bars(T0.date(), [0.0, 0.01, -0.01])
        assert realized_variance(d) == pytest.approx(5e-4)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        lp = rng.normal(size=50).cumsum()
        assert realized_variance(lp + 7.5) == pytest.approx(realized_variance(lp), rel=1e-9)

    def test_insufficient(self):
        with pytest.raises(DataError, match="insufficient intraday"):
            realized_variance([0.1])
        d = day_bars_from_range(T0.date(), 0.0, 0.1)
        with pytest.raises(DataError, match="insufficient intraday"):
            realized_variance(d)


class TestIntervalReturns:
    @staticmethod
    def days_from_ranges(*ranges):
        start = T0.date()
        return [
            day_bars_from_range(start + dt.timedelta(days=i), lo, hi)
            for i, (lo, hi) in enumerate(ranges)
        ]

    def test_hand_case(self):
        # previous day spans {0, 2}, today {1, 3} -> return [-1, 3]
        days = self.days_from_ranges((0.0, 2.0), (1.0, 3.0))
        s = interval_returns(days)
        assert len(s) == 1
        assert s[0].lower == pytest.approx(-1.0)
        assert s[0].upper == pytest.approx(3.0)
        assert s[0].center == pytest.approx(1.0)
        assert s[0].radius == pytest.approx(2.0)

    def test_identical_days_symmetric(self):
        days = self.days_from_ranges((1.0, 1.4), (1.0, 1.4))
        iv = interval_returns(days)[0]
        assert iv.lower == pytest.approx(-0.4)
        assert iv.upper == pytest.approx(0.4)
        assert iv.center == pytest.approx(0.0)

    def test_constant_price_degenerate(self):
        days = self.days_from_ranges((1.0, 1.0), (1.0, 1.0))
        iv = interval_returns(days)[0]
        assert iv.lower == iv.upper == 0.0

    def test_radius_identity(self):
        # radius = (range_t + range_{t-1}) / 2, center = midrange difference
        rng = np.random.default_rng(4)
        mids = rng.normal(size=12)
        half = rng.uniform(0.01, 0.5, size=12)
        days = self.days_from_ranges(*zip(mids - half, mids + half))
        s = interval_returns(days)
        np.testing.assert_allclose(s.radii, (2 * half[1:] + 2 * half[:-1]) / 2, rtol=1e-12)
        np.testing.assert_allclose(s.centers, np.diff(mids), atol=1e-12)

    def test_dates_are_day_t(self):
        days = self.days_from_ranges((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        s = interval_returns(days)
        assert s.dates == (days[1].date, days[2].date)

    def test_needs_two_days(self):
        with pytest.raises(DataError, match="at least 2"):
            interval_returns(self.days_from_ranges((0.0, 1.0)))

    def test_duplicate_dates_rejected(self):
        d = day_bars_from_range(T0.date(), 0.0, 1.0)
        with pytest.raises(DataError, match="strictly increasing"):
            interval_returns([d, d])


class TestCsvRoundTrips:
    def test_intervals_bit_exact_on_dyadic_data(self, tmp_path):
        # on a 1/1024 grid every (center, radius) <-> (low, high) conversion
        # is exact in binary64, so the round trip is bit-for-bit
        rng = np.random.default_rng(10)
        dates = [T0.date() + dt.timedelta(days=i) for i in range(20)]
        c = np.round(rng.normal(size=20) * 1024) / 1024
        r = np.round(rng.gamma(2.0, 1.0, size=20) * 1024) / 1024
        s = IntervalSeries(c, r, dates=dates)
        p = tmp_path / "iv.csv"
        save_intervals_csv(s, p)
        assert load_csv(p, "intervals") == s

    def test_intervals_round_trip_within_one_ulp(self, tmp_path):
        # arbitrary floats may move by one unit in the last place through
        # the coordinate change; never more
        rng = np.random.default_rng(12)
        dates = [T0.date() + dt.timedelta(days=i) for i in range(50)]
        s = IntervalSeries(rng.normal(size=50), rng.gamma(2.0, 1.0, size=50), dates=dates)
        p = tmp_path / "iv.csv"
        save_intervals_csv(s, p)
        again = load_csv(p, "intervals")
        scale = np.abs(s.centers) + s.radii
        assert np.all(np.abs(again.centers - s.centers) <= 2 * np.spacing(scale))
        assert np.all(np.abs(again.radii - s.radii) <= 2 * np.spacing(scale))
        assert again.dates == s.dates

    def test_intervals_meta_comments_skipped(self, tmp_path):
        s = IntervalSeries([0.5], [0.25], dates=[T0.date()])
        p = tmp_path / "iv.csv"
        save_intervals_csv(s, p, meta={"seed": 7, "note": "x"})
        text = p.read_text()
        assert "# seed = 7" in text
        assert load_csv(p, "intervals") == s

    def test_bars_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        days = [
            day_bars_from_range(
                T0.date() + dt.timedelta(days=i),
                float(m - abs(r)),
                float(m + abs(r)),
                rv=float(abs(v)),
            )
            for i, (m, r, v) in enumerate(zip(rng.normal(size=10), rng.normal(size=10), rng.normal(size=10)))
        ]
        p = tmp_path / "bars.csv"
        save_bars_csv(days, p)
        again = load_csv(p, "daily_bars")
        assert [(d.date, d.min_log, d.max_log, d.rv) for d in again] == [
            (d.date, d.min_log, d.max_log, d.rv) for d in days
        ]

    def test_bars_with_closes_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        days = [make_day_bars(T0.date() + dt.timedelta(days=i), 4.6 + rng.normal(size=8).cumsum() / 100)
                for i in range(10)]
        p = tmp_path / "bars.csv"
        save_bars_csv(days, p)
        assert p.read_text().splitlines()[0] == "date,min_log,max_log,rv,close_log"
        again = load_csv(p, "daily_bars")
        assert all(d.log_prices is None for d in again)
        assert [(d.date, d.min_log, d.max_log, d.rv, d.close_log) for d in again] == [
            (d.date, d.min_log, d.max_log, d.rv, d.log_prices[-1]) for d in days
        ]
        # one range-only day leaves the whole file without the column
        save_bars_csv([*days, day_bars_from_range(T0.date() + dt.timedelta(days=10), 4.5, 4.7)], p)
        assert p.read_text().splitlines()[0] == "date,min_log,max_log,rv"
        assert all(d.close_log is None for d in load_csv(p, "daily_bars"))

    def test_ticks_round_trip(self, tmp_path):
        ticks = [tick(0, bid=10.0, ask=10.5), tick(5, bid=10.1, ask=10.6, price=10.3)]
        p = tmp_path / "ticks.csv"
        save_ticks_csv(ticks, p)
        again = load_csv(p, "ticks")
        assert again == ticks


class TestCsvErrors:
    def test_high_below_low_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,low,high\n2024-01-02,0.1,0.5\n2024-01-03,0.5,0.1\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(p, "intervals")

    def test_comment_lines_keep_numbering(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# generated by hand\ndate,low,high\n# another note\n2024-01-02,0.5,0.1\n")
        with pytest.raises(DataError, match="line 4"):
            load_csv(p, "intervals")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("date,low,high\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, "intervals")

    def test_unparsable_value_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,low,high\n2024-01-02,abc,0.5\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(p, "intervals")

    def test_unknown_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,low,high,extra\n2024-01-02,0.1,0.5,9\n")
        with pytest.raises(DataError):
            load_csv(p, "intervals")

    def test_unknown_schema(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("date,low,high\n2024-01-02,0.1,0.5\n")
        with pytest.raises(DataError, match="schema"):
            load_csv(p, "nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "ghost.csv", "intervals")

    @pytest.mark.parametrize("row", ["99.99,100.01,0", "-5,-4.9,", "99.99,100.01,nan", "99.99,inf,"])
    def test_bad_tick_value_names_line(self, tmp_path, row):
        p = tmp_path / "ticks.csv"
        p.write_text(
            "timestamp,bid,ask,price\n"
            "2024-03-04T10:00:00,99.99,100.01,\n"
            f"2024-03-04T10:05:00,{row}\n"
            "2024-03-04T10:10:00,99.97,100.03,\n"
        )
        with pytest.raises(DataError, match="line 3: .* finite and positive"):
            load_csv(p, "ticks")

    def test_crossed_quotes_still_load(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,bid,ask\n2024-03-04T10:00:00,100.01,99.99\n")
        assert load_csv(p, "ticks")[0].spread < 0

    def test_unsorted_ticks_warn_and_sort(self, tmp_path):
        p = tmp_path / "ticks.csv"
        p.write_text(
            "timestamp,bid,ask\n"
            "2024-03-04T09:31:00,10.0,10.1\n"
            "2024-03-04T09:30:00,10.0,10.1\n"
        )
        with pytest.warns(UserWarning, match="sort"):
            ticks = load_csv(p, "ticks")
        assert ticks[0].timestamp < ticks[1].timestamp

    def test_long_format_daily_bars(self, tmp_path):
        p = tmp_path / "long.csv"
        p.write_text(
            "date,time,price\n"
            "2024-03-04,09:30:00,100.0\n"
            "2024-03-04,09:35:00,101.0\n"
            "2024-03-05,09:30:00,100.0\n"
            "2024-03-05,09:35:00,99.0\n"
        )
        days = load_csv(p, "daily_bars")
        assert len(days) == 2
        assert days[0].max_log == pytest.approx(math.log(101.0))
        assert days[0].rv == pytest.approx((math.log(101.0) - math.log(100.0)) ** 2)

    def test_long_format_single_point_day(self, tmp_path):
        p = tmp_path / "long.csv"
        p.write_text("date,time,price\n2024-03-04,09:30:00,100.0\n")
        with pytest.raises(DataError, match="insufficient intraday"):
            load_csv(p, "daily_bars")

    @pytest.mark.parametrize(
        "schema, header, first, bad",
        [
            ("intervals", "date,low,high", "2024-03-04,0.1,0.5", "2024-03-05,nan,0.5"),
            ("daily_bars", "date,min_log,max_log,rv", "2024-03-04,4.5,4.6,0.001", "2024-03-05,4.5,4.6,inf"),
            ("daily_bars", "date,min_log,max_log,rv,close_log", "2024-03-04,4.5,4.6,0.001,4.55",
             "2024-03-05,4.5,4.6,0.001,nan"),
            ("daily_bars", "date,time,price", "2024-03-04,09:30:00,100.0", "2024-03-04,09:35:00,inf"),
        ],
        ids=["intervals", "bars", "bars-with-closes", "long-format"],
    )
    def test_non_finite_number_names_line(self, tmp_path, schema, header, first, bad):
        # ticks: test_bad_tick_value_names_line
        p = tmp_path / "bad.csv"
        p.write_text(f"{header}\n{first}\n{bad}\n")
        with pytest.raises(DataError, match="line 3: "):
            load_csv(p, schema)

    @pytest.mark.parametrize("schema, header, cells", [
        ("intervals", "date,low,high", "0.1,0.5"),
        ("daily_bars", "date,min_log,max_log,rv", "4.5,4.6,0.001"),
        ("daily_bars", "date,min_log,max_log,rv,close_log", "4.5,4.6,0.001,4.55"),
    ], ids=["intervals", "bars", "bars-with-closes"])
    @pytest.mark.parametrize("dates, line, earlier, later", [
        (["2024-01-02", "2024-01-03", "2024-01-02"], 5, "2024-01-03", "2024-01-02"),  # backwards
        (["2024-01-02", "2024-01-02", "2024-01-03"], 3, "2024-01-02", "2024-01-02"),  # repeated
    ], ids=["backwards", "repeated"])
    def test_dates_out_of_order_name_their_line(self, tmp_path, schema, header, cells, dates, line, earlier, later):
        p = tmp_path / "bad.csv"
        rows = [f"{d},{cells}" for d in dates]
        p.write_text(f"{header}\n{rows[0]}\n{rows[1]}\n# a note\n{rows[2]}\n")
        with pytest.raises(DataError) as exc:
            load_csv(p, schema)
        assert str(exc.value) == f"{p} line {line}: dates must be strictly increasing, got {earlier} before {later}"

    def test_long_format_one_row_day_names_its_line(self, tmp_path):
        p = tmp_path / "long.csv"
        p.write_text("date,time,price\n2024-03-04,09:30:00,100.0\n2024-03-05,09:30:00,100.0\n"
                     "2024-03-04,09:35:00,101.0\n")
        with pytest.raises(DataError) as exc:
            load_csv(p, "daily_bars")
        assert str(exc.value) == f"{p} line 3: 2024-03-05: insufficient intraday observations"

    @pytest.mark.parametrize("text, message", [
        ("", "{}: no data rows"),
        ("# only a note\ndate,low,high\n", "{}: no data rows"),
        ("# a note\ndate,low\n2024-01-02,0.1\n",
         "{} line 2: unknown columns ['date', 'low']; expected date,low,high"),
    ], ids=["empty", "header-only", "unknown-header"])
    def test_file_errors_name_the_file(self, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(DataError) as exc:
            load_csv(p, "intervals")
        assert str(exc.value) == message.format(p)


# ---------------------------------------------------------------------------
# The four-branch loader and the per-layout writers as they were before the
# layouts shared one row loop and one writer; kept to check that the shared
# code reads and writes every file exactly as they did.


def reference_load_csv(path, schema):
    def parse_float(cell, lineno, col):
        try:
            return float(cell)
        except ValueError as exc:
            raise DataError(f"line {lineno}: unparsable {col} value {cell!r}") from exc

    def parse_date(cell, lineno):
        try:
            return dt.date.fromisoformat(cell)
        except ValueError as exc:
            raise DataError(f"line {lineno}: unparsable date {cell!r}") from exc

    try:
        with open(path, newline="") as fh:
            raw = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [(n, [c.strip() for c in r]) for n, r in enumerate(raw, start=1) if r and not r[0].startswith("#")]
    if not rows:
        raise DataError("no data rows")
    (header_line, header), body = rows[0], rows[1:]
    cols = [c.lower() for c in header]
    if schema == "intervals":
        if cols != ["date", "low", "high"]:
            raise DataError(f"line {header_line}: unknown columns {header!r}")
        if not body:
            raise DataError("no data rows")
        dates, lows, highs = [], [], []
        for lineno, row in body:
            if len(row) != 3:
                raise DataError(f"line {lineno}: expected 3 columns, got {len(row)}")
            d = parse_date(row[0], lineno)
            lo = parse_float(row[1], lineno, "low")
            hi = parse_float(row[2], lineno, "high")
            if hi < lo:
                raise DataError(f"line {lineno}: high < low")
            dates.append(d)
            lows.append(lo)
            highs.append(hi)
        return IntervalSeries.from_bounds(lows, highs, dates=dates)
    if schema == "ticks":
        if cols not in (["timestamp", "bid", "ask"], ["timestamp", "bid", "ask", "price"]):
            raise DataError(f"line {header_line}: unknown columns {header!r}")
        if not body:
            raise DataError("no data rows")
        ticks = []
        for lineno, row in body:
            if len(row) != len(cols):
                raise DataError(f"line {lineno}: expected {len(cols)} columns, got {len(row)}")
            try:
                ts = dt.datetime.fromisoformat(row[0])
            except ValueError as exc:
                raise DataError(f"line {lineno}: unparsable timestamp {row[0]!r}") from exc
            if ts.tzinfo is not None:
                raise DataError(f"line {lineno}: timestamp {row[0]!r} carries a UTC offset")
            bid = parse_float(row[1], lineno, "bid") if row[1] else None
            ask = parse_float(row[2], lineno, "ask") if row[2] else None
            price = None
            if len(cols) == 4 and row[3]:
                price = parse_float(row[3], lineno, "price")
            try:
                ticks.append(QuoteTick(timestamp=ts, bid=bid, ask=ask, price=price))
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
        if any(b.timestamp < a.timestamp for a, b in zip(ticks, ticks[1:])):
            warnings.warn("tick timestamps unsorted; sorting")
            ticks.sort(key=lambda t: t.timestamp)
        return ticks
    if cols == ["date", "min_log", "max_log", "rv"]:
        if not body:
            raise DataError("no data rows")
        days = []
        for lineno, row in body:
            if len(row) != 4:
                raise DataError(f"line {lineno}: expected 4 columns, got {len(row)}")
            date = parse_date(row[0], lineno)
            min_log = parse_float(row[1], lineno, "min_log")
            max_log = parse_float(row[2], lineno, "max_log")
            rv = parse_float(row[3], lineno, "rv")
            try:
                days.append(DayBars(date=date, log_prices=None, min_log=min_log, max_log=max_log, rv=rv))
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
        return days
    if cols == ["date", "time", "price"]:
        if not body:
            raise DataError("no data rows")
        by_day, order = {}, []
        for lineno, row in body:
            if len(row) != 3:
                raise DataError(f"line {lineno}: expected 3 columns, got {len(row)}")
            d = parse_date(row[0], lineno)
            try:
                tm = dt.time.fromisoformat(row[1])
            except ValueError as exc:
                raise DataError(f"line {lineno}: unparsable time {row[1]!r}") from exc
            px = parse_float(row[2], lineno, "price")
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
    raise DataError(f"line {header_line}: unknown columns {header!r}")


def reference_meta_lines(meta):
    return "".join(f"# {k} = {v}\n" for k, v in (meta or {}).items())


def reference_intervals_text(series, meta=None):
    return reference_meta_lines(meta) + "date,low,high\n" + "".join(
        f"{d.isoformat()},{float(lo)!r},{float(hi)!r}\n"
        for d, lo, hi in zip(series.dates, series.lowers, series.uppers)
    )


def reference_bars_text(days, meta=None):
    return reference_meta_lines(meta) + "date,min_log,max_log,rv\n" + "".join(
        f"{d.date.isoformat()},{float(d.min_log)!r},{float(d.max_log)!r},{float(d.rv)!r}\n" for d in days
    )


def reference_ticks_text(ticks, meta=None):
    def cell(x):
        return "" if x is None else repr(float(x))

    return reference_meta_lines(meta) + "timestamp,bid,ask,price\n" + "".join(
        f"{t.timestamp.isoformat()},{cell(t.bid)},{cell(t.ask)},{cell(t.price)}\n" for t in ticks
    )


HEADERS = {
    "date,low,high": "intervals",
    "timestamp,bid,ask": "ticks",
    "timestamp,bid,ask,price": "ticks",
    "date,min_log,max_log,rv": "daily_bars",
    "date,time,price": "daily_bars",
}


def random_rows(header, rng):
    """Seeded valid data rows for one header: mixed float spellings,
    padded cells, empty quote or price cells, unsorted ticks and
    long-format rows in shuffled order."""
    n = int(rng.integers(2, 40))
    day0 = dt.date(2024, 3, 4)
    x = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-6, 3, size=(n, 3))

    def num(v):
        return str(rng.choice([repr(float(v)), f"{v:.6g}", f" {v:.3e} "]))

    def ordered(a, b):
        return ",".join(sorted([num(a), num(b)], key=float))

    if header == "date,low,high":
        return [f"{day0 + dt.timedelta(days=2 * i)},{ordered(a - abs(b), a + abs(b))}"
                for i, (a, b, _) in enumerate(x)]
    if header == "date,min_log,max_log,rv":
        return [f"{day0 + dt.timedelta(days=i)},{ordered(4.6 + a, 4.6 + a + abs(b))},{num(abs(c))}"
                for i, (a, b, c) in enumerate(x)]
    if header == "date,time,price":
        rows = [f"{day0 + dt.timedelta(days=d)},{h:02d}:{m:02d}:{s:02d},{num(100 * math.exp(v))}"
                for d in range(4) for (h, m, s), v in zip(
                    rng.integers((9, 0, 0), (17, 60, 60), size=(n, 3)).tolist(), x[:, 0] / 100)]
        rng.shuffle(rows)
        return rows
    rows = []
    for i, (a, b, _) in enumerate(x):
        ts = dt.datetime(2024, 3, 4, 9, 30) + dt.timedelta(seconds=float(rng.integers(0, 900)), microseconds=i)
        mid, half = 100 + a / 100, abs(b) / 1000 + 0.005
        bid, ask = num(mid - half), num(mid + half)
        if header == "timestamp,bid,ask":
            rows.append(f"{ts.isoformat()},{bid},{ask}")
        elif rng.random() < 0.5:
            rows.append(f"{ts.isoformat()},,,{num(mid)}")
        else:
            rows.append(f"{ts.isoformat()},{bid},{ask},{num(mid) if rng.random() < 0.5 else ''}")
    return rows


def load_both(path, schema):
    """(result, line named by the DataError) of the shared loader and
    of the reference loader."""
    out = []
    for loader in (load_csv, reference_load_csv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                out.append((loader(path, schema), None))
            except DataError as exc:
                out.append((None, re.search(r"line (\d+)", str(exc))))
    return out


class TestLoaderEquivalence:
    @pytest.mark.parametrize("header", HEADERS)
    def test_valid_files_load_equal(self, tmp_path, header):
        p = tmp_path / "data.csv"
        for seed in range(20):
            rng = np.random.default_rng([seed, 11])
            head = header.upper() if seed % 3 == 0 else header
            p.write_text(f"# seed = {seed}\n{head}\n" + "\n".join(random_rows(header, rng)) + "\n")
            (new, new_err), (ref, ref_err) = load_both(p, HEADERS[header])
            assert new_err is None and ref_err is None, (seed, new_err, ref_err)
            assert new == ref, seed

    FAULTS = {
        "bad number": lambda cells: [cells[0], "1.2.3", *cells[2:]],
        "column count": lambda cells: [*cells, "1"],
        "utc offset": lambda cells: [cells[0] + "+01:00", *cells[1:]],
        "high below low": lambda cells: [cells[0], cells[2], cells[1], *cells[3:]],
        "price not positive": lambda cells: [*cells[:-1], "-1.5"],
    }
    CASES = [(h, f) for h in HEADERS for f in ("bad number", "column count")] + [
        ("timestamp,bid,ask", "utc offset"),
        ("timestamp,bid,ask,price", "utc offset"),
        ("date,low,high", "high below low"),
        ("date,min_log,max_log,rv", "high below low"),
        ("timestamp,bid,ask,price", "price not positive"),
        ("date,time,price", "price not positive"),
    ]

    @pytest.mark.parametrize("header, fault", CASES)
    def test_faults_name_the_same_line(self, tmp_path, header, fault):
        p = tmp_path / "bad.csv"
        for seed in range(10):
            rng = np.random.default_rng([seed, 12])
            rows = random_rows(header, rng)
            at = int(rng.integers(0, len(rows)))
            cells = rows[at].split(",")
            if fault == "high below low" and float(cells[1]) == float(cells[2]):
                continue
            rows[at] = ",".join(self.FAULTS[fault](cells))
            p.write_text(f"{header}\n# a comment\n" + "\n".join(rows) + "\n")
            (_, new_err), (_, ref_err) = load_both(p, HEADERS[header])
            line = at + 3 if at else 3
            assert new_err is not None and ref_err is not None, seed
            assert new_err.group(1) == ref_err.group(1) == str(line), seed


class TestTickParserEdges:
    """The column step reads only what it has proven the row parser reads
    the same way; every other row goes to the row parser."""

    ROWS = ["2024-03-04T10:00:00,99.99,100.01", "2024-03-04T10:05:00.250,99.98,100.02",
            "2024-03-04T10:10:00.000001,99.97,100.03"]

    @pytest.mark.parametrize("stamp", ["NaT", "today", "2024-03-04T10:05:00Z", "2024-03-04T10:05:00+00:00",
                                       "0000-03-04T10:05:00"])
    def test_numpy_only_timestamps_name_their_line(self, tmp_path, capsys, stamp):
        # numpy reads each of these (the offsets as UTC); the loader must not
        p = tmp_path / "ticks.csv"
        p.write_text(f"timestamp,bid,ask\n{self.ROWS[0]}\n{stamp},99.98,100.02\n{self.ROWS[2]}\n")
        with pytest.raises(DataError, match="line 3: "):
            load_csv(p, "ticks")
        assert cli.main(["prepare", "--ticks", str(p), "--out-intervals", str(tmp_path / "iv.csv")]) == 2
        assert f"error: {p} line 3: " in capsys.readouterr().err
        assert not (tmp_path / "iv.csv").exists()

    @pytest.mark.parametrize("row, message", [
        ("2024-02-30T10:00:01,99.98,100.02", "day is out of range for month"),
        ("2024-03-04T10:05:00,1o0.0,100.02", "could not convert string to float: '1o0.0'"),
    ], ids=["impossible-date", "letter-in-number"])
    def test_cells_numpy_refuses_name_their_line(self, tmp_path, capsys, row, message):
        # each file is in the column form, so the column step reads it
        # until numpy refuses the bad cell; the row parser names its line
        body = f"{self.ROWS[0]}\n{{}}\n{self.ROWS[2]}\n"
        assert _tick_columns(body.format(self.ROWS[1]), 3) is not None
        assert _tick_columns(body.format(row), 3) is None
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,bid,ask\n" + body.format(row))
        assert cli.main(["prepare", "--ticks", str(p), "--out-intervals", str(tmp_path / "iv.csv")]) == 2
        assert capsys.readouterr().err == f"error: {p} line 3: {message}\n"
        assert not (tmp_path / "iv.csv").exists()

    # (name, file text) of valid files in forms other than the one isoformat() writes
    ODD_FILES = {
        "space separator": "timestamp,bid,ask\n2024-03-04 10:00:00,99.99,100.01\n2024-03-04 10:05:00,99.98,100.02\n",
        "date-only stamp": "timestamp,bid,ask\n2024-03-04,99.99,100.01\n2024-03-04T10:05:00,99.98,100.02\n",
        "comma fraction": 'timestamp,bid,ask\n"2024-03-04T10:00:00,5",99.99,100.01\n2024-03-04T10:05:00,99.98,100.02\n',
        "basic format": "timestamp,bid,ask\n20240304T100000,99.99,100.01\n2024-03-04T10:05:00,99.98,100.02\n",
        "7 fraction digits": "timestamp,bid,ask\n2024-03-04T10:00:00.1234567,99.99,100.01\n"
                             "2024-03-04T10:05:00,99.98,100.02\n",
        "padded cells": "timestamp,bid,ask,price\n 2024-03-04T10:00:00 , 99.99 ,100.01,  \n"
                        "2024-03-04T10:05:00,99.98,100.02, 100.0\n",
        "quoted cells": 'timestamp,bid,ask\n"2024-03-04T10:00:00","99.99",100.01\n2024-03-04T10:05:00,99.98,100.02\n',
        "crlf line endings": "timestamp,bid,ask\r\n2024-03-04T10:00:00,99.99,100.01\r\n"
                             "2024-03-04T10:05:00,99.98,100.02\r\n",
        "comment mid-file": "timestamp,bid,ask\n2024-03-04T10:00:00,99.99,100.01\n# a note, with commas\n"
                            "2024-03-04T10:05:00,99.98,100.02\n",
    }
    # forms datetime.fromisoformat reads only from Python 3.11 on
    NEWER = {"comma fraction", "basic format", "7 fraction digits"}

    @pytest.mark.parametrize("name", ODD_FILES)
    def test_odd_forms_load_as_the_reference_loads_them(self, tmp_path, name):
        p = tmp_path / "ticks.csv"
        p.write_bytes(self.ODD_FILES[name].encode())
        (new, new_err), (ref, ref_err) = load_both(p, "ticks")
        assert (ref_err is None) == (name not in self.NEWER or sys.version_info >= (3, 11))
        assert new == ref
        assert (new_err and new_err.group(1)) == (ref_err and ref_err.group(1))

    def test_unsorted_rows_warn_and_sort_stably(self, tmp_path):
        p = tmp_path / "ticks.csv"
        rows = ["2024-03-04T10:05:00,99.1,100.1", "2024-03-04T10:00:00,99.2,100.2",
                "2024-03-04T10:05:00,99.3,100.3", "2024-03-04T10:00:00,99.4,100.4"]
        p.write_text("timestamp,bid,ask\n" + "\n".join(rows) + "\n")
        with pytest.warns(UserWarning, match="unsorted; sorting"):
            ticks = load_csv(p, "ticks")
        assert [t.bid for t in ticks] == [99.2, 99.4, 99.1, 99.3]
        with pytest.warns(UserWarning, match="unsorted; sorting"):
            assert ticks == reference_load_csv(p, "ticks")

    @pytest.mark.parametrize("column", ["bid", "ask", "price"])
    @pytest.mark.parametrize("value", ["1e400", "nan", "0", "-1"])
    def test_bad_value_names_its_line(self, tmp_path, column, value):
        cells = {"bid": "99.99", "ask": "100.01", "price": "100.0", column: value}
        p = tmp_path / "ticks.csv"
        p.write_text("timestamp,bid,ask,price\n2024-03-04T10:00:00,99.99,100.01,100.0\n"
                     f"2024-03-04T10:05:00,{cells['bid']},{cells['ask']},{cells['price']}\n")
        with pytest.raises(DataError, match="line 3: .*finite and positive"):
            load_csv(p, "ticks")

    @pytest.mark.parametrize("cells", ["99.98,,", ",100.02,", ",,"])
    def test_row_without_quotes_or_price_names_its_line(self, tmp_path, cells):
        p = tmp_path / "ticks.csv"
        p.write_text(f"timestamp,bid,ask,price\n2024-03-04T10:00:00,99.99,100.01,\n2024-03-04T10:05:00,{cells}\n")
        with pytest.raises(DataError, match="line 3: .*neither quotes nor a price"):
            load_csv(p, "ticks")

    @pytest.mark.parametrize("body, line, cells", [
        # a carriage return also ends a csv line
        ("2024-03-04T10:00:00,99.98\r,100.02\n", 2, 2),
        # the cells of each row, but the lines split elsewhere
        ("2024-03-04T10:00:00,99.98,100.02,2024-03-04T10:05:00,99.97,100.03\n2024-03-04T10:10:00\n99.96,100.04\n",
         2, 6),
    ])
    def test_rows_split_across_lines_name_their_line(self, tmp_path, body, line, cells):
        p = tmp_path / "ticks.csv"
        p.write_bytes(f"timestamp,bid,ask\n{body}".encode())
        with pytest.raises(DataError, match=f"line {line}: expected 3 columns, got {cells}"):
            load_csv(p, "ticks")

    def test_files_the_program_writes_are_read_as_columns(self, tmp_path):
        # the fast path must serve the files save_ticks_csv writes (seconds
        # and microseconds mixed) and millisecond files
        p = tmp_path / "ticks.csv"
        for seed in (3, 4):
            save_ticks_csv(sorted(random_ticks(seed), key=lambda t: t.timestamp), p)
            body = p.read_text().split("\n", 1)[1]
            assert _tick_columns(body, 4) == reference_load_csv(p, "ticks")
        p.write_text("timestamp,bid,ask\n" + "\n".join(self.ROWS) + "\n")
        assert _tick_columns(p.read_text().split("\n", 1)[1], 3) == reference_load_csv(p, "ticks")


class TestTickReadersAgree:
    """The column step either declines a tick file's body or gives the
    columns the row loop gives (_parse_rows, then TickColumns.of), NaN
    matching NaN, on seeded bodies near the forms it accepts."""

    BODIES = 3000
    STAMPS = ["2024-03-04T10:00:00", "2024-03-04T10:00:00.250", "2024-03-04T10:00:00.000001",
              "2024-03-04 10:00:00", "2024-03-04", "NaT", "today", "2024-03-04T10:05:00Z",
              "2024-03-04T10:05:00+01:00", "0000-03-04T10:05:00", "0001-01-01T00:00:00",
              "9999-12-31T23:59:59.999999", " 2024-03-04T10:00:00", "2024-03-04T10:00:00.1234567",
              "20240304T100000", '"2024-03-04T10:00:00"', "2024-03-04T10:00", "2024-3-04T10:00:00"]
    NUMBERS = ["99.99", "100.01", "1e2", " 100 ", "", "", "nan", "inf", "-inf", "-1", "0", "0.0", "1e400",
               "1e-400", "5e-324", "1_000", "0x10", "\u0661\u0660\u0660", "+5", ".5", "5.", "1e", "abc",
               '"99.99"', "1,5", "100\r"]

    def stamp(self, rng):
        """A listed timestamp, or the isoformat of a random time with one
        digit changed, which keeps its form but may leave the calendar."""
        if rng.random() < 0.1:
            return rng.choice(self.STAMPS)
        t = dt.datetime(2024, 3, 4, 9, 30) + dt.timedelta(seconds=rng.randrange(30_000),
                                                          microseconds=rng.choice([0, 250_000, rng.randrange(10**6)]))
        text = t.isoformat()
        if rng.random() < 0.2:
            at = rng.choice([i for i, c in enumerate(text) if c.isdigit()])
            text = text[:at] + str(rng.randrange(10)) + text[at + 1:]
        return text

    def number(self, rng):
        return rng.choice(self.NUMBERS) if rng.random() < 0.08 else repr(rng.uniform(0.01, 200.0))

    def body(self, rng, width):
        rows = []
        for _ in range(rng.randrange(1, 6)):
            if rng.random() < 0.03:
                rows.append(rng.choice(["# a note", "", "#,,", ","]))
                continue
            cells = [self.stamp(rng)] + [self.number(rng) for _ in range(width - 1)]
            if width == 4 and rng.random() < 0.3:  # a price-only row
                cells[1:3] = ["", ""]
            rows.append(",".join(cells))
        return rng.choice(["\n", "\r\n"] if rng.random() < 0.05 else ["\n"]).join(rows) + rng.choice(["\n", ""])

    def test_the_column_step_declines_or_agrees(self):
        rng = random.Random(21)
        accepted = 0
        for i in range(self.BODIES):
            width = rng.choice([3, 4])
            body = self.body(rng, width)
            fast = _tick_columns(body, width)
            try:
                slow = TickColumns.of(_parse_rows(body, 2, _tick_row, width)[1])
            except DataError:
                slow = None
            if fast is None:
                continue
            accepted += 1
            assert slow is not None, (i, body)
            for a, b in zip(fast._columns(), slow._columns()):
                np.testing.assert_array_equal(a, b, err_msg=repr((i, body)))
        # both branches are exercised
        assert 0.2 * self.BODIES < accepted < 0.8 * self.BODIES, accepted


class TestWriterBytes:
    @pytest.mark.parametrize("meta", [None, {}, {"command": "prepare", "seed": 7, "note": "a = b"}])
    def test_save_functions_write_the_reference_bytes(self, tmp_path, meta):
        rng = np.random.default_rng(13)
        p = tmp_path / "out.csv"
        dates = [T0.date() + dt.timedelta(days=i) for i in range(30)]
        series = IntervalSeries(rng.normal(size=30), rng.gamma(2.0, 1.0, size=30), dates=dates)
        save_intervals_csv(series, p, meta=meta)
        assert p.read_text() == reference_intervals_text(series, meta)
        days = [make_day_bars(d, 4.6 + rng.normal(size=5).cumsum() / 100) for d in dates]
        days.append(day_bars_from_range(dates[-1] + dt.timedelta(days=1), 4.5, 4.7))
        save_bars_csv(days, p, meta=meta)
        assert p.read_text() == reference_bars_text(days, meta)
        ticks = random_ticks(5) + [tick(1.5, price=100.25), tick(2, bid=99.5, ask=np.float64(100.5))]
        save_ticks_csv(ticks, p, meta=meta)
        assert p.read_text() == reference_ticks_text(ticks, meta)
