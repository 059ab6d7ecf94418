"""Interval-valued observations and their descriptive statistics.

An interval observation is stored as (center, radius) with radius >= 0.
Centers and radii are the native coordinates of all model equations, so
bounds (lower, upper) are derived views. Distances use the L2 metric on
(center, radius) pairs; means are componentwise (Aumann); variances and
covariances add the center and radius components.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exceptions import DataError

__all__ = [
    "Interval",
    "IntervalSeries",
    "SummaryMoments",
    "rho2_distance",
    "aumann_mean",
    "sample_variance",
    "sample_covariance",
    "sample_correlation",
    "sample_acf",
    "component_acf",
    "summarize",
]


def _in_date_order(dates: Sequence, lines: Sequence[int] | None = None) -> None:
    """Refuse dates that do not strictly increase, naming the first one out
    of order, and its line when lines gives each date's line number."""
    for i, (a, b) in enumerate(zip(dates, dates[1:]), start=1):
        if not a < b:
            where = "" if lines is None else f"line {lines[i]}: "
            raise DataError(f"{where}dates must be strictly increasing, got {a} before {b}")


@dataclass(frozen=True)
class Interval:
    """A closed real interval in (center, radius) coordinates.

    Parameters
    ----------
    center : float
        Midpoint of the interval.
    radius : float
        Half-width; must be nonnegative and finite.
    """

    center: float
    radius: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.center) and np.isfinite(self.radius)):
            raise DataError("interval coordinates must be finite")
        if self.radius < 0:
            raise DataError(f"interval radius must be >= 0, got {self.radius}")

    @classmethod
    def from_bounds(cls, lower: float, upper: float) -> "Interval":
        """Build from endpoints; requires lower <= upper."""
        if lower > upper:
            raise DataError(f"lower bound {lower} exceeds upper bound {upper}")
        return cls(center=(lower + upper) / 2.0, radius=(upper - lower) / 2.0)

    @property
    def lower(self) -> float:
        return self.center - self.radius

    @property
    def upper(self) -> float:
        return self.center + self.radius

    def __contains__(self, x: float) -> bool:
        return self.lower <= x <= self.upper


class IntervalSeries:
    """An ordered sequence of intervals with optional strictly increasing dates.

    Stores centers and radii as float arrays. All statistics below operate
    on these two component series.
    """

    __slots__ = ("_centers", "_radii", "_dates")

    def __init__(
        self,
        centers: Sequence[float] | np.ndarray,
        radii: Sequence[float] | np.ndarray,
        dates: Sequence[_dt.date] | None = None,
    ) -> None:
        c = np.asarray(centers, dtype=float)
        r = np.asarray(radii, dtype=float)
        if c.ndim != 1 or r.ndim != 1 or c.shape != r.shape:
            raise DataError("centers and radii must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(r))):
            raise DataError("interval coordinates must be finite")
        if np.any(r < 0):
            bad = int(np.argmax(r < 0))
            raise DataError(f"negative radius at position {bad}")
        self._centers = c
        self._radii = r
        if dates is not None:
            dates = tuple(dates)
            if len(dates) != len(c):
                raise DataError("dates length does not match series length")
            _in_date_order(dates)
        self._dates = dates

    @classmethod
    def from_intervals(
        cls, intervals: Iterable[Interval], dates: Sequence[_dt.date] | None = None
    ) -> "IntervalSeries":
        ivs = list(intervals)
        return cls([iv.center for iv in ivs], [iv.radius for iv in ivs], dates)

    @classmethod
    def from_bounds(
        cls,
        lowers: Sequence[float] | np.ndarray,
        uppers: Sequence[float] | np.ndarray,
        dates: Sequence[_dt.date] | None = None,
    ) -> "IntervalSeries":
        lo = np.asarray(lowers, dtype=float)
        up = np.asarray(uppers, dtype=float)
        if lo.shape != up.shape:
            raise DataError("lower and upper bound arrays must have equal length")
        if np.any(lo > up):
            bad = int(np.argmax(lo > up))
            raise DataError(f"lower bound exceeds upper bound at position {bad}")
        with np.errstate(over="ignore", invalid="ignore"):  # __init__ refuses what overflows
            return cls((lo + up) / 2.0, (up - lo) / 2.0, dates)

    @property
    def centers(self) -> np.ndarray:
        return self._centers

    @property
    def radii(self) -> np.ndarray:
        return self._radii

    @property
    def dates(self) -> tuple | None:
        return self._dates

    @property
    def lowers(self) -> np.ndarray:
        return self._centers - self._radii

    @property
    def uppers(self) -> np.ndarray:
        return self._centers + self._radii

    def __len__(self) -> int:
        return self._centers.shape[0]

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            d = self._dates[idx] if self._dates is not None else None
            return IntervalSeries(self._centers[idx], self._radii[idx], d)
        return Interval(float(self._centers[idx]), float(self._radii[idx]))

    def __iter__(self) -> Iterator[Interval]:
        for c, r in zip(self._centers, self._radii):
            yield Interval(float(c), float(r))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSeries):
            return NotImplemented
        return (
            np.array_equal(self._centers, other._centers)
            and np.array_equal(self._radii, other._radii)
            and self._dates == other._dates
        )

    def __repr__(self) -> str:
        return f"IntervalSeries(n={len(self)}, dated={self._dates is not None})"


@dataclass(frozen=True)
class SummaryMoments:
    """Sample summary of an interval series.

    mean is the Aumann (componentwise) mean; variance and autocovariances
    use divisor n-1 uniformly, so autocovariances[0] equals variance.
    """

    mean: Interval
    variance: float
    autocovariances: np.ndarray = field(repr=False)


def rho2_distance(x: Interval, y: Interval) -> float:
    """L2 distance between intervals: sqrt(dc^2 + dr^2) on (center, radius)."""
    return float(np.hypot(x.center - y.center, x.radius - y.radius))


def aumann_mean(series: IntervalSeries) -> Interval:
    """Componentwise mean interval. Raises on an empty series."""
    if len(series) == 0:
        raise DataError("empty input")
    return Interval(float(series.centers.mean()), float(series.radii.mean()))


def sample_variance(series: IntervalSeries) -> float:
    """Sample variance, divisor n-1: var(centers) + var(radii).

    This is the Frechet variance under the rho2 metric: the mean interval
    minimizes the average squared rho2 distance, and this is that minimum
    (scaled by n/(n-1)).
    """
    if len(series) < 2:
        raise DataError("insufficient data: variance needs at least 2 observations")
    return sample_covariance(series, series)


def sample_covariance(a: IntervalSeries, b: IntervalSeries) -> float:
    """Sample covariance (divisor n-1): cov(centers) + cov(radii)."""
    if len(a) != len(b):
        raise DataError("series lengths differ")
    if len(a) < 2:
        raise DataError("insufficient data: covariance needs at least 2 observations")
    cc = _lagged_sums(a.centers, b.centers, 0)[0]
    rr = _lagged_sums(a.radii, b.radii, 0)[0]
    return float((cc + rr) / (len(a) - 1))


def sample_correlation(a: IntervalSeries, b: IntervalSeries) -> float:
    """Sample correlation: covariance normalized by the two variances,
    clamped to [-1, 1] against rounding."""
    va = sample_variance(a)
    vb = sample_variance(b)
    if va <= 0 or vb <= 0:
        raise DataError("degenerate series")
    return min(1.0, max(-1.0, sample_covariance(a, b) / float(np.sqrt(va * vb))))


def _lagged_sums(x: np.ndarray, y: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_t (x_t - xbar)(y_{t+s} - ybar) for s = 0..max_lag; every
    second moment here is one of these over its divisor."""
    n = x.shape[0]
    xc, yc = x - x.mean(), y - y.mean()
    out = np.empty(max_lag + 1)
    for s in range(max_lag + 1):
        out[s] = np.dot(xc[: n - s], yc[s:])
    return out


def sample_acf(series: IntervalSeries, max_lag: int) -> np.ndarray:
    """Autocorrelations of an interval series for lags 0..max_lag.

    rho(s) = (gamma_c(s) + gamma_r(s)) / (gamma_c(0) + gamma_r(0)) where
    gamma_c, gamma_r are the biased (divisor n) autocovariances of the
    center and radius components. The common divisor cancels; using the
    biased estimator keeps |rho(s)| <= 1 for every lag.
    """
    if max_lag < 0:
        raise DataError("max_lag must be >= 0")
    n = len(series)
    if n <= max_lag + 1:
        raise DataError("insufficient data: series length must exceed max_lag + 1")
    c, r = series.centers, series.radii
    num = _lagged_sums(c, c, max_lag) / n + _lagged_sums(r, r, max_lag) / n
    if num[0] <= 0:
        raise DataError("degenerate series")
    return num / num[0]


def component_acf(values: Sequence[float] | np.ndarray, max_lag: int) -> np.ndarray:
    """Autocorrelations of a scalar series: sample_acf with radius 0."""
    x = np.asarray(values, dtype=float)
    return sample_acf(IntervalSeries(x, np.zeros_like(x)), max_lag)


def summarize(series: IntervalSeries, max_lag: int = 0) -> SummaryMoments:
    """Mean, variance, and autocovariances (divisor n-1 throughout)."""
    if max_lag < 0:
        raise DataError("max_lag must be >= 0")
    n = len(series)
    if n < 2:
        raise DataError("insufficient data: summary needs at least 2 observations")
    if n <= max_lag:
        raise DataError("insufficient data: series length must exceed max_lag")
    c, r = series.centers, series.radii
    acov = (_lagged_sums(c, c, max_lag) + _lagged_sums(r, r, max_lag)) / (n - 1)
    return SummaryMoments(aumann_mean(series), float(acov[0]), acov)
