"""Time series container and basic sample operations.

A :class:`TimeSeries` is an immutable wrapper around a 1-d float array with
an optional label and an integer origin marking the date of the first
observation.  All estimators in the package consume this type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["TimeSeries", "SampleMoments", "lag", "difference", "sample_moments"]


@dataclass(frozen=True)
class TimeSeries:
    """Equally spaced observations Y_1, ..., Y_T.

    Parameters
    ----------
    values : array_like
        Observations; must be finite reals with at least one element.
    label : str, optional
        Name used in reports and design-column labels.
    origin : int
        Integer date of the first observation.  Purely presentational:
        estimators work with positions, reports translate back.
    """

    values: np.ndarray
    label: str | None = None
    origin: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise DomainError("series values must be one dimensional")
        if arr.size < 1:
            raise DomainError("series must contain at least one observation")
        if not np.all(np.isfinite(arr)):
            raise DomainError("series values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if not isinstance(self.origin, (int, np.integer)):
            raise DomainError("origin must be an integer")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SampleMoments:
    """Sample mean, variance and autocovariance summary of one series."""

    mean: float
    variance: float
    autocovariances: np.ndarray  # indexed by lag j = 0..max_lag
    autocorrelations: np.ndarray
    n_obs: int
    max_lag: int
    full_sample_mean: bool = False

    def __post_init__(self) -> None:
        for name in ("autocovariances", "autocorrelations"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def require_series(caller: str, value) -> None:
    """Refuse anything but a TimeSeries with a DomainError naming the caller."""
    if not isinstance(value, TimeSeries):
        raise DomainError(f"{caller} needs a TimeSeries, got {type(value).__name__}")


def lag(series: TimeSeries, j: int) -> TimeSeries:
    """Return the series lagged by j periods.

    The result has length T - j and origin shifted forward by j, so that its
    value dated t equals the input's value dated t - j.
    """
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise DomainError("lag order must be a positive integer")
    T = len(series)
    if j >= T:
        raise DomainError(f"lag order {j} requires more than {T} observations")
    return TimeSeries(series.values[: T - j], label=series.label, origin=series.origin + j)


def difference(series: TimeSeries, order: int = 1) -> TimeSeries:
    """First difference, applied `order` times.

    Each application maps Y_t to Y_t - Y_(t-1) and shortens the series by
    one observation.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise DomainError("difference order must be a positive integer")
    if order >= len(series):
        raise DomainError(
            f"difference of order {order} requires at least {order + 1} observations"
        )
    out = series.values
    for _ in range(order):
        out = out[1:] - out[:-1]
    return TimeSeries(out, label=series.label, origin=series.origin + order)


def sample_moments(
    series: TimeSeries, max_lag: int, full_sample_mean: bool = False
) -> SampleMoments:
    """Sample mean, variance, autocovariances and autocorrelations.

    The autocovariance at lag j averages cross products over the T - j
    overlapping pairs but divides by T, and each factor is centered on the
    mean of its own alignment window:

        sigma_hat_j = (1/T) * sum_{t=j+1..T} (Y_t - mean(Y_{j+1..T}))
                                           * (Y_{t-j} - mean(Y_{1..T-j}))

    With ``full_sample_mean=True`` both windows are centered on the overall
    sample mean instead.  Autocorrelations divide by the sample variance
    (denominator T - 1); they are not forced into [-1, 1].

    A constant series has zero variance; its autocorrelations are reported
    as NaN rather than raising.
    """
    require_series("sample_moments", series)
    T = len(series)
    if T < 2:
        raise DomainError("sample moments require at least two observations")
    if not isinstance(max_lag, (int, np.integer)) or max_lag < 0:
        raise DomainError("max_lag must be a nonnegative integer")
    if max_lag > T - 2:
        raise DomainError(f"max_lag {max_lag} exceeds T - 2 = {T - 2}")

    y = series.values
    mean = float(np.mean(y))
    variance = float(np.var(y, ddof=1))

    autocov = np.empty(max_lag + 1)
    for j in range(max_lag + 1):
        head = y[j:]  # Y_{j+1} .. Y_T
        tail = y[: T - j]  # Y_1 .. Y_{T-j}
        if full_sample_mean:
            m_head = m_tail = mean
        else:
            m_head = head.mean()
            m_tail = tail.mean()
        autocov[j] = np.dot(head - m_head, tail - m_tail) / T

    with np.errstate(divide="ignore", invalid="ignore"):
        autocorr = np.where(variance > 0.0, autocov / variance, np.nan)

    return SampleMoments(
        mean=mean,
        variance=variance,
        autocovariances=autocov,
        autocorrelations=autocorr,
        n_obs=T,
        max_lag=int(max_lag),
        full_sample_mean=bool(full_sample_mean),
    )
