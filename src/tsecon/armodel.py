"""Autoregressions: estimation, stationarity, population moments, forecasts.

An AR(p) is Y_t = b0 + b1 Y_{t-1} + ... + bp Y_{t-p} + u_t.  Estimation is
least squares on lagged values.  Stationarity queries work on the lag
polynomial 1 - b1 z - ... - bp z^p: the process is stationary when every
root lies outside the unit circle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .ols import OlsFit, ar_prefix_cross_products, lag_design, packed_index, solve_ols
from .series import TimeSeries, require_series

__all__ = [
    "LagPolynomial",
    "RootCheck",
    "ArFit",
    "Ar1Moments",
    "MaMoments",
    "ForecastResult",
    "fit_ar",
    "is_stationary",
    "ar1_moments",
    "ma_moments",
    "forecast_ar",
    "pseudo_out_of_sample_rmsfe",
]

UNIT_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class LagPolynomial:
    """Coefficients (b1, ..., bp) of 1 - b1 z - ... - bp z^p."""

    coefficients: tuple

    def __init__(self, coefficients):
        coeffs = tuple(float(c) for c in coefficients)
        if len(coeffs) < 1:
            raise DomainError("a lag polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise DomainError("lag polynomial coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def effective_coefficients(self) -> tuple:
        """Coefficients with trailing exact zeros trimmed."""
        coeffs = list(self.coefficients)
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        return tuple(coeffs)

    def roots(self) -> np.ndarray:
        """Roots of 1 - b1 z - ... - bp z^p (empty when all bi are zero)."""
        eff = self.effective_coefficients()
        if not eff:
            return np.array([], dtype=complex)
        # numpy wants highest degree first: [-bp, ..., -b1, 1]
        poly = np.concatenate([-np.asarray(eff[::-1], dtype=float), [1.0]])
        return np.roots(poly)


@dataclass(frozen=True)
class RootCheck:
    """Outcome of a stationarity query on a lag polynomial."""

    stationary: bool
    root_moduli: tuple  # sorted ascending
    has_unit_root: bool


def is_stationary(poly: LagPolynomial, tol: float = UNIT_ROOT_TOL) -> RootCheck:
    """Check that all roots of the lag polynomial lie outside the unit circle.

    Roots with modulus within tol of 1 are flagged as unit roots and the
    polynomial is classified as not stationary.
    """
    moduli = np.sort(np.abs(poly.roots()))
    has_unit = bool(np.any(np.abs(moduli - 1.0) <= tol))
    stationary = bool(np.all(moduli > 1.0 + tol))
    return RootCheck(
        stationary=stationary and not has_unit,
        root_moduli=tuple(float(m) for m in moduli),
        has_unit_root=has_unit,
    )


@dataclass(frozen=True)
class ArFit:
    """Estimated AR(p): intercept, lag polynomial, and the underlying fit."""

    intercept: float
    lag_poly: LagPolynomial
    order: int
    fit: OlsFit
    series_label: str | None = None

    @property
    def coefficients(self) -> tuple:
        return self.lag_poly.coefficients


def _check_order(p) -> None:
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise DomainError("autoregressive order must be a positive integer")


def fit_ar(series: TimeSeries, p: int) -> ArFit:
    """Estimate Y_t = b0 + b1 Y_{t-1} + ... + bp Y_{t-p} + u_t by OLS."""
    require_series("fit_ar", series)
    _check_order(p)
    T = len(series)
    if T <= 2 * (p + 1):
        raise DomainError(
            f"fitting AR({p}) needs more than {2 * (p + 1)} observations, got {T}"
        )
    X, names = lag_design(series.values[:, None], (series.label or "y",), p)
    fit = solve_ols(X, series.values[p:], names)
    return ArFit(
        intercept=float(fit.coefficients[0]),
        lag_poly=LagPolynomial(fit.coefficients[1:]),
        order=int(p),
        fit=fit,
        series_label=series.label,
    )


@dataclass(frozen=True)
class Ar1Moments:
    """Population moments of a stationary AR(1)."""

    mean: float
    variance: float
    beta1: float

    def autocovariance(self, tau: int) -> float:
        if tau < 0:
            raise DomainError("autocovariance lag must be nonnegative")
        return self.beta1**tau * self.variance

    def autocorrelation(self, tau: int) -> float:
        return self.autocovariance(tau) / self.variance


def ar1_moments(beta0: float, beta1: float, sigma2: float) -> Ar1Moments:
    """Closed forms mean = b0/(1-b1), variance = s2/(1-b1^2), gamma(tau) = b1^tau var."""
    if sigma2 < 0:
        raise DomainError("innovation variance must be nonnegative")
    if abs(beta1) >= 1:
        raise DomainError(f"AR(1) with |beta1| = {abs(beta1)} >= 1 has no stationary moments")
    mean = beta0 / (1.0 - beta1)
    variance = sigma2 / (1.0 - beta1**2)
    return Ar1Moments(mean=mean, variance=variance, beta1=beta1)


@dataclass(frozen=True)
class MaMoments:
    """Population moments of an MA(q): Y_t = a0 + u_t - a1 u_{t-1} - ... - aq u_{t-q}."""

    mean: float
    variance: float
    alphas: tuple
    sigma2: float

    def autocovariance(self, tau: int) -> float:
        if tau < 0:
            raise DomainError("autocovariance lag must be nonnegative")
        if tau == 0:
            return self.variance
        q = len(self.alphas)
        if tau > q:
            return 0.0
        a = self.alphas
        acc = -a[tau - 1]
        for j in range(1, q - tau + 1):
            acc += a[j - 1] * a[j + tau - 1]
        return self.sigma2 * acc

    def autocorrelation(self, tau: int) -> float:
        return self.autocovariance(tau) / self.variance


def ma_moments(alpha0: float, alphas, sigma2: float) -> MaMoments:
    """Moments of the finite moving average with the sign convention above."""
    if sigma2 < 0:
        raise DomainError("innovation variance must be nonnegative")
    alphas = tuple(float(a) for a in alphas)
    variance = sigma2 * (1.0 + sum(a**2 for a in alphas))
    return MaMoments(mean=float(alpha0), variance=variance, alphas=alphas, sigma2=float(sigma2))


@dataclass(frozen=True)
class ForecastResult:
    """Point forecasts for horizons 1..h plus an RMSFE estimate.

    The RMSFE figure is the regression standard error: it estimates the
    one step ahead root mean squared forecast error and ignores parameter
    estimation uncertainty.
    """

    point_forecasts: np.ndarray
    rmsfe_estimate: float
    horizon: int
    label: str | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.point_forecasts, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "point_forecasts", arr)


def iterate_linear_forecast(
    intercepts: np.ndarray,
    coeff_matrices: list,
    history: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Iterate z_{T+s} = d + sum_i A_i z_{T+s-i}, feeding forecasts back in.

    history has shape (T, k) with the most recent observation last; the
    return value has shape (horizon, k).  Shared by the scalar and vector
    forecasters so the k = 1 case degenerates exactly.
    """
    intercepts = np.asarray(intercepts, dtype=float)
    k = intercepts.size
    p = len(coeff_matrices)
    if history.shape[0] < p:
        raise DomainError(f"forecasting needs at least {p} trailing observations")
    buf = [history[-i].astype(float) for i in range(1, p + 1)]  # z_{T}, z_{T-1}, ...
    out = np.empty((horizon, k))
    for s in range(horizon):
        z = intercepts.copy()
        for i in range(p):
            z = z + coeff_matrices[i] @ buf[i]
        out[s] = z
        buf = [z] + buf[:-1]
    return out


def forecast_ar(fit: ArFit, history: TimeSeries, horizon: int) -> ForecastResult:
    """Iterated point forecasts from an estimated AR(p)."""
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise DomainError("forecast horizon must be a positive integer")
    require_series("forecast_ar", history)
    p = fit.order
    if len(history) < p:
        raise DomainError(f"history must contain at least {p} observations")
    mats = [np.array([[c]]) for c in fit.lag_poly.coefficients]
    path = iterate_linear_forecast(
        np.array([fit.intercept]), mats, history.values.reshape(-1, 1), int(horizon)
    )
    return ForecastResult(
        point_forecasts=path[:, 0],
        rmsfe_estimate=float(fit.fit.ser),
        horizon=int(horizon),
        label=history.label,
    )


def pseudo_out_of_sample_rmsfe(series: TimeSeries, p: int, split: float) -> float:
    """Root mean squared error of rolling one step ahead forecasts.

    The model is re-estimated on all data before each forecast date, starting
    at floor(split * T).  Both sides of the split must leave at least
    2 (p + 1) observations.

    Every estimation window is a row prefix of the AR(p) design of the whole
    series, so one cumulative pass over that design
    (:func:`ols.ar_prefix_cross_products`) gives the normal equations of every
    window, and one batched k x k solve gives the coefficients of every
    origin.  The design is centred, and each forecast error is taken in
    centred terms, so a series far from zero loses no digits to its level.
    The shortest window is fitted by :func:`fit_ar`: its rank and sample-size
    checks then hold for every longer window, which contains its rows.
    """
    require_series("pseudo_out_of_sample_rmsfe", series)
    _check_order(p)
    if not isinstance(split, numbers.Real) or not 0.0 < split < 1.0:
        raise DomainError("split must lie strictly between 0 and 1")
    T = len(series)
    start = int(math.floor(split * T))
    if start < 2 * (p + 1) + 1 or T - start < 2 * (p + 1):
        raise DomainError("split leaves too few observations on one side")
    fit_ar(TimeSeries(series.values[:start], label=series.label, origin=series.origin), p)
    X, y, S = ar_prefix_cross_products(series.values, p)
    # design row j forecasts value j + p from the window of rows 0..j-1
    first = start - p
    # [X | y]'[X | y] of each window
    M = S.T[first - 1 : -1, packed_index(p + 2)]
    try:
        beta = np.linalg.solve(M[:, :-1, :-1], M[:, :-1, -1:])[..., 0]
    except np.linalg.LinAlgError:
        raise DomainError("collinear regressors in a forecast window") from None
    errors = y[first:] - np.einsum("ti,ti->t", X[first:], beta)
    return float(np.sqrt(np.mean(errors**2)))
