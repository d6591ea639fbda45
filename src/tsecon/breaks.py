"""Structural-break tests on autoregressions: Chow at a known date, QLR.

The Chow test augments an AR(p) with a break dummy D_t(tau) = 1{t <= tau}
and its interactions with every lag, then F-tests the p + 1 dummy
coefficients.  The QLR statistic is the maximum Chow F over all candidate
dates inside a trimmed window; its null distribution is nonstandard and
comes from the Monte Carlo critical-value cache.
"""

from __future__ import annotations

import numpy as np

from .cvcache import default_cache
from .errors import DomainError
from .ols import (
    ar_prefix_cross_products,
    exclusion_f_test,
    lag_design,
    normal_equations_ssr,
    solve_ols,
)
from .report import DEFAULT_LEVELS, TestReport, make_test_report
from .series import TimeSeries, require_series

__all__ = ["chow_test", "qlr_test", "qlr_window", "chow_f_scan"]


def _break_window(T: int, p: int) -> tuple[int, int]:
    """The first and last break position that leaves both regimes p + 2 observations.

    Regime 1 holds rows p..tau, tau - p + 1 of them, and regime 2 the other
    T - tau - 1, so the window is 2p + 1 .. T - p - 3.
    """
    return 2 * p + 1, T - p - 3


def _check_breaks(taus, T: int, p: int) -> None:
    """Refuse break positions that are not integers or fall outside :func:`_break_window`."""
    taus = np.asarray(taus)
    if not np.issubdtype(taus.dtype, np.integer):
        raise DomainError("break position must be an integer")
    lo, hi = _break_window(T, p)
    outside = taus[(taus < lo) | (taus > hi)]
    if outside.size:
        tau = int(outside.flat[0])
        raise DomainError(
            f"break at position {tau} leaves regimes of {max(tau - p + 1, 0)} and "
            f"{max(T - tau - 1, 0)} observations; both need at least {p + 2}"
        )


def chow_design(paths: np.ndarray, p: int, tau: int, name: str = "y") -> tuple:
    """X, y and column names of the Chow regression of every row of paths (..., T).

    The AR(p) `ols.lag_design`, then the p + 1 excluded columns: it times D_t(tau) = 1{t <= tau}.
    """
    base, names = lag_design(paths[..., None], (name,), p)
    d = (np.arange(p, paths.shape[-1]) <= tau)[:, None]
    names += (f"D({tau})",) + tuple(f"D({tau})*{name}.l{j}" for j in range(1, p + 1))
    return np.concatenate([base, d * base], axis=-1), paths[..., p:], names


def chow_test(series: TimeSeries, p: int, tau: int, levels=DEFAULT_LEVELS) -> TestReport:
    """F-test for a coefficient break at known position tau (0-based).

    Every observation with position <= tau belongs to the first regime.
    Both regimes must contribute at least p + 2 effective observations.
    One fit of the unrestricted AR(p) with break terms gives the F statistic.
    """
    require_series("chow_test", series)
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise DomainError("autoregressive order must be a positive integer")
    T = len(series)
    _check_breaks(tau, T, p)
    m1, m2 = tau - p + 1, T - tau - 1
    X, y, names = chow_design(series.values, p, tau, series.label or "y")
    ftest = exclusion_f_test(solve_ols(X, y, names), q=p + 1)
    return make_test_report(
        name="chow",
        statistic=ftest.statistic,
        family={"family": "F", "df_num": ftest.df_num, "df_den": ftest.df_den},
        tail="right",
        critical_values=ftest.critical_values(levels),
        cv_provenance={"kind": "f_distribution"},
        nuisance={
            "break_position": int(tau),
            "break_date": int(series.origin + tau),
            "regime_sizes": [int(m1), int(m2)],
            "p": int(p),
            "series": series.label,
        },
    )


def qlr_window(T: int, p: int, trim: float) -> np.ndarray:
    """Candidate break positions: trimmed range intersected with feasibility."""
    if not (0.0 < trim < 0.5):
        raise DomainError("trim must lie strictly between 0 and 0.5")
    first, last = _break_window(T, p)
    lo = max(int(np.ceil(trim * T)), first)
    hi = min(int(np.floor((1.0 - trim) * T)), last)
    if hi < lo:
        raise DomainError(f"no feasible break candidates for T = {T}, p = {p}, trim = {trim}")
    return np.arange(lo, hi + 1)


def chow_f_scan(paths: np.ndarray, p: int, taus: np.ndarray) -> np.ndarray:
    """Chow F statistics for every candidate date, batched over sample paths.

    paths has shape (R, T).  The unrestricted SSR at a split equals the sum
    of the two single-regime SSRs (the dummy block makes the regimes
    independent), so each candidate needs only prefix and suffix
    cross-products, accumulated once by :func:`ols.ar_prefix_cross_products`.
    Each regime's SSR s - h'G^-1 h comes from one symmetric elimination
    (:func:`ols.normal_equations_ssr`) over whole arrays of every path and
    date, with no coefficients and no solve per matrix.  A singular regime
    design or a non-finite F anywhere in the block raises
    :class:`DomainError`, and so does a date that is not an integer or leaves
    a regime fewer than p + 2 observations, as in :func:`chow_test`.
    """
    Y = np.atleast_2d(np.asarray(paths, dtype=float))
    n = Y.shape[1] - p
    k = p + 1
    taus = np.asarray(taus)
    _check_breaks(taus, Y.shape[1], p)
    N = taus.size
    # regimes carry their own intercepts, so centring changes no SSR
    S = ar_prefix_cross_products(Y, p)[2]
    # per entry, (R, 2N + 1): regime 1 (rows 0..tau - p) and regime 2 at each
    # date, then the full sample
    A = np.empty(S.shape[:-1] + (2 * N + 1,))
    np.take(S, taus - p, axis=-1, out=A[..., :N])
    A[..., 2 * N] = S[..., -1]
    np.subtract(A[..., 2 * N :], A[..., :N], out=A[..., N : 2 * N])
    try:
        ssr = np.maximum(normal_equations_ssr(A), 0.0)
    except np.linalg.LinAlgError:
        raise DomainError("collinear regressors inside the break scan") from None
    df_den = n - 2 * k
    if df_den < 1:
        raise DomainError("no residual degrees of freedom in the split regressions")
    ssr_split = ssr[:, :N] + ssr[:, N : 2 * N]
    with np.errstate(divide="ignore", invalid="ignore"):
        F = (np.maximum(ssr[:, 2 * N :] - ssr_split, 0.0) / k) / (ssr_split / df_den)
    if not np.all(np.isfinite(F)):
        raise DomainError("degenerate residual variance inside the break scan")
    return F


def qlr_test(
    series: TimeSeries,
    p: int,
    trim: float = 0.15,
    levels=DEFAULT_LEVELS,
    cv_source=None,
) -> TestReport:
    """Sup-F break test over an interior window of candidate dates."""
    require_series("qlr_test", series)
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise DomainError("autoregressive order must be a positive integer")
    T = len(series)
    taus = qlr_window(T, p, trim)
    F = chow_f_scan(series.values[None, :], p, taus)[0]
    best = int(np.argmax(F))
    stat = float(F[best])
    tau_star = int(taus[best])
    cache = default_cache(cv_source)
    cvs, provenance, tail = cache.critical_values(
        "qlr", {"p": int(p), "trim": f"{trim:g}"}, levels
    )
    if tail != "right":
        raise DomainError("cached QLR entry has the wrong tail direction")
    n = T - p
    return make_test_report(
        name="qlr",
        statistic=stat,
        family={
            "family": "sup_F",
            "df_num": p + 1,
            "df_den": n - 2 * (p + 1),
            "trim": float(trim),
        },
        tail="right",
        critical_values=cvs,
        cv_provenance=provenance,
        nuisance={
            "break_position": tau_star,
            "break_date": int(series.origin + tau_star),
            "window": [int(taus[0]), int(taus[-1])],
            "n_candidates": int(taus.size),
            "p": int(p),
            "series": series.label,
        },
    )
