"""Dickey-Fuller style unit-root testing.

The test regression is

    dY_t = b0 [+ a t] + delta Y_{t-1} + sum_{i=1..p} g_i dY_{t-i} + u_t

and the statistic is the t-ratio on delta, judged against left-tail
critical values simulated under the random-walk null (the distribution is
not a t distribution).  ``deterministic`` picks drift only or drift plus
linear trend; augmentation lags default to BIC selection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cvcache import default_cache
from .errors import DomainError
from .ols import lstsq_buffer, qr_factorise, solve_ols
from .ols import build_design  # noqa: F401  rebound by perfbench/layers.py until ROADMAP item 2
from .report import DEFAULT_LEVELS, TestReport, make_test_report
from .series import TimeSeries, require_series

__all__ = ["AdfSpec", "adf_test", "default_adf_pmax"]

# deterministic terms plus y_{t-1}, in every candidate; "none" is internal (residual tests)
_FIXED_COLUMNS = {"drift": 2, "trend": 3, "none": 1}


def default_adf_pmax(n_obs: int) -> int:
    """Default cap for BIC lag selection: floor(4 * (n/100)^(1/4))."""
    if n_obs < 1:
        return 0
    return int(np.floor(4.0 * (n_obs / 100.0) ** 0.25))


def resolve_adf_pmax(n_obs: int) -> int:
    """Default cap clipped so the common selection sample stays workable."""
    return min(default_adf_pmax(n_obs), max(0, (n_obs - 8) // 3))


@dataclass(frozen=True)
class AdfSpec:
    """Unit-root regression layout: augmentation lags and deterministic terms.

    lags may be a nonnegative integer or "auto" for BIC selection over
    0..default_adf_pmax(T).
    """

    lags: int | str = "auto"
    deterministic: str = "drift"

    def __post_init__(self):
        if self.deterministic not in ("drift", "trend"):
            raise DomainError("deterministic must be 'drift' or 'trend'")
        if isinstance(self.lags, str):
            if self.lags != "auto":
                raise DomainError("lags must be a nonnegative integer or 'auto'")
        elif not isinstance(self.lags, (int, np.integer)) or self.lags < 0:
            raise DomainError("lags must be a nonnegative integer or 'auto'")

    @property
    def lag_token(self) -> str:
        return "auto" if self.lags == "auto" else str(int(self.lags))


def _adf_block_design(paths: np.ndarray, deterministic: str, lags: int):
    """The ADF regression of every row of an (R, T) block of paths, as [X | y].

    Rows t = lags + 1 .. T - 1.  The k columns of X and then y are written
    straight into an `ols.lstsq_buffer` (R, rows, k + 1), ready for
    `ols.qr_factorise`; returns it and the column names.  The buffer is
    column-major, so a product that must match a C-order X bit for bit
    (`solve_ols`' fitted values) needs a C-order copy of X.
    """
    R, T = paths.shape
    t0 = lags + 1
    rows = T - t0
    fixed = _FIXED_COLUMNS[deterministic]
    k = fixed + lags
    if rows < k + 1:
        raise DomainError(f"effective sample of {max(rows, 0)} rows cannot identify {k} parameters")
    a = lstsq_buffer((R,), rows, k + 1)
    if deterministic in ("drift", "trend"):
        a[..., 0] = 1.0
    if deterministic == "trend":
        a[..., 1] = np.arange(t0, T, dtype=float)
    a[..., fixed - 1] = paths[:, t0 - 1 : T - 1]
    # column fixed - 1 + j holds dy_{t-j} = y_{t-j} - y_{t-j-1}; j = 0 is the response
    for j in range(1, lags + 1):
        np.subtract(paths[:, t0 - j : T - j], paths[:, t0 - 1 - j : T - 1 - j],
                    out=a[..., fixed - 1 + j])
    np.subtract(paths[:, t0:], paths[:, t0 - 1 : T - 1], out=a[..., k])
    names = ("const", "trend")[: fixed - 1] + ("y.l1",)
    names += tuple(f"dy.l{j}" for j in range(1, lags + 1))
    return a, names


def select_adf_lags(paths: np.ndarray, deterministic: str, p_max: int):
    """BIC over 0..p_max, all candidates on the common sample of p_max.

    `paths` is one (T,) path, giving an int, or an (R, T) block, giving an
    int per row; one factorisation of the p_max regression gives the SSR of
    every candidate.  The criterion is ln(SSR/n) + k ln(n)/n with k the full
    parameter count of the candidate regression.  Ties go to fewer lags.
    """
    if deterministic not in _FIXED_COLUMNS:
        raise DomainError(f"deterministic must be one of {tuple(_FIXED_COLUMNS)}")
    paths = np.asarray(paths, dtype=float)
    a, names = _adf_block_design(np.atleast_2d(paths), deterministic, p_max)
    n = a.shape[1]
    k_fixed = _FIXED_COLUMNS[deterministic]
    # column ell: the candidate with ell lags
    ssr = qr_factorise(a, len(names)).prefix_ssr()[:, k_fixed:]
    k = k_fixed + np.arange(p_max + 1)
    bic = np.log(np.maximum(ssr, 1e-300) / n) + k * np.log(n) / n
    chosen = np.argmin(bic, axis=1)  # first minimum = fewest lags on ties
    return chosen if paths.ndim == 2 else int(chosen[0])


def adf_block_statistic(paths: np.ndarray, deterministic: str, lags) -> np.ndarray:
    """The t-ratios of `adf_statistic` for every row of an (R, T) block of paths."""
    if lags == "auto":
        chosen = select_adf_lags(paths, deterministic, resolve_adf_pmax(paths.shape[1]))
        stats = np.empty(len(paths))
        for ell in np.unique(chosen):
            mask = chosen == ell
            stats[mask] = adf_block_statistic(paths[mask], deterministic, int(ell))
        return stats
    a, names = _adf_block_design(paths, deterministic, int(lags))
    beta, stderrs = qr_factorise(a, len(names)).solve()
    i = _FIXED_COLUMNS[deterministic] - 1  # the y_{t-1} column
    return beta[:, i] / stderrs[:, i]


def adf_statistic(values: np.ndarray, deterministic: str, lags: int | str):
    """Resolve lags, run the regression, return (t-ratio, fit, lags used)."""
    if lags == "auto":
        p_max = resolve_adf_pmax(values.size)
        lags_used = select_adf_lags(values, deterministic, p_max)
    else:
        lags_used = int(lags)
    a, names = _adf_block_design(values[None], deterministic, lags_used)
    # fitted values read X in C order, as `lag_design` and every other public fit lay it out
    fit = solve_ols(np.ascontiguousarray(a[0, :, :-1]), a[0, :, -1], names)
    return fit.t_stat("y.l1"), fit, lags_used


def adf_test(
    series: TimeSeries,
    spec: AdfSpec | None = None,
    levels=DEFAULT_LEVELS,
    cv_source=None,
) -> TestReport:
    """Unit-root test; rejection favors stationarity around the deterministic part."""
    require_series("adf_test", series)
    spec = spec or AdfSpec()
    T = len(series)
    fixed = 0 if spec.lags == "auto" else int(spec.lags)
    if T - 1 - fixed < 20:
        raise DomainError("ADF needs an effective sample of at least 20 observations")
    stat, fit, lags_used = adf_statistic(series.values, spec.deterministic, spec.lags)
    if fit.n_obs < 50:
        warnings.warn(
            f"ADF effective sample is only {fit.n_obs}; critical values may be unreliable",
            UserWarning,
            stacklevel=2,
        )
    cache = default_cache(cv_source)
    cvs, provenance, tail = cache.critical_values(
        "adf", {"deterministic": spec.deterministic, "lags": spec.lag_token}, levels
    )
    if tail != "left":
        raise DomainError("cached ADF entry has the wrong tail direction")
    return make_test_report(
        name="adf",
        statistic=stat,
        family={
            "family": "dickey_fuller",
            "deterministic": spec.deterministic,
            "augmentation_lags": lags_used,
        },
        tail="left",
        critical_values=cvs,
        cv_provenance=provenance,
        nuisance={
            "delta_hat": fit.coefficient("y.l1"),
            "delta_se": float(fit.stderrs[fit.column_names.index("y.l1")]),
            "lags": spec.lag_token,
            "lags_used": int(lags_used),
            "n_obs": int(fit.n_obs),
            "series": series.label,
        },
    )
