"""Vector autoregressions: estimation, stability, moments, forecasts, Granger tests.

A VAR(p) is estimated by OLS on the one lag design every equation shares
(`ols.lag_design`: intercept, then all variables at lag 1, all at lag 2,
...), with all k equations solved from one factorisation of [X | Y].
Columns of the coefficient matrices follow the variable order of the input
mapping, so A_i[r, c] is the effect of variable c's i-th lag in the equation
for variable r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .armodel import ForecastResult, iterate_linear_forecast
from .errors import DomainError
from .ols import OlsFit, common_length, exclusion_f_test, lag_design, solve_ols
from .report import DEFAULT_LEVELS, TestReport, make_test_report
from .series import TimeSeries

__all__ = [
    "VarFit",
    "StabilityReport",
    "fit_var",
    "stability",
    "companion_matrix",
    "var_mean",
    "var_autocovariances",
    "forecast_var",
    "granger_test",
]

STABILITY_TOL = 1e-8


@dataclass(frozen=True)
class StabilityReport:
    """Companion eigenvalue moduli and the verdict they imply."""

    stable: bool
    root_moduli: tuple

    @property
    def has_unit_root(self) -> bool:
        return any(abs(m - 1.0) <= STABILITY_TOL for m in self.root_moduli)


def companion_matrix(coeff_matrices) -> np.ndarray:
    """Stacked VAR(1) form of a VAR(p): top block row holds A_1..A_p."""
    mats = [np.asarray(a, dtype=float) for a in coeff_matrices]
    if not mats:
        raise DomainError("companion form needs at least one coefficient matrix")
    k = mats[0].shape[0]
    for a in mats:
        if a.shape != (k, k):
            raise DomainError("coefficient matrices must all be square with equal size")
    p = len(mats)
    F = np.zeros((k * p, k * p))
    F[:k, :] = np.hstack(mats)
    if p > 1:
        F[k:, : k * (p - 1)] = np.eye(k * (p - 1))
    return F


def _stability_from_matrices(coeff_matrices) -> StabilityReport:
    F = companion_matrix(coeff_matrices)
    moduli = np.sort(np.abs(np.linalg.eigvals(F)))[::-1]
    stable = bool(np.all(moduli < 1.0 - STABILITY_TOL))
    return StabilityReport(stable=stable, root_moduli=tuple(float(m) for m in moduli))


@dataclass(frozen=True)
class VarFit:
    """OLS estimates of a VAR(p).

    equation_fits holds one OlsFit per equation, in the order of names.  They
    share one factorisation of the common design, so their `qr` carry the
    same r and each carries its own column of C and its own residual norm.
    """

    names: tuple
    p: int
    intercepts: np.ndarray
    coeff_matrices: tuple
    residual_cov: np.ndarray
    equation_fits: tuple
    n_obs: int

    def __post_init__(self) -> None:
        d = np.array(self.intercepts, dtype=float)
        d.flags.writeable = False
        object.__setattr__(self, "intercepts", d)
        mats = []
        for A in self.coeff_matrices:
            A = np.array(A, dtype=float)
            A.flags.writeable = False
            mats.append(A)
        object.__setattr__(self, "coeff_matrices", tuple(mats))
        S = np.array(self.residual_cov, dtype=float)
        S.flags.writeable = False
        object.__setattr__(self, "residual_cov", S)

    @property
    def k(self) -> int:
        return len(self.names)

    def equation(self, name: str) -> OlsFit:
        return self.equation_fits[self.names.index(name)]


def fit_var(data: Mapping[str, TimeSeries], p: int, names: Sequence[str] | None = None) -> VarFit:
    """OLS estimation of a VAR(p) on named series of equal length."""
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise DomainError("VAR order must be a positive integer")
    names = tuple(names) if names is not None else tuple(data)
    if not names:
        raise DomainError("a VAR needs at least one variable")
    k = len(names)
    n_obs = common_length(data, names) - p
    V = np.column_stack([data[nm].values for nm in names])
    X, columns = lag_design(V, names, p)
    fits = solve_ols(X, V[p:], columns)
    B = np.column_stack([f.coefficients for f in fits])  # row 0 intercepts, then lag blocks
    U = np.column_stack([f.residuals for f in fits])
    return VarFit(
        names=names,
        p=int(p),
        intercepts=B[0],
        coeff_matrices=tuple(B[1:].reshape(p, k, k).swapaxes(1, 2)),
        residual_cov=U.T @ U / n_obs,
        equation_fits=fits,
        n_obs=n_obs,
    )


def stability(source) -> StabilityReport:
    """Stability of a VarFit or of raw coefficient matrices.

    The VAR is stable iff every companion eigenvalue has modulus below
    1 - tol, equivalent to all lag-polynomial roots lying outside the
    unit circle.
    """
    if isinstance(source, VarFit):
        return _stability_from_matrices(source.coeff_matrices)
    return _stability_from_matrices(source)


def var_mean(intercepts, coeff_matrices) -> np.ndarray:
    """Stationary mean (I - sum A_i)^{-1} delta."""
    d = np.asarray(intercepts, dtype=float)
    k = d.size
    A_sum = np.zeros((k, k))
    for A in coeff_matrices:
        A_sum += np.asarray(A, dtype=float)
    try:
        return np.linalg.solve(np.eye(k) - A_sum, d)
    except np.linalg.LinAlgError:
        raise DomainError("VAR has a unit root; the stationary mean is undefined") from None


def var_autocovariances(source, tau_max: int, innovation_cov=None) -> list:
    """Autocovariance matrices Gamma(0..tau_max) of a stable VAR.

    Accepts a VarFit (uses its coefficient matrices and residual covariance)
    or a sequence of coefficient matrices plus an explicit innovation_cov.
    Gamma(0..p-1) solve the companion-form discrete Lyapunov equation by
    vectorization; higher lags follow the recursion
    Gamma(tau) = sum_i A_i Gamma(tau - i).
    """
    if isinstance(source, VarFit):
        mats = [np.asarray(A) for A in source.coeff_matrices]
        sigma = np.asarray(source.residual_cov, dtype=float)
    else:
        if innovation_cov is None:
            raise DomainError("innovation_cov is required with raw coefficient matrices")
        mats = [np.asarray(A, dtype=float) for A in source]
        sigma = np.asarray(innovation_cov, dtype=float)
    if not isinstance(tau_max, (int, np.integer)) or tau_max < 0:
        raise DomainError("tau_max must be a nonnegative integer")
    k = mats[0].shape[0]
    p = len(mats)
    if sigma.shape != (k, k):
        raise DomainError("innovation covariance must be k x k")
    check = _stability_from_matrices(mats)
    if not check.stable:
        raise DomainError(
            f"autocovariances require a stable VAR; largest eigenvalue modulus "
            f"{check.root_moduli[0]:.6f}"
        )
    F = companion_matrix(mats)
    kp = k * p
    Q = np.zeros((kp, kp))
    Q[:k, :k] = sigma
    S = np.linalg.solve(np.eye(kp * kp) - np.kron(F, F), Q.ravel()).reshape(kp, kp)
    S = 0.5 * (S + S.T)  # symmetrize away solver noise
    gammas = [S[:k, j * k : (j + 1) * k].copy() for j in range(min(tau_max, p - 1) + 1)]
    gammas[0] = 0.5 * (gammas[0] + gammas[0].T)
    for tau in range(len(gammas), tau_max + 1):
        G = np.zeros((k, k))
        for i, A in enumerate(mats, start=1):
            lag = tau - i
            G += A @ (gammas[lag] if lag >= 0 else gammas[-lag].T)
        gammas.append(G)
    return gammas


def forecast_var(fit: VarFit, history: Mapping[str, TimeSeries], horizon: int) -> dict:
    """Iterated point forecasts for every variable, as name -> ForecastResult.

    One-period-ahead forecasts of all variables feed back into the lagged
    state to produce each further horizon.
    """
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise DomainError("forecast horizon must be a positive integer")
    cols = []
    for nm in fit.names:
        if nm not in history:
            raise DomainError(f"history is missing series {nm!r}")
        cols.append(history[nm].values)
    lengths = {c.shape[0] for c in cols}
    if len(lengths) != 1:
        raise DomainError("history series must share a common length")
    H = np.column_stack(cols)
    if H.shape[0] < fit.p:
        raise DomainError(f"history must contain at least {fit.p} observations")
    path = iterate_linear_forecast(fit.intercepts, list(fit.coeff_matrices), H, int(horizon))
    sers = np.sqrt(np.diag(fit.residual_cov) * fit.n_obs / max(fit.n_obs - (fit.k * fit.p + 1), 1))
    return {
        nm: ForecastResult(
            point_forecasts=path[:, c],
            rmsfe_estimate=float(sers[c]),
            horizon=int(horizon),
            label=nm,
        )
        for c, nm in enumerate(fit.names)
    }


def granger_design(values: np.ndarray, p: int, names: Sequence[str]) -> tuple:
    """X and column names of the Granger regression of values (..., T, 2) = [effect, cause].

    `ols.lag_design`, reordered to [const, effect lags | the cause lags the test excludes].
    """
    X, columns = lag_design(values, names, p)
    order = [0, *range(1, 2 * p, 2), *range(2, 2 * p + 1, 2)]
    return X[..., order], tuple(columns[i] for i in order)


def granger_test(
    data: Mapping[str, TimeSeries],
    cause: str,
    effect: str,
    p: int,
    levels=DEFAULT_LEVELS,
) -> TestReport:
    """F-test of whether lags of `cause` improve the AR(p) forecast of `effect`.

    Bivariate form: the unrestricted model regresses the effect on an
    intercept, p of its own lags, and p lags of the cause; the restricted
    model drops the cause lags.  Other series in `data` are ignored.  One
    fit of the unrestricted model gives the F statistic.
    """
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise DomainError("lag order must be a positive integer")
    if cause == effect:
        raise DomainError("cause and effect must be different series")
    for nm in (cause, effect):
        if nm not in data:
            raise DomainError(f"data is missing series {nm!r}")
    common_length(data, (effect, cause))
    V = np.column_stack([data[effect].values, data[cause].values])
    X, names = granger_design(V, p, (effect, cause))
    fit = solve_ols(X, V[p:, 0], names)
    ftest = exclusion_f_test(fit, q=p)
    return make_test_report(
        name="granger",
        statistic=ftest.statistic,
        family={"family": "F", "df_num": ftest.df_num, "df_den": ftest.df_den},
        tail="right",
        critical_values=ftest.critical_values(levels),
        cv_provenance={"kind": "f_distribution"},
        nuisance={
            "cause": cause,
            "effect": effect,
            "p": int(p),
            "n_obs": int(fit.n_obs),
        },
    )
