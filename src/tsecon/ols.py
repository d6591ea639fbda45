"""Design matrix construction and the least squares kernel.

Regressions are declared as a :class:`DesignSpec`: a response reference plus
a list of term objects (intercept, lags, trend, break dummies and their lag
interactions, contemporaneous levels, and lead/lag differences).  The
builder aligns all terms on a common effective sample, trimming exactly as
many observations from each end as the terms require.

The solver uses an orthogonal decomposition (LAPACK SVD via lstsq).  Normal
equations are never formed here; an extended precision normal-equations
oracle lives in the test suite for cross checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import CollinearityError, DomainError
from .series import TimeSeries

__all__ = [
    "Intercept",
    "Trend",
    "Lag",
    "BreakDummy",
    "BreakLagInteraction",
    "Level",
    "DiffLag",
    "Diff",
    "DesignSpec",
    "Design",
    "OlsFit",
    "FTest",
    "build_design",
    "solve_ols",
    "fit_design",
    "f_statistic",
]


# --- term vocabulary ---------------------------------------------------------


@dataclass(frozen=True)
class Intercept:
    """Constant regressor."""


@dataclass(frozen=True)
class Trend:
    """Deterministic linear trend t (position index of the response row)."""


@dataclass(frozen=True)
class Lag:
    """Lagged value of a named series: s_{t-j}; j >= 1 lags, j <= -1 leads."""

    name: str
    j: int


@dataclass(frozen=True)
class BreakDummy:
    """Indicator D_t(tau) = 1 for t <= tau, 0 after, with tau a 0-based position."""

    tau: int


@dataclass(frozen=True)
class BreakLagInteraction:
    """Product D_t(tau) * s_{t-j}."""

    tau: int
    name: str
    j: int


@dataclass(frozen=True)
class Level:
    """Contemporaneous value of a named series."""

    name: str


@dataclass(frozen=True)
class DiffLag:
    """Lead or lag of the first difference: (s_{t-j} - s_{t-j-1}).

    j may be negative; j = -2 means the difference two periods ahead.
    """

    name: str
    j: int


@dataclass(frozen=True)
class Diff:
    """Response transform: first difference of a named series (response only)."""

    name: str


RegressorTerm = Union[Intercept, Trend, Lag, BreakDummy, BreakLagInteraction, Level, DiffLag]
Response = Union[Level, Diff]


def _term_window(term) -> tuple[int, int]:
    """(observations required before t, observations required after t)."""
    if isinstance(term, (Intercept, Trend, BreakDummy, Level)):
        return 0, 0
    if isinstance(term, Lag):
        return (term.j, 0) if term.j >= 1 else (0, -term.j)
    if isinstance(term, BreakLagInteraction):
        return term.j, 0
    if isinstance(term, DiffLag):
        if term.j >= 0:
            return term.j + 1, 0
        return 0, -term.j
    if isinstance(term, Diff):
        return 1, 0
    raise DomainError(f"unknown design term {term!r}")


def _term_name(term) -> str:
    if isinstance(term, Intercept):
        return "const"
    if isinstance(term, Trend):
        return "trend"
    if isinstance(term, Lag):
        if term.j >= 1:
            return f"{term.name}.l{term.j}"
        return f"{term.name}.f{-term.j}"
    if isinstance(term, BreakDummy):
        return f"D({term.tau})"
    if isinstance(term, BreakLagInteraction):
        return f"D({term.tau})*{term.name}.l{term.j}"
    if isinstance(term, Level):
        return term.name
    if isinstance(term, DiffLag):
        if term.j >= 0:
            return f"d{term.name}.l{term.j}"
        return f"d{term.name}.f{-term.j}"
    if isinstance(term, Diff):
        return f"d{term.name}"
    raise DomainError(f"unknown design term {term!r}")


@dataclass(frozen=True)
class DesignSpec:
    """Declarative regression: response reference plus regressor terms."""

    dependent: Response
    regressors: tuple

    def __init__(self, dependent: Response, regressors: Sequence[RegressorTerm]):
        object.__setattr__(self, "dependent", dependent)
        object.__setattr__(self, "regressors", tuple(regressors))
        self._validate()

    def _validate(self) -> None:
        if not isinstance(self.dependent, (Level, Diff)):
            raise DomainError("response must be a Level or Diff reference")
        if len(self.regressors) == 0:
            raise DomainError("at least one regressor term is required")
        n_intercepts = sum(isinstance(t, Intercept) for t in self.regressors)
        if n_intercepts > 1:
            raise DomainError("at most one intercept term is allowed")
        for t in self.regressors:
            if isinstance(t, BreakLagInteraction) and t.j < 1:
                raise DomainError("lag order must be at least 1")
            if isinstance(t, Lag) and t.j == 0:
                raise DomainError("lag order 0 duplicates the level term")
            if isinstance(t, (BreakDummy, BreakLagInteraction)) and t.tau < 0:
                raise DomainError("break position must be nonnegative")


@dataclass(frozen=True)
class Design:
    """Built regression arrays on the common effective sample."""

    matrix: np.ndarray
    response: np.ndarray
    column_names: tuple
    times: np.ndarray  # 0-based positions of the response rows

    @property
    def n_obs(self) -> int:
        return int(self.response.size)


def build_design(spec: DesignSpec, data: Mapping[str, TimeSeries]) -> Design:
    """Materialize a :class:`DesignSpec` against named series of equal length."""
    used = set()
    for term in (spec.dependent, *spec.regressors):
        name = getattr(term, "name", None)
        if name is not None:
            if name not in data:
                raise DomainError(f"unknown series {name!r} in design")
            used.add(name)
    lengths = {name: len(data[name]) for name in used}
    if len(set(lengths.values())) > 1:
        raise DomainError(f"series lengths differ: {lengths}")
    T = next(iter(lengths.values()))

    windows = [_term_window(t) for t in (spec.dependent, *spec.regressors)]
    back = max(w[0] for w in windows)
    fwd = max(w[1] for w in windows)
    t0, t1 = back, T - 1 - fwd
    n = t1 - t0 + 1
    k = len(spec.regressors)
    if n < k + 1:
        raise DomainError(
            f"effective sample of {max(n, 0)} rows cannot identify {k} parameters"
        )

    times = np.arange(t0, t1 + 1)

    def column(term) -> np.ndarray:
        if isinstance(term, Intercept):
            return np.ones(n)
        if isinstance(term, Trend):
            return times.astype(float)
        if isinstance(term, Lag):
            v = data[term.name].values
            return v[t0 - term.j : t1 + 1 - term.j]
        if isinstance(term, BreakDummy):
            return (times <= term.tau).astype(float)
        if isinstance(term, BreakLagInteraction):
            v = data[term.name].values
            return (times <= term.tau) * v[t0 - term.j : t1 + 1 - term.j]
        if isinstance(term, Level):
            return data[term.name].values[t0 : t1 + 1].astype(float)
        if isinstance(term, DiffLag):
            v = data[term.name].values
            hi = v[t0 - term.j : t1 + 1 - term.j]
            lo = v[t0 - term.j - 1 : t1 - term.j]
            return hi - lo
        if isinstance(term, Diff):
            v = data[term.name].values
            return v[t0 : t1 + 1] - v[t0 - 1 : t1]
        raise DomainError(f"unknown design term {term!r}")

    X = np.column_stack([column(t) for t in spec.regressors])
    y = column(spec.dependent)
    names = tuple(_term_name(t) for t in spec.regressors)
    return Design(matrix=X, response=y, column_names=names, times=times)


# --- least squares -----------------------------------------------------------


@dataclass(frozen=True)
class OlsFit:
    """Least squares fit with homoskedastic standard errors."""

    coefficients: np.ndarray
    stderrs: np.ndarray
    t_stats: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    ssr: float
    ser: float
    n_obs: int
    n_params: int
    column_names: tuple

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.column_names.index(name)])

    def t_stat(self, name: str) -> float:
        return float(self.t_stats[self.column_names.index(name)])


class FTest(NamedTuple):
    statistic: float
    df_num: int
    df_den: int

    def critical_values(self, levels) -> dict:
        """Right-tail F(df_num, df_den) critical values, keyed by level."""
        # imported here so that importing tsecon loads no scipy module;
        # scipy.stats.f.ppf evaluates this same function
        from scipy.special import fdtri

        return {float(lv): float(fdtri(self.df_num, self.df_den, 1.0 - lv)) for lv in levels}


def solve_ols(X: np.ndarray, y: np.ndarray, column_names: Sequence[str] | None = None) -> OlsFit:
    """Solve min ||y - X b|| by orthogonal decomposition.

    Raises :class:`CollinearityError` naming the offending columns when X is
    rank deficient (singular values below max(m, n) * eps * sigma_max).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise DomainError("design matrix and response have incompatible shapes")
    m, k = X.shape
    if column_names is None:
        column_names = tuple(f"x{i}" for i in range(k))
    else:
        column_names = tuple(column_names)
        if len(column_names) != k:
            raise DomainError("one column name per design column is required")
    if m <= k:
        raise DomainError(f"{m} observations cannot identify {k} parameters")

    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    tol = max(m, k) * np.finfo(float).eps * s[0]
    rank = int(np.sum(s > tol))
    if rank < k:
        # pivoted QR orders columns by explanatory contribution; the ones
        # past the numerical rank are the redundant set worth reporting
        from scipy.linalg import qr as _qr

        _, _, piv = _qr(X, mode="economic", pivoting=True)
        offenders = [column_names[i] for i in sorted(piv[rank:])]
        raise CollinearityError(offenders)

    beta = Vt.T @ ((U.T @ y) / s)
    fitted = X @ beta
    resid = y - fitted
    ssr = float(resid @ resid)
    dof = m - k
    ser = float(np.sqrt(ssr / dof))

    # diag of (X'X)^-1 from the SVD: sum_j V[i,j]^2 / s_j^2
    xtx_inv_diag = np.einsum("ji,j->i", Vt**2, 1.0 / s**2)
    stderrs = ser * np.sqrt(xtx_inv_diag)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(stderrs > 0.0, beta / stderrs, np.nan)

    for arr in (beta, stderrs, t_stats, resid, fitted):
        arr.flags.writeable = False
    return OlsFit(
        coefficients=beta,
        stderrs=stderrs,
        t_stats=t_stats,
        residuals=resid,
        fitted=fitted,
        ssr=ssr,
        ser=ser,
        n_obs=m,
        n_params=k,
        column_names=column_names,
    )


def fit_design(spec: DesignSpec, data: Mapping[str, TimeSeries]) -> tuple[OlsFit, Design]:
    """Build a design and solve it in one step."""
    design = build_design(spec, data)
    fit = solve_ols(design.matrix, design.response, design.column_names)
    return fit, design


def f_statistic(restricted: OlsFit, unrestricted: OlsFit, q: int | None = None) -> FTest:
    """Homoskedasticity-only F statistic for q linear restrictions.

    F = ((SSR_r - SSR_u) / q) / (SSR_u / (n - k_u)).  Both fits must be
    estimated on the same response sample; the restricted SSR may not fall
    below the unrestricted one beyond numerical noise.
    """
    if q is None:
        q = unrestricted.n_params - restricted.n_params
    if q < 1:
        raise DomainError("number of restrictions must be at least 1")
    if restricted.n_obs != unrestricted.n_obs:
        raise DomainError(
            "restricted and unrestricted fits use different samples "
            f"({restricted.n_obs} vs {unrestricted.n_obs} rows)"
        )
    y_r = restricted.fitted + restricted.residuals
    y_u = unrestricted.fitted + unrestricted.residuals
    scale = max(1.0, float(np.max(np.abs(y_u))))
    if not np.allclose(y_r, y_u, rtol=0.0, atol=1e-8 * scale):
        raise DomainError("restricted and unrestricted fits have different responses")

    df_den = unrestricted.n_obs - unrestricted.n_params
    if df_den < 1:
        raise DomainError("no residual degrees of freedom in the unrestricted fit")
    delta = restricted.ssr - unrestricted.ssr
    if delta < -1e-8 * max(unrestricted.ssr, 1.0):
        raise DomainError("restricted SSR is below unrestricted SSR: fits are inconsistent")
    delta = max(delta, 0.0)
    f = (delta / q) / (unrestricted.ssr / df_den)
    return FTest(statistic=float(f), df_num=int(q), df_den=int(df_den))
