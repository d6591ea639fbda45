"""Design matrix construction and the least squares kernel.

:func:`lag_design` builds the lag regression of every AR, VAR, Chow and
Granger fit; its lower orders are its prefixes.  A :class:`DesignSpec`
declares other regressions, for DOLS and the public API: a response plus
term objects (intercept, lags, trend, break dummies and their lag
interactions, contemporaneous levels, lead/lag differences), aligned on a
common effective sample trimmed at each end by exactly what the terms need.

Least squares goes through one kernel: one QR factorisation of [X | Y]
over a stack of designs, each with one response or several, which also
gives the F test of nested restrictions (:func:`exclusion_f_test`).  This
module owns the layout LAPACK factorises, a column-major [X | Y] per design
(:func:`lstsq_buffer`), and the reading of r, c and rho off its factor
(:func:`qr_factorise`).  :func:`qr_lstsq` fills that buffer from X and y; the
ADF and Engle-Granger block evaluators write their columns straight into it,
so a Monte Carlo chunk copies no design between its draws and LAPACK.
Coefficients and standard errors have one formula, :meth:`QrFit.solve`:
:func:`solve_ols` reads it for one design and the Monte Carlo block
evaluators for a stack, so a public test's statistic is bit for bit the
one-row case of its block.  The one normal-equations
path is :func:`ar_prefix_cross_products`, for AR(p) fits on every row
prefix of a path, with one contiguous cumulant per entry of [X | y]'[X | y].
The break-date scan `breaks.chow_f_scan` needs only SSRs, which its
elimination kernel :func:`normal_equations_ssr` reads over whole arrays of
paths and dates; the rolling-origin forecasts of
`armodel.pseudo_out_of_sample_rmsfe` need coefficients, from one batched
``np.linalg.solve``.  An extended precision normal-equations oracle lives in
the test suite for cross checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import CollinearityError, DomainError
from .series import TimeSeries, require_series

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
    "QrFit",
    "FTest",
    "build_design",
    "common_length",
    "lag_design",
    "lstsq_buffer",
    "qr_factorise",
    "qr_lstsq",
    "solve_ols",
    "fit_design",
    "f_statistic",
    "exclusion_f_test",
    "ar_prefix_cross_products",
    "packed_index",
    "normal_equations_ssr",
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
    terms = (spec.dependent, *spec.regressors)
    T = common_length(data, dict.fromkeys(t.name for t in terms if hasattr(t, "name")))

    windows = [_term_window(t) for t in terms]
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


def common_length(data: Mapping[str, TimeSeries], names) -> int:
    """The one length of the named TimeSeries; a missing name, other type or mismatch fails."""
    for name in names:
        if name not in data:
            raise DomainError(f"unknown series {name!r} in design")
        require_series(f"series {name!r}", data[name])
    lengths = {name: len(data[name]) for name in names}
    if len(set(lengths.values())) > 1:
        raise DomainError(f"series lengths differ: {lengths}")
    return next(iter(lengths.values()))


def lag_design(values: np.ndarray, names: Sequence[str], p: int) -> tuple:
    """X (..., T - p, 1 + k p) for the rows p.. of values (..., T, k), and its names.

    An intercept, then every series at lag 1, then every series at lag 2, ...
    up to lag p, so the design of a lower order on the same rows is a prefix
    of X.
    """
    T, k = values.shape[-2:]
    if T - p < k * p + 2:
        raise DomainError(
            f"effective sample of {max(T - p, 0)} rows cannot identify {k * p + 1} parameters"
        )
    X = np.empty(values.shape[:-2] + (T - p, 1 + k * p))
    X[..., 0] = 1.0
    for i in range(1, p + 1):
        X[..., 1 + k * (i - 1) : 1 + k * i] = values[..., p - i : T - i, :]
    return X, ("const",) + tuple(f"{nm}.l{i}" for i in range(1, p + 1) for nm in names)


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
    qr: QrFit  # the factorisation the fit was read from

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


class QrFit(NamedTuple):
    """Least squares on a stack of designs, read off [X | y] = Q [[r, c], [0, rho]].

    r (..., k, k) is upper triangular, so the coefficients are r^-1 c, the SSR
    is rho^2 and diag((X'X)^-1) holds the squared row norms of r^-1.  The
    responses of a multi-response fit are one more stack axis: r (..., 1, k, k)
    is shared, c is (..., m, k) and rho (..., m), so :meth:`solve`,
    :meth:`prefix_ssr` and :meth:`exclusion_f` give one row per response.
    """

    r: np.ndarray
    c: np.ndarray
    rho: np.ndarray
    n_obs: int

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """The one solution formula: coefficients and standard errors from one inverse of r."""
        r_inv = np.linalg.inv(self.r)
        ser = np.abs(self.rho) / np.sqrt(self.n_obs - self.r.shape[-1])
        beta = (r_inv @ self.c[..., None])[..., 0]
        return beta, ser[..., None] * np.sqrt(np.sum(r_inv * r_inv, axis=-1))

    def prefix_ssr(self) -> np.ndarray:
        """SSR on the first j columns, j = 0..k, as rho^2 + sum_{i >= j} c_i^2.

        A sum of squares, so unlike ||y||^2 - cumsum(c^2) it cannot cancel.
        """
        squares = np.concatenate([self.c * self.c, (self.rho * self.rho)[..., None]], axis=-1)
        return np.cumsum(squares[..., ::-1], axis=-1)[..., ::-1]

    def exclusion_f(self, q: int) -> np.ndarray:
        """F statistic of the restriction that the last q coefficients are zero.

        SSR_u = rho^2 and SSR_r - SSR_u = sum_{i >= k - q} c_i^2, which cannot cancel.
        """
        k = self.r.shape[-1]
        delta = np.sum(self.c[..., k - q :] ** 2, axis=-1)
        return (delta / q) / (self.rho**2 / (self.n_obs - k))


def lstsq_buffer(lead: tuple, n: int, columns: int) -> np.ndarray:
    """An empty stack of [X | Y] (*lead, n, columns), column-major in each design.

    That is the layout LAPACK factorises, so ``np.linalg.qr`` in
    :func:`qr_factorise` takes it with no reordering.  :func:`qr_lstsq` fills
    it from X and y; the block
    evaluators of `unitroot` and `cointegration` write their design columns
    and response straight into it.
    """
    return np.empty(tuple(lead) + (columns, n)).swapaxes(-1, -2)


def qr_factorise(a: np.ndarray, k: int, one_response: bool = True) -> QrFit:
    """The QrFit of a filled :func:`lstsq_buffer` a = [X | Y] with k design columns.

    One response gives r (..., k, k), c (..., k) and rho (...); otherwise the
    responses are one more stack axis, as :class:`QrFit` describes.  a is not
    modified.
    """
    n = a.shape[-2]
    f = np.linalg.qr(a, mode="r")
    if one_response:
        return QrFit(r=f[..., :k, :k], c=f[..., :k, k], rho=f[..., k, k], n_obs=n)
    S = f[..., k:, k:]
    # sqrt(s^2) = |s| exactly, so a one-row S keeps its value
    rho = np.copysign(np.sqrt(np.sum(S * S, axis=-2)), S[..., 0, :])
    return QrFit(r=f[..., None, :k, :k], c=f[..., :k, k:].swapaxes(-1, -2), rho=rho, n_obs=n)


def qr_lstsq(X: np.ndarray, y: np.ndarray) -> QrFit:
    """One QR factorisation of [X | y] for designs X (..., n, k), responses y (..., n).

    A y of shape (..., n, m) holds m responses that share each design.  Then
    [X | Y] = Q [[r, C], [0, S]]; c holds the columns of C and rho the signed
    norms of the columns of S, the residual norm of each response.
    Requires n > k.  The rank is not checked here; :func:`solve_ols` does.
    Fills a :func:`lstsq_buffer` and hands it to :func:`qr_factorise`.
    """
    n, k = X.shape[-2:]
    Y = y if y.ndim == X.ndim else y[..., None]
    a = lstsq_buffer(X.shape[:-2], n, k + Y.shape[-1])
    a[..., :k] = X
    a[..., k:] = Y
    return qr_factorise(a, k, Y is not y)


def solve_ols(X: np.ndarray, y: np.ndarray, column_names: Sequence[str] | None = None):
    """Solve min ||y - X b|| by QR factorisation (:func:`qr_lstsq`).

    The coefficients and standard errors are :meth:`QrFit.solve`'s, so they
    equal those of a stack of designs bit for bit.  A response y of shape (n,)
    gives one :class:`OlsFit`.  Y of shape (n, m) gives a tuple of m fits, one
    per column, from one factorisation with one rank check; fit j carries
    QrFit(r, C[:, j], rho_j, n).
    Raises :class:`CollinearityError` when r, each column divided by its norm
    so that the units of X do not matter, has a singular value at or below
    max(m, k) * eps * sigma_max.  It names the k - rank columns with the
    smallest |r_jj| / ||x_j||, the sine of the angle between column j and the
    span of the columns before it, in column order.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim not in (1, 2) or X.shape[0] != y.shape[0] or y.shape[1:] == (0,):
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

    qr = qr_lstsq(X, y)
    r = qr.r.reshape(k, k)
    norms = np.hypot.reduce(r, axis=0)  # X's column norms: Q is orthogonal
    scaled = r / np.where(norms > 0.0, norms, 1.0)  # a zero column stays deficient
    s = np.linalg.svd(scaled, compute_uv=False)
    tol = max(m, k) * np.finfo(float).eps * s[0]
    if s[-1] <= tol:  # s is sorted in decreasing order
        rank = int(np.sum(s > tol))
        sines = np.abs(np.diagonal(scaled))
        offenders = np.sort(np.argsort(sines, kind="stable")[: k - rank])
        raise CollinearityError([column_names[i] for i in offenders])

    # one row per response
    beta, stderrs = qr.solve()
    fitted = (X @ beta.T).T
    resid = y.T - fitted
    r.flags.writeable = False

    def one_fit(beta, stderrs, fitted, resid, c, rho) -> OlsFit:
        ssr = float(rho**2)
        ser = float(np.sqrt(ssr / (m - k)))
        # every standard error is positive at full rank, unless the fit is exact
        t_stats = beta / stderrs if ser > 0.0 else np.full(k, np.nan)

        for arr in (beta, stderrs, t_stats, resid, fitted, c):
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
            qr=QrFit(r, c, rho, m),
        )

    if y.ndim == 1:
        return one_fit(beta, stderrs, fitted, resid, qr.c, qr.rho)
    return tuple(map(one_fit, beta, stderrs, fitted, resid, qr.c, qr.rho))


def fit_design(spec: DesignSpec, data: Mapping[str, TimeSeries]) -> tuple[OlsFit, Design]:
    """Build a design and solve it in one step."""
    design = build_design(spec, data)
    fit = solve_ols(design.matrix, design.response, design.column_names)
    return fit, design


def exact_fit(ssr, n_obs: int, y: np.ndarray):
    """Whether a regression fits exactly: sqrt(SSR/n) <= 1e-10 max|y|.

    Relative to y alone, so the verdict does not depend on its units; an
    all-zero y fits exactly.  `ssr` is one SSR with `y` its (n,) regressand,
    or an (R,) stack of them with y (R, n).
    """
    return np.sqrt(ssr / n_obs) <= 1e-10 * np.max(np.abs(y), axis=-1)


def exclusion_f_test(fit: OlsFit, q: int) -> FTest:
    """F test that the last q coefficients of a fit are zero, by :meth:`QrFit.exclusion_f`.

    An exact fit leaves no residual variance to scale the F by, so it is refused.
    """
    if not 1 <= q < fit.n_params:
        raise DomainError("number of restrictions must lie between 1 and k - 1")
    if exact_fit(fit.ssr, fit.n_obs, fit.fitted + fit.residuals):
        raise DomainError("the unrestricted regression fits exactly; the F test is undefined")
    f = fit.qr.exclusion_f(q)
    return FTest(statistic=float(f), df_num=int(q), df_den=int(fit.n_obs - fit.n_params))


def f_statistic(restricted: OlsFit, unrestricted: OlsFit, q: int | None = None) -> FTest:
    """Homoskedasticity-only F statistic for q linear restrictions.

    F = ((SSR_r - SSR_u) / q) / (SSR_u / (n - k_u)).  Both fits must be
    estimated on the same response sample, to within 1e-8 max|y|; the
    restricted SSR may not fall below the unrestricted one by more than
    1e-8 SSR_u.  Both tolerances are relative, so the verdict does not depend
    on the units of y.  An exact unrestricted fit is refused, as by
    :func:`exclusion_f_test`.
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
    if not np.allclose(y_r, y_u, rtol=0.0, atol=1e-8 * np.max(np.abs(y_u))):
        raise DomainError("restricted and unrestricted fits have different responses")

    df_den = unrestricted.n_obs - unrestricted.n_params
    if df_den < 1:
        raise DomainError("no residual degrees of freedom in the unrestricted fit")
    if exact_fit(unrestricted.ssr, unrestricted.n_obs, y_u):
        raise DomainError("the unrestricted regression fits exactly; the F test is undefined")
    delta = restricted.ssr - unrestricted.ssr
    if delta < -1e-8 * unrestricted.ssr:
        raise DomainError("restricted SSR is below unrestricted SSR: fits are inconsistent")
    delta = max(delta, 0.0)
    f = (delta / q) / (unrestricted.ssr / df_den)
    return FTest(statistic=float(f), df_num=int(q), df_den=int(df_den))


def ar_prefix_cross_products(paths: np.ndarray, p: int) -> tuple:
    """AR(p) designs of paths (..., T) and their cross-products over every row prefix.

    Row j regresses value j + p on an intercept and p lags.  y and the lag
    columns are centred on their means, which changes no residual of a
    prefix regression but keeps the cumulants well conditioned.  Returns the
    centred X (..., n, k) and y, then S (m, ..., n), m = (k + 1)(k + 2) / 2,
    the lower triangle of Z'Z, Z = [X | y]: entry (i, j), i >= j, summed over
    rows 0..t sits at S[packed_index(k + 1)[i, j], ..., t].  Each entry is one
    contiguous cumulant, and the last row of Z'Z holds X'y and then y'y.
    """
    X = lag_design(paths[..., None], ("y",), p)[0]
    y = paths[..., p:] - paths[..., p:].mean(axis=-1, keepdims=True)
    X[..., 1:] -= X[..., 1:].mean(axis=-2, keepdims=True)
    k = X.shape[-1]
    Z = [X[..., i] for i in range(k)] + [y]  # views: no copy of the design
    S = np.empty((_packed(k, k) + 1,) + y.shape)
    for i in range(k + 1):
        for j in range(i + 1):
            np.multiply(Z[i], Z[j], out=S[_packed(i, j)])
    np.cumsum(S, axis=-1, out=S)
    return X, y, S


def _packed(i: int, j: int) -> int:
    """Position of entry (i, j), i >= j, in a lower triangle packed row by row."""
    return i * (i + 1) // 2 + j


def packed_index(k: int) -> np.ndarray:
    """(k, k) positions of the entries of a symmetric matrix in its packed lower triangle.

    Rows follow one another, so entry (i, j), i >= j, sits at
    i (i + 1) / 2 + j, the order of ``np.tril_indices``; (j, i) shares it.
    """
    return np.array([[_packed(i, j) if i >= j else _packed(j, i) for j in range(k)]
                     for i in range(k)])


def normal_equations_ssr(A: np.ndarray) -> np.ndarray:
    """SSR s - h'G^-1 h of every system packed in A (m, ...), by symmetric elimination.

    A holds the packed lower triangle (:func:`packed_index`) of
    [[G, h], [h', s]], G (k, k), one whole array per entry, as
    :func:`ar_prefix_cross_products` lays out its cumulants.  Eliminating
    the k pivots of G leaves the Schur complement s - h'G^-1 h in the last
    entry.  Unrolled over the entries, each step is one operation on whole
    arrays, whatever the number of systems.  G is positive semi-definite, so
    no pivoting is needed.  A is overwritten.  An exact zero pivot raises
    :class:`numpy.linalg.LinAlgError`, as a singular ``np.linalg.solve`` does.
    """
    k = (math.isqrt(8 * A.shape[0] + 1) - 3) // 2
    for j in range(k):
        pivot = A[_packed(j, j)]
        if not pivot.all():
            raise np.linalg.LinAlgError("Singular matrix")
        for i in range(j + 1, k + 1):
            f = A[_packed(i, j)] / pivot
            for l in range(j + 1, i + 1):
                A[_packed(i, l)] -= f * A[_packed(l, j)]
    return A[-1]
