"""Integration-order classification, Engle-Granger cointegration tests, DOLS.

The Engle-Granger ADF test regresses Y on an intercept and the candidate
common-trend regressors, then runs a unit-root regression on the residuals.
Its critical values are far in the left tail of the ordinary Dickey-Fuller
ones and depend on the regressor count; the shipped table covers 1 through 4
regressors at the 10%, 5% and 1% levels, and `mc-critical` simulates others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cvcache import default_cache
from .errors import DomainError
from .ols import (DesignSpec, DiffLag, Intercept, Lag, Level, OlsFit, common_length, exact_fit,
                  fit_design, lstsq_buffer, qr_factorise, solve_ols)
from .report import DEFAULT_LEVELS, TestReport, make_test_report
from .series import TimeSeries, difference, require_series
from .unitroot import AdfSpec, adf_block_statistic, adf_statistic, adf_test

__all__ = [
    "EG_ADF_CRITICAL_VALUES",
    "CointFit",
    "eg_adf_test",
    "IntegrationReport",
    "integration_order",
    "DolsFit",
    "dols",
]

# Left-tail critical values for the EG-ADF statistic by number of regressors,
# at the 10%, 5% and 1% levels.
EG_ADF_CRITICAL_VALUES = {
    1: {0.10: -3.12, 0.05: -3.41, 0.01: -3.96},
    2: {0.10: -3.52, 0.05: -3.80, 0.01: -4.36},
    3: {0.10: -3.84, 0.05: -4.16, 0.01: -4.73},
    4: {0.10: -4.20, 0.05: -4.49, 0.01: -5.07},
}


def _named_regressors(y: TimeSeries, xs) -> tuple[str, tuple, dict]:
    """Resolve labels for y and the x block, guaranteeing uniqueness."""
    if isinstance(xs, TimeSeries):
        xs = [xs]
    xs = list(xs)
    if not xs:
        raise DomainError("at least one regressor series is required")
    yname = y.label or "y"
    xnames = []
    for i, x in enumerate(xs):
        if not isinstance(x, TimeSeries):
            raise DomainError("regressors must be TimeSeries instances")
        nm = x.label or f"x{i + 1}"
        xnames.append(nm)
    names = [yname, *xnames]
    if len(set(names)) != len(names):
        raise DomainError(f"series labels must be distinct, got {names}")
    data = {yname: y}
    data.update(zip(xnames, xs))
    return yname, tuple(xnames), data


def eg_adf_design(paths: np.ndarray) -> tuple:
    """The levels regression X = [const | x_1..x_m], y of (..., T, 1 + m) paths [y | x_1..x_m].

    X is in C order, the layout whose fitted values X b every EG-ADF residual reads.
    """
    X = np.empty(paths.shape)
    X[..., 0] = 1.0
    X[..., 1:] = paths[..., 1:]
    return X, paths[..., 0]


def eg_adf_block_statistic(paths: np.ndarray) -> np.ndarray:
    """The EG-ADF t-ratios of `eg_adf_test` for every row of an (R, T, 1 + m) block.

    Stage 1 writes the levels regression (:func:`eg_adf_design`) straight into
    an `ols.lstsq_buffer` and factorises it.  Its residuals y - X b read X in
    C order, as `solve_ols` does, since a product over the column-major buffer
    rounds differently.  A row whose levels regression fits exactly, where
    `eg_adf_test` runs no ADF, gets -inf: the strongest possible rejection.
    """
    R, T, k = paths.shape
    a = lstsq_buffer((R,), T, k + 1)
    a[..., 0] = 1.0
    a[..., 1:k] = paths[..., 1:]
    a[..., k] = paths[..., 0]
    stage1 = qr_factorise(a, k)
    beta = stage1.solve()[0]
    X, y = eg_adf_design(paths)
    residuals = y - (X @ beta[..., None])[..., 0]
    live = ~exact_fit(stage1.rho**2, T, y)
    stats = np.full(R, -np.inf)
    if live.any():
        stats[live] = adf_block_statistic(residuals[live], "none", "auto")
    return stats


@dataclass(frozen=True)
class CointFit:
    """First-stage levels regression plus the residual unit-root verdict.

    When the levels regression fits exactly (noise-free relation), the
    residual series is numerically zero and no ADF is run: `degenerate`
    is set and `eg_adf` is None.
    """

    theta: np.ndarray
    alpha: float
    residual_series: TimeSeries
    eg_adf: TestReport | None
    n_regressors: int
    names: tuple
    stage1: OlsFit
    degenerate: bool = False

    def __post_init__(self) -> None:
        t = np.array(self.theta, dtype=float)
        t.flags.writeable = False
        object.__setattr__(self, "theta", t)


def eg_adf_test(
    y: TimeSeries,
    xs,
    levels=DEFAULT_LEVELS,
    cv_source=None,
) -> CointFit:
    """Two-step residual-based cointegration test.

    Step one estimates Y_t = alpha + theta' X_t + z_t by OLS; step two runs
    an augmented Dickey-Fuller regression on the residuals, without an
    intercept (the residuals are mean zero by construction) and with
    BIC-selected augmentation lags.  The decision compares the t-ratio
    against the left-tail critical values for the given regressor count.
    """
    require_series("eg_adf_test", y)
    yname, xnames, data = _named_regressors(y, xs)
    m = len(xnames)
    common_length(data, data)
    X, yv = eg_adf_design(np.column_stack([series.values for series in data.values()]))
    stage1 = solve_ols(X, yv, ("const", *xnames))
    theta = stage1.coefficients[1:]
    alpha = float(stage1.coefficients[0])
    z = TimeSeries(stage1.residuals, label="z", origin=y.origin)

    if exact_fit(stage1.ssr, stage1.n_obs, y.values):
        return CointFit(
            theta=theta,
            alpha=alpha,
            residual_series=z,
            eg_adf=None,
            n_regressors=m,
            names=(yname, *xnames),
            stage1=stage1,
            degenerate=True,
        )

    stat, fit, lags_used = adf_statistic(z.values, deterministic="none", lags="auto")
    cache = default_cache(cv_source)
    cvs, provenance, tail = cache.critical_values("egadf", {"n_regressors": m}, levels)
    if tail != "left":
        raise DomainError("cached EG-ADF entry has the wrong tail direction")
    report = make_test_report(
        name="eg_adf",
        statistic=stat,
        family={
            "family": "engle_granger_adf",
            "n_regressors": m,
            "augmentation_lags": lags_used,
        },
        tail="left",
        critical_values=cvs,
        cv_provenance=provenance,
        nuisance={
            "alpha": alpha,
            "theta": {nm: float(t) for nm, t in zip(xnames, theta)},
            "lags_used": int(lags_used),
            "n_obs": int(fit.n_obs),
            "dependent": yname,
        },
    )
    return CointFit(
        theta=theta,
        alpha=alpha,
        residual_series=z,
        eg_adf=report,
        n_regressors=m,
        names=(yname, *xnames),
        stage1=stage1,
    )


@dataclass(frozen=True)
class IntegrationReport:
    """Outcome of the sequential unit-root ladder."""

    order: int
    classification: str
    reports: tuple
    level: float


def integration_order(
    series: TimeSeries,
    spec: AdfSpec | None = None,
    max_order: int = 2,
    level: float = 0.05,
    cv_source=None,
) -> IntegrationReport:
    """Classify a series as I(0), I(1), ... by repeated unit-root testing.

    The level of the series is tested first; failing to reject the unit
    root, the first difference is tested, and so on.  A series that never
    rejects through max_order - 1 differences is classified I(max_order).
    """
    if not isinstance(max_order, (int, np.integer)) or max_order < 1:
        raise DomainError("max_order must be a positive integer")
    reports = []
    current = series
    order = int(max_order)
    for d in range(max_order):
        rep = adf_test(current, spec, cv_source=cv_source)
        if level not in rep.decision:
            raise DomainError(
                f"level {level} not among computed levels {sorted(rep.decision)}"
            )
        reports.append(rep)
        if rep.decision[level] == "reject":
            order = d
            break
        if d < max_order - 1:
            current = difference(current)
    return IntegrationReport(
        order=order,
        classification=f"I({order})",
        reports=tuple(reports),
        level=float(level),
    )


@dataclass(frozen=True)
class DolsFit:
    """Dynamic OLS estimates of a cointegrating relation.

    deltas maps each regressor name to {j: coefficient} over the lead/lag
    window, where j > 0 is a lag and j < 0 a lead of the differenced
    regressor (or of its level under use_level_terms).
    """

    theta: np.ndarray
    intercept: float
    deltas: dict
    p: int
    fit: OlsFit
    names: tuple
    use_level_terms: bool = False

    def __post_init__(self) -> None:
        t = np.array(self.theta, dtype=float)
        t.flags.writeable = False
        object.__setattr__(self, "theta", t)


def dols(
    y: TimeSeries,
    xs,
    p: int,
    use_level_terms: bool = False,
) -> DolsFit:
    """Levels regression augmented with leads and lags of the regressors.

    With p >= 1 the regression adds the 2p + 1 terms j = -p..p of each
    differenced regressor; p = 0 reduces to the static levels regression.
    use_level_terms swaps the differences for levels, dropping j = 0
    (the contemporaneous level is already the theta term).
    """
    if not isinstance(p, (int, np.integer)) or p < 0:
        raise DomainError("lead/lag window must be a nonnegative integer")
    require_series("dols", y)
    yname, xnames, data = _named_regressors(y, xs)
    terms = [Intercept()] + [Level(nm) for nm in xnames]
    window = []
    if p >= 1:
        for nm in xnames:
            for j in range(-p, p + 1):
                if use_level_terms:
                    if j == 0:
                        continue
                    window.append(Lag(nm, j))
                else:
                    window.append(DiffLag(nm, j))
    fit, _ = fit_design(DesignSpec(Level(yname), terms + window), data)
    offset = 1 + len(xnames)  # window coefficients follow [const, levels...]
    theta = fit.coefficients[1:offset]
    deltas: dict = {nm: {} for nm in xnames}
    for term, coef in zip(window, fit.coefficients[offset:]):
        deltas[term.name][int(term.j)] = float(coef)
    return DolsFit(
        theta=theta,
        intercept=float(fit.coefficients[0]),
        deltas=deltas,
        p=int(p),
        fit=fit,
        names=(yname, *xnames),
        use_level_terms=bool(use_level_terms),
    )
