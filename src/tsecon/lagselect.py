"""Lag-order selection by information criterion.

All candidate orders 0..p_max are fit on the common sample that drops the
first p_max observations, so their criterion values are comparable.  Every
candidate regresses on a leading-column prefix of the p_max lag design
(`ols.lag_design`), so one factorisation of that design gives them all: the
SSR of each order for a scalar series, and for a system the residual
cross-product of the first j columns, E'E + sum_{i >= j} c_i c_i', with E
the p_max residuals and c_i row i of C in [X | Y] = Q [[r, C], [0, S]]
(Lütkepohl 2005, §4.3).  With T effective observations,

    scalar:  BIC(p) = ln(SSR(p) / T) + (p + 1) ln(T) / T
    system:  BIC(p) = ln det(Sigma_uu(p)) + k (k p + 1) ln(T) / T

AIC replaces ln(T) with 2.  Sigma_uu is the residual cross-product matrix
divided by T.  Ties go to the smaller order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DomainError
from .ols import common_length, lag_design, solve_ols
from .series import TimeSeries, require_series

__all__ = ["CriterionRow", "CriterionTable", "select_ar_order", "select_var_order"]

_PENALTIES = {"bic": lambda t: float(np.log(t)), "aic": lambda t: 2.0}


@dataclass(frozen=True)
class CriterionRow:
    p: int
    value: float
    fit_measure: float  # SSR for scalar selection, ln det Sigma_uu for systems


@dataclass(frozen=True)
class CriterionTable:
    criterion: str
    rows: tuple
    chosen_p: int
    t_effective: int

    def value(self, p: int) -> float:
        return self.rows[p].value

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "chosen_p": self.chosen_p,
            "t_effective": self.t_effective,
            "rows": [
                {"p": r.p, "value": r.value, "fit_measure": r.fit_measure} for r in self.rows
            ],
        }


def _check_criterion(criterion: str):
    if criterion not in _PENALTIES:
        raise DomainError(f"criterion must be one of {sorted(_PENALTIES)}, got {criterion!r}")
    return _PENALTIES[criterion]


def _choose(rows) -> int:
    values = [r.value for r in rows]
    return int(np.argmin(values))  # first minimum wins: ties favor the smaller p


def select_ar_order(series: TimeSeries, p_max: int, criterion: str = "bic") -> CriterionTable:
    """Pick the AR order in 0..p_max minimizing the criterion."""
    require_series("select_ar_order", series)
    penalty = _check_criterion(criterion)
    if not isinstance(p_max, (int, np.integer)) or p_max < 0:
        raise DomainError("p_max must be a nonnegative integer")
    T_raw = len(series)
    t_eff = T_raw - p_max
    if t_eff < p_max + 2:
        raise DomainError(
            f"p_max = {p_max} leaves only {max(t_eff, 0)} effective observations"
        )
    v = series.values
    X, names = lag_design(v[:, None], ("y",), p_max)
    # order p regresses on the first p + 1 columns of the p_max design
    ssr = solve_ols(X, v[p_max:], names).qr.prefix_ssr()
    w = penalty(t_eff)
    rows = []
    for p in range(p_max + 1):
        value = float(np.log(ssr[p + 1] / t_eff) + (p + 1) * w / t_eff)
        rows.append(CriterionRow(p=p, value=value, fit_measure=float(ssr[p + 1])))
    return CriterionTable(
        criterion=criterion, rows=tuple(rows), chosen_p=_choose(rows), t_effective=t_eff
    )


def select_var_order(
    data: Mapping[str, TimeSeries], p_max: int, criterion: str = "bic"
) -> CriterionTable:
    """Pick the VAR order in 0..p_max minimizing the system criterion."""
    penalty = _check_criterion(criterion)
    if not isinstance(p_max, (int, np.integer)) or p_max < 0:
        raise DomainError("p_max must be a nonnegative integer")
    names = list(data)
    if not names:
        raise DomainError("at least one series is required")
    k = len(names)
    t_eff = common_length(data, names) - p_max
    if k * p_max + 1 >= t_eff:
        raise DomainError(
            f"p_max = {p_max} needs k*p_max + 1 < {t_eff} effective observations"
        )
    V = np.column_stack([data[name].values for name in names])  # (T_raw, k)
    X, columns = lag_design(V, names, p_max)
    fits = solve_ols(X, V[p_max:], columns)
    E = np.column_stack([f.residuals for f in fits])
    # tails[j] = sum of c_i c_i' over rows i >= j of C; order p keeps the first 1 + k p columns
    C = np.vstack([np.column_stack([f.qr.c for f in fits]), np.zeros(k)])
    tails = np.cumsum((C[:, :, None] * C[:, None, :])[::-1], axis=0)[::-1]
    orders = np.arange(p_max + 1)
    sigma = (E.T @ E + tails[1 + k * orders]) / t_eff
    sign, logdet = np.linalg.slogdet(sigma)
    if np.any(sign <= 0):
        p = int(np.argmax(sign <= 0))
        worst = names[int(np.argmin(np.diag(sigma[p])))]
        raise DomainError(
            f"residual covariance is singular at p = {p}; equation {worst!r} is degenerate"
        )
    w = penalty(t_eff)
    rows = []
    for p in range(p_max + 1):
        value = float(logdet[p] + k * (k * p + 1) * w / t_eff)
        rows.append(CriterionRow(p=p, value=value, fit_measure=float(logdet[p])))
    return CriterionTable(
        criterion=criterion, rows=tuple(rows), chosen_p=_choose(rows), t_effective=t_eff
    )
