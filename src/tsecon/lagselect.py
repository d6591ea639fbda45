"""Lag-order selection by information criterion.

All candidate orders 0..p_max are fit on the common sample that drops the
first p_max observations, so their criterion values are comparable.  For a
scalar series every candidate is a leading-column prefix of the p_max
regression, whose one factorisation gives all their SSRs.  With T
effective observations,

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
from .ols import solve_ols
from .series import TimeSeries

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
    X = np.column_stack([np.ones(t_eff)] + [v[p_max - i : T_raw - i] for i in range(1, p_max + 1)])
    names = ["const"] + [f"y.l{i}" for i in range(1, p_max + 1)]
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
    lengths = {name: len(data[name]) for name in names}
    if len(set(lengths.values())) > 1:
        raise DomainError(f"series lengths differ: {lengths}")
    k = len(names)
    T_raw = lengths[names[0]]
    t_eff = T_raw - p_max
    if k * p_max + 1 >= t_eff:
        raise DomainError(
            f"p_max = {p_max} needs k*p_max + 1 < {t_eff} effective observations"
        )
    V = np.column_stack([data[name].values for name in names])  # (T_raw, k)
    Y = V[p_max:]
    w = penalty(t_eff)
    rows = []
    for p in range(p_max + 1):
        cols = [np.ones(t_eff)]
        for i in range(1, p + 1):
            cols.append(V[p_max - i : T_raw - i, :])
        X = np.column_stack(cols)
        col_names = ["const"]
        for i in range(1, p + 1):
            col_names += [f"{name}.l{i}" for name in names]
        U = np.empty((t_eff, k))
        for j in range(k):
            U[:, j] = solve_ols(X, Y[:, j], col_names).residuals
        sigma = U.T @ U / t_eff
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            variances = np.diag(sigma)
            worst = names[int(np.argmin(variances))]
            raise DomainError(
                f"residual covariance is singular at p = {p}; equation {worst!r} is degenerate"
            )
        value = float(logdet + k * (k * p + 1) * w / t_eff)
        rows.append(CriterionRow(p=p, value=value, fit_measure=float(logdet)))
    return CriterionTable(
        criterion=criterion, rows=tuple(rows), chosen_p=_choose(rows), t_effective=t_eff
    )
