import numpy as np
import pytest

from tsecon import (
    ArProcess,
    DomainError,
    TimeSeries,
    select_ar_order,
    select_var_order,
    simulate,
)
from tsecon.ols import solve_ols


def test_bic_aic_differ_only_in_penalty():
    series = simulate(ArProcess(betas=(0.5, -0.2), seed=21), 240)
    bic = select_ar_order(series, 5, criterion="bic")
    aic = select_ar_order(series, 5, criterion="aic")
    t = bic.t_effective
    assert t == 240 - 5 == aic.t_effective
    for p in range(6):
        gap = (p + 1) * (np.log(t) - 2.0) / t
        assert bic.value(p) - aic.value(p) == pytest.approx(gap, abs=1e-12)
        # identical fit measures: both criteria share the SSR at each order
        assert bic.rows[p].fit_measure == aic.rows[p].fit_measure


def test_all_orders_share_the_common_sample():
    series = simulate(ArProcess(betas=(0.6,), seed=4), 120)
    table = select_ar_order(series, 4)
    assert len(table.rows) == 5
    # SSR falls weakly in p because each larger model nests the smaller one
    # on the same rows
    ssr = [r.fit_measure for r in table.rows]
    assert all(ssr[i + 1] <= ssr[i] + 1e-9 for i in range(4))


def test_selection_matches_manual_argmin():
    series = simulate(ArProcess(betas=(0.5, 0.3), seed=8), 300)
    table = select_ar_order(series, 6)
    values = [r.value for r in table.rows]
    assert table.chosen_p == int(np.argmin(values))


def test_white_noise_prefers_zero_lags():
    hits = 0
    for seed in range(30):
        series = simulate(ArProcess(betas=(0.0,), seed=seed), 400)
        if select_ar_order(series, 4).chosen_p == 0:
            hits += 1
    assert hits >= 25  # BIC is consistent; occasional overfit draws are fine


def test_var_selection_degenerates_to_scalar_for_k1():
    series = simulate(ArProcess(betas=(0.7,), seed=13), 200)
    scalar = select_ar_order(series, 3)
    system = select_var_order({"y": series}, 3)
    assert system.chosen_p == scalar.chosen_p
    assert system.t_effective == scalar.t_effective
    for p in range(4):
        # ln det Sigma = ln(SSR/T) for one equation; penalties coincide at k = 1
        assert system.rows[p].fit_measure == pytest.approx(
            np.log(scalar.rows[p].fit_measure / scalar.t_effective), abs=1e-12
        )
        assert system.value(p) == pytest.approx(scalar.value(p), abs=1e-12)


def test_var_selection_finds_system_order():
    from tsecon import VarProcess

    spec = VarProcess(
        delta=(0.2, -0.1),
        coeff_matrices=(
            ((0.5, 0.1), (0.0, 0.4)),
            ((-0.3, 0.0), (0.1, 0.2)),
        ),
        innovation_cov=((1.0, 0.3), (0.3, 1.0)),
        seed=31,
    )
    data = simulate(spec, 2_000)
    table = select_var_order(data, 4)
    assert table.chosen_p == 2


def test_guards():
    series = TimeSeries(np.arange(10.0))
    with pytest.raises(DomainError):
        select_ar_order(series, 8)
    with pytest.raises(DomainError):
        select_ar_order(series, -1)
    with pytest.raises(DomainError):
        select_ar_order(series, 2, criterion="hq")
    with pytest.raises(DomainError):
        select_var_order({}, 2)
    with pytest.raises(DomainError):
        select_var_order(
            {"a": TimeSeries(np.arange(30.0)), "b": TimeSeries(np.arange(29.0))}, 2
        )


def test_tie_goes_to_smaller_order():
    from tsecon.lagselect import CriterionRow, _choose

    rows = [
        CriterionRow(p=0, value=1.25, fit_measure=10.0),
        CriterionRow(p=1, value=1.25, fit_measure=9.0),
        CriterionRow(p=2, value=1.30, fit_measure=8.0),
    ]
    assert _choose(rows) == 0


@pytest.mark.parametrize("criterion", ["bic", "aic"])
def test_rows_match_per_order_fits(criterion):
    # one fit at p_max gives every order's SSR; refit each order as a check,
    # including a series whose level dwarfs its innovations
    penalty = {"bic": np.log, "aic": lambda t: 2.0}[criterion]
    for spec, T, p_max in [(ArProcess(betas=(0.5, 0.3), seed=8), 300, 6),
                           (ArProcess(beta0=400.0, betas=(0.6,), seed=9), 500, 8)]:
        v = simulate(spec, T).values
        table = select_ar_order(TimeSeries(v), p_max, criterion=criterion)
        t_eff = T - p_max
        values = []
        for p in range(p_max + 1):
            X = np.column_stack([np.ones(t_eff)] + [v[p_max - i : T - i] for i in range(1, p + 1)])
            ssr = solve_ols(X, v[p_max:]).ssr
            values.append(np.log(ssr / t_eff) + (p + 1) * penalty(t_eff) / t_eff)
            assert table.rows[p].p == p
            assert table.rows[p].fit_measure == pytest.approx(ssr, rel=1e-10)
            assert table.rows[p].value == pytest.approx(values[-1], rel=1e-10)
        assert table.chosen_p == int(np.argmin(values))
