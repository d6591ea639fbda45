import numpy as np
import pytest

from tsecon import (
    ArProcess,
    CollinearityError,
    DomainError,
    TimeSeries,
    select_ar_order,
    select_var_order,
    simulate,
)
from tsecon.ols import solve_ols

from conftest import var_sample


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


def per_order_reference(data, p_max, criterion):
    """The VAR order table by refitting every order and every equation on the common sample."""
    names = list(data)
    V = np.column_stack([data[nm].values for nm in names])
    T_raw, k = V.shape
    t_eff = T_raw - p_max
    w = {"bic": np.log(t_eff), "aic": 2.0}[criterion]
    logdets, values = [], []
    for p in range(p_max + 1):
        X = np.column_stack([np.ones(t_eff)] + [V[p_max - i : T_raw - i] for i in range(1, p + 1)])
        U = np.column_stack([solve_ols(X, V[p_max:, j]).residuals for j in range(k)])
        sign, logdet = np.linalg.slogdet(U.T @ U / t_eff)
        assert sign > 0
        logdets.append(logdet)
        values.append(logdet + k * (k * p + 1) * w / t_eff)
    return logdets, values


@pytest.mark.parametrize("criterion", ["bic", "aic"])
@pytest.mark.parametrize("p_max", [1, 4, 8])
@pytest.mark.parametrize("level", [0.0, 400.0])
@pytest.mark.parametrize("T", [60, 500])
@pytest.mark.parametrize("k", [2, 3])
def test_var_rows_match_per_order_fits(k, T, level, p_max, criterion):
    data = var_sample(k, T, level, seed=100 * k + T + p_max)
    table = select_var_order(data, p_max, criterion=criterion)
    logdets, values = per_order_reference(data, p_max, criterion)
    assert table.t_effective == T - p_max
    assert [r.p for r in table.rows] == list(range(p_max + 1))
    for row, logdet, value in zip(table.rows, logdets, values):
        assert abs(row.fit_measure - logdet) <= 1e-10
        assert abs(row.value - value) <= 1e-10
    assert table.chosen_p == int(np.argmin(values))


def test_var_selection_makes_one_fit(monkeypatch):
    import tsecon.lagselect

    calls = []

    def counting_solve_ols(*args):
        calls.append(args)
        return solve_ols(*args)

    monkeypatch.setattr(tsecon.lagselect, "solve_ols", counting_solve_ols)
    select_var_order(var_sample(3, 200, 0.0, seed=5), 8)
    assert len(calls) == 1
    assert calls[0][0].shape == (192, 25) and calls[0][1].shape == (192, 3)


def degenerate_pairs(T=200):
    a = simulate(ArProcess(betas=(0.5,), seed=3), T).values
    b = simulate(ArProcess(betas=(0.3,), seed=4), T).values
    return a, b


@pytest.mark.parametrize("kind", ["duplicate", "constant", "linear"])
def test_var_selection_on_degenerate_pairs(kind):
    a, b = degenerate_pairs()
    other = {"duplicate": a, "constant": np.full(200, 5.0), "linear": 2.0 * a + 1.0}[kind]
    # one factorisation at p_max finds the redundant lag columns; a duplicated
    # or linear pair used to fail as a singular covariance at p = 0, which is
    # also a DomainError
    with pytest.raises(CollinearityError):
        select_var_order({"a": TimeSeries(a), "b": TimeSeries(other)}, 4)


def test_var_selection_singular_covariance_without_collinear_lags():
    a, _ = degenerate_pairs()
    with pytest.raises(DomainError) as exc:
        select_var_order({"a": TimeSeries(a), "b": TimeSeries(2.0 * a + 1.0)}, 0)
    assert type(exc.value) is DomainError
    assert str(exc.value) == "residual covariance is singular at p = 0; equation 'a' is degenerate"


def test_var_selection_guard_messages():
    a, b = degenerate_pairs()
    with pytest.raises(DomainError, match=r"^series lengths differ: \{'a': 200, 'b': 199\}$"):
        select_var_order({"a": TimeSeries(a), "b": TimeSeries(b[:199])}, 4)
    with pytest.raises(DomainError,
                       match=r"^p_max = 4 needs k\*p_max \+ 1 < 2 effective observations$"):
        select_var_order({"a": TimeSeries(a[:6]), "b": TimeSeries(b[:6])}, 4)
    with pytest.raises(DomainError, match="p_max must be a nonnegative integer"):
        select_var_order({"a": TimeSeries(a), "b": TimeSeries(b)}, -1)
