from dataclasses import replace

import numpy as np
import pytest

from tsecon import (
    ArProcess,
    CollinearityError,
    DomainError,
    TimeSeries,
    VarProcess,
    companion_matrix,
    fit_ar,
    fit_var,
    forecast_ar,
    forecast_var,
    granger_test,
    rng_for,
    sample_values,
    simulate,
    stability,
    var_autocovariances,
    var_mean,
)
from tsecon.ols import (
    DesignSpec,
    Intercept,
    Lag,
    Level,
    exclusion_f_test,
    f_statistic,
    fit_design,
    lag_design,
    solve_ols,
)
from tsecon.report import DEFAULT_LEVELS, decide, p_bracket

from conftest import close, var_sample

STABLE_SPEC = VarProcess(
    delta=(0.5, -0.2),
    coeff_matrices=(((0.5, 0.2), (0.1, 0.4)),),
    innovation_cov=((1.0, 0.4), (0.4, 2.0)),
    seed=101,
)

TWO_LAG_SPEC = VarProcess(
    delta=(0.3, 0.1),
    coeff_matrices=(
        ((0.4, 0.1), (0.0, 0.3)),
        ((0.2, 0.0), (-0.1, 0.15)),
    ),
    innovation_cov=((1.0, 0.2), (0.2, 0.8)),
    seed=102,
)


def test_companion_matrix_layout():
    A1 = np.array([[0.5, 0.2], [0.1, 0.4]])
    A2 = np.array([[0.1, 0.0], [0.0, -0.2]])
    F = companion_matrix([A1, A2])
    assert F.shape == (4, 4)
    assert np.array_equal(F[:2, :2], A1)
    assert np.array_equal(F[:2, 2:], A2)
    assert np.array_equal(F[2:, :2], np.eye(2))
    assert np.array_equal(F[2:, 2:], np.zeros((2, 2)))
    with pytest.raises(DomainError):
        companion_matrix([])
    with pytest.raises(DomainError):
        companion_matrix([np.ones((2, 3))])
    with pytest.raises(DomainError):
        companion_matrix([5.0])


def test_stability_worked_example():
    rep = stability([np.array([[0.5, 0.2], [0.1, 0.4]])])
    assert rep.stable
    assert rep.root_moduli == pytest.approx((0.6, 0.3))
    unit = stability([np.eye(2)])
    assert not unit.stable and unit.has_unit_root


def test_stability_matches_polynomial_roots(rng):
    # for a VAR(1), eigenvalues of A are the inverse lag-polynomial roots
    for _ in range(50):
        A = rng.uniform(-0.8, 0.8, size=(2, 2))
        moduli = np.abs(np.linalg.eigvals(A))
        rep = stability([A])
        if abs(moduli.max() - 1.0) > 1e-6:
            assert rep.stable == bool(moduli.max() < 1.0)


def test_fit_var_recovers_parameters():
    data = simulate(STABLE_SPEC, 40_000)
    fit = fit_var(data, 1)
    assert fit.names == ("y1", "y2")
    assert np.allclose(fit.coeff_matrices[0], [[0.5, 0.2], [0.1, 0.4]], atol=0.02)
    assert np.allclose(fit.intercepts, [0.5, -0.2], atol=0.05)
    assert np.allclose(fit.residual_cov, [[1.0, 0.4], [0.4, 2.0]], atol=0.05)


def test_fit_var_k1_degenerates_to_fit_ar():
    series = simulate(ArProcess(beta0=0.4, betas=(0.6, -0.2), seed=55), 500)
    var = fit_var({"y": series}, 2)
    ar = fit_ar(series, 2)
    # same design, same solver: results agree bit for bit
    assert var.intercepts[0] == ar.intercept
    assert var.coeff_matrices[0][0, 0] == ar.lag_poly.coefficients[0]
    assert var.coeff_matrices[1][0, 0] == ar.lag_poly.coefficients[1]
    assert np.array_equal(var.equation_fits[0].residuals, ar.fit.residuals)


def test_var_mean_closed_form_matches_sample_mean():
    data = simulate(STABLE_SPEC, 200_000)
    mu = var_mean(STABLE_SPEC.delta, STABLE_SPEC.coeff_matrices)
    manual = np.linalg.solve(
        np.eye(2) - np.array(STABLE_SPEC.coeff_matrices[0]), STABLE_SPEC.delta
    )
    assert np.allclose(mu, manual, atol=1e-12)
    sample = np.array([data["y1"].values.mean(), data["y2"].values.mean()])
    assert np.allclose(mu, sample, atol=0.05)


def test_var_mean_rejects_unit_root():
    with pytest.raises(DomainError):
        var_mean((0.1, 0.1), [np.eye(2)])


def test_autocovariances_satisfy_yule_walker():
    mats = [np.asarray(A, float) for A in TWO_LAG_SPEC.coeff_matrices]
    sigma = np.asarray(TWO_LAG_SPEC.innovation_cov, float)
    gammas = var_autocovariances(mats, 6, innovation_cov=sigma)
    # Gamma(0) = sum_i A_i Gamma(i)' + Sigma
    g0 = mats[0] @ gammas[1].T + mats[1] @ gammas[2].T + sigma
    assert np.allclose(gammas[0], g0, atol=1e-10)
    assert np.allclose(gammas[0], gammas[0].T, atol=1e-12)
    # Gamma(tau) = A_1 Gamma(tau-1) + A_2 Gamma(tau-2) for tau > 0
    for tau in range(3, 7):
        rec = mats[0] @ gammas[tau - 1] + mats[1] @ gammas[tau - 2]
        assert np.allclose(gammas[tau], rec, atol=1e-12)


def test_autocovariances_match_long_simulation():
    T = 400_000
    values = sample_values(TWO_LAG_SPEC, T, rng_for(77))
    gammas = var_autocovariances(
        [np.asarray(A, float) for A in TWO_LAG_SPEC.coeff_matrices],
        3,
        innovation_cov=np.asarray(TWO_LAG_SPEC.innovation_cov, float),
    )
    centered = values - values.mean(axis=0)
    for tau in range(4):
        est = centered[tau:].T @ centered[: T - tau] / T
        assert np.allclose(est, gammas[tau], atol=0.03)


def test_autocovariances_reject_unstable():
    with pytest.raises(DomainError) as exc:
        var_autocovariances([np.eye(2)], 2, innovation_cov=np.eye(2))
    assert "stable" in str(exc.value)


def test_forecast_var_matches_companion_closed_form():
    data = simulate(TWO_LAG_SPEC, 800)
    fit = fit_var(data, 2)
    horizon = 12
    out = forecast_var(fit, data, horizon)

    k, p = 2, 2
    F = companion_matrix(fit.coeff_matrices)
    d = np.concatenate([fit.intercepts, np.zeros(k * (p - 1))])
    state = np.concatenate(
        [[data["y1"].values[-1], data["y2"].values[-1]],
         [data["y1"].values[-2], data["y2"].values[-2]]]
    )
    expected = np.empty((horizon, k))
    for h in range(horizon):
        state = d + F @ state
        expected[h] = state[:k]
    got = np.column_stack([out["y1"].point_forecasts, out["y2"].point_forecasts])
    assert np.max(np.abs(got - expected)) < 1e-12


def test_forecast_var_k1_degenerates_to_forecast_ar():
    series = simulate(ArProcess(beta0=0.2, betas=(0.7,), seed=31), 400)
    var = fit_var({"y": series}, 1)
    ar = fit_ar(series, 1)
    fv = forecast_var(var, {"y": series}, 8)["y"]
    fa = forecast_ar(ar, series, 8)
    assert np.array_equal(fv.point_forecasts, fa.point_forecasts)


def test_forecast_var_guards():
    data = simulate(STABLE_SPEC, 200)
    fit = fit_var(data, 1)
    with pytest.raises(DomainError):
        forecast_var(fit, data, 0)
    with pytest.raises(DomainError):
        forecast_var(fit, {"y1": data["y1"]}, 2)
    with pytest.raises(DomainError):
        forecast_var(
            fit,
            {"y1": data["y1"], "y2": TimeSeries(data["y2"].values[:100])},
            2,
        )


CAUSAL_SPEC = VarProcess(
    delta=(0.0, 0.0),
    coeff_matrices=(((0.3, 0.8), (0.0, 0.5)),),
    innovation_cov=((1.0, 0.0), (0.0, 1.0)),
    seed=303,
)


def test_granger_asymmetry():
    data = simulate(CAUSAL_SPEC, 2_000)
    forward = granger_test(data, cause="y2", effect="y1", p=1)
    backward = granger_test(data, cause="y1", effect="y2", p=1)
    assert forward.decision[0.01] == "reject"
    assert backward.decision[0.05] == "fail_to_reject"
    expected = {"cause": "y2", "effect": "y1", "p": 1, "n_obs": 1_999}
    assert expected.items() <= forward.nuisance.items()
    assert forward.nuisance["p_bracket"] == "p < 0.01"


def test_granger_ignores_extra_series():
    data = dict(simulate(CAUSAL_SPEC, 800))
    with_extra = dict(data)
    with_extra["junk"] = simulate(ArProcess(seed=9), 800)
    a = granger_test(data, cause="y2", effect="y1", p=2)
    b = granger_test(with_extra, cause="y2", effect="y1", p=2)
    assert a.statistic == b.statistic


def test_granger_guards():
    data = simulate(CAUSAL_SPEC, 300)
    with pytest.raises(DomainError):
        granger_test(data, cause="y1", effect="y1", p=1)
    with pytest.raises(DomainError):
        granger_test(data, cause="zz", effect="y1", p=1)
    with pytest.raises(DomainError):
        granger_test(data, cause="y2", effect="y1", p=0)
    # the effect's own lag fits it exactly: no residual variance to scale the F by
    exact = {"e": TimeSeries(2.0 ** np.arange(40)), "c": TimeSeries(data["y2"].values[:40])}
    with pytest.raises(DomainError, match="^the unrestricted regression fits exactly"):
        granger_test(exact, cause="c", effect="e", p=1)


def two_fit_granger_f(data, cause, effect, p):
    """Reference: fit the restricted and the unrestricted model, compare by f_statistic."""
    pair = {effect: data[effect], cause: data[cause]}
    own = [Intercept()] + [Lag(effect, j) for j in range(1, p + 1)]
    cross = [Lag(cause, j) for j in range(1, p + 1)]
    restricted, _ = fit_design(DesignSpec(Level(effect), own), pair)
    unrestricted, _ = fit_design(DesignSpec(Level(effect), own + cross), pair)
    return f_statistic(restricted, unrestricted, q=p), unrestricted.n_obs


@pytest.mark.parametrize("T", [100, 500, 5000])
@pytest.mark.parametrize("cause, effect", [("y2", "y1"), ("y1", "y2")])
def test_granger_one_fit_matches_two_fits(cause, effect, T):
    data = simulate(replace(CAUSAL_SPEC, coeff_matrices=(((0.3, 0.1), (0.0, 0.5)),)), T)
    p = 2
    ref, n_obs = two_fit_granger_f(data, cause, effect, p)
    rep = granger_test(data, cause=cause, effect=effect, p=p)
    assert rep.statistic == pytest.approx(ref.statistic, rel=1e-10)
    assert rep.family == {"family": "F", "df_num": ref.df_num, "df_den": ref.df_den}
    assert rep.critical_values == ref.critical_values(DEFAULT_LEVELS)
    decision = {lv: decide(ref.statistic, cv, "right") for lv, cv in rep.critical_values.items()}
    assert rep.decision == decision
    assert rep.nuisance == {"cause": cause, "effect": effect, "p": p, "n_obs": n_obs,
                            "p_bracket": p_bracket(decision)}


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("level", [0.0, 400.0])
@pytest.mark.parametrize("T", [60, 500])
@pytest.mark.parametrize("k", [2, 3])
def test_fit_var_matches_one_fit_per_equation(k, T, level, p):
    data = var_sample(k, T, level, seed=10 * k + T + p)
    names = tuple(data)
    regressors = [Intercept()] + [Lag(nm, i) for i in range(1, p + 1) for nm in names]
    refs = [fit_design(DesignSpec(Level(nm), regressors), data)[0] for nm in names]
    fit = fit_var(data, p)
    assert fit.names == names and fit.p == p and fit.n_obs == T - p
    assert close(fit.intercepts, [r.coefficient("const") for r in refs], 1e-10)
    for i, A in enumerate(fit.coeff_matrices, start=1):
        ref = [[r.coefficient(f"{c}.l{i}") for c in names] for r in refs]
        assert A.shape == (k, k) and close(A, ref, 1e-10)
    U = np.column_stack([r.residuals for r in refs])
    assert close(fit.residual_cov, U.T @ U / (T - p), 1e-10)
    for eq, ref in zip(fit.equation_fits, refs):
        for field in ("coefficients", "stderrs", "t_stats", "residuals", "fitted"):
            assert close(getattr(eq, field), getattr(ref, field), 1e-10), field
        assert eq.ssr == pytest.approx(ref.ssr, rel=1e-10)
        assert eq.ser == pytest.approx(ref.ser, rel=1e-10)
        assert (eq.n_obs, eq.n_params, eq.column_names) == (
            ref.n_obs, ref.n_params, ref.column_names)
        assert close(eq.qr.prefix_ssr(), ref.qr.prefix_ssr(), 1e-10)
    assert fit.equation("y2") is fit.equation_fits[1]
    for arr in (fit.intercepts, fit.residual_cov, *fit.coeff_matrices):
        assert not arr.flags.writeable


def test_fit_var_makes_one_fit_and_builds_no_design(monkeypatch):
    import tsecon.ols
    import tsecon.varmodel

    calls = {"solve_ols": 0, "build_design": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tsecon.varmodel, "solve_ols", counting("solve_ols", solve_ols))
    for name in ("build_design", "solve_ols"):
        monkeypatch.setattr(tsecon.ols, name, counting(name, getattr(tsecon.ols, name)))
    fit_var(var_sample(3, 200, 0.0, seed=1), 2)
    assert calls == {"solve_ols": 1, "build_design": 0}


def test_fit_var_equation_fits_give_exclusion_tests():
    # every equation fit carries its own column of the shared factorisation
    data = var_sample(2, 300, 0.0, seed=4)
    fit = fit_var(data, 2)
    V = np.column_stack([s.values for s in data.values()])
    X, _ = lag_design(V, fit.names, 2)
    for j, eq in enumerate(fit.equation_fits):
        ref = f_statistic(solve_ols(X[:, :3], V[2:, j]), solve_ols(X, V[2:, j]), q=2)
        assert exclusion_f_test(eq, 2).statistic == pytest.approx(ref.statistic, rel=1e-10)


@pytest.mark.parametrize("kind", ["duplicate", "constant", "linear"])
def test_fit_var_on_degenerate_pairs(kind):
    a = simulate(ArProcess(betas=(0.5,), seed=3), 200).values
    other = {"duplicate": a, "constant": np.full(200, 5.0), "linear": 2.0 * a + 1.0}[kind]
    with pytest.raises(CollinearityError):
        fit_var({"a": TimeSeries(a), "b": TimeSeries(other)}, 2)


def test_fit_var_names_the_copy_in_a_duplicated_pair():
    a = simulate(ArProcess(betas=(0.5,), seed=3), 200).values
    with pytest.raises(CollinearityError) as exc:
        fit_var({"a": TimeSeries(a), "b": TimeSeries(a.copy())}, 2)
    assert exc.value.columns == ["b.l1", "b.l2"]


def test_fit_var_guard_messages():
    a = simulate(ArProcess(betas=(0.5,), seed=3), 200).values
    b = simulate(ArProcess(betas=(0.3,), seed=4), 200).values
    data = {"a": TimeSeries(a), "b": TimeSeries(b)}
    with pytest.raises(DomainError, match=r"^series lengths differ: \{'a': 200, 'b': 199\}$"):
        fit_var({"a": TimeSeries(a), "b": TimeSeries(b[:199])}, 2)
    with pytest.raises(DomainError, match=r"^unknown series 'zz' in design$"):
        fit_var(data, 2, names=("a", "zz"))
    with pytest.raises(DomainError,
                       match=r"^effective sample of 4 rows cannot identify 5 parameters$"):
        fit_var({"a": TimeSeries(a[:6]), "b": TimeSeries(b[:6])}, 2)
    with pytest.raises(DomainError, match=r"^VAR order must be a positive integer$"):
        fit_var(data, 0)
    with pytest.raises(DomainError, match=r"^a VAR needs at least one variable$"):
        fit_var({}, 1)
