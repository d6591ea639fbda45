import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsecon.armodel
from tsecon import (
    ArProcess,
    DomainError,
    LagPolynomial,
    RandomWalk,
    TimeSeries,
    ar1_moments,
    fit_ar,
    forecast_ar,
    is_stationary,
    ma_moments,
    pseudo_out_of_sample_rmsfe,
    simulate,
    stability,
)
from tsecon.armodel import iterate_linear_forecast


def test_is_stationary_ar1_eigenvalue():
    # the companion matrix of an AR(1) is [[b1]]; 1 - 0.5 z has root 2 = 1 / 0.5
    check = is_stationary(LagPolynomial([0.5]))
    assert check.stable and not check.has_unit_root
    assert check.root_moduli == (0.5,)


def test_lag_polynomial_unit_and_explosive_roots():
    unit = is_stationary(LagPolynomial([1.0]))
    assert not unit.stable and unit.has_unit_root
    explosive = is_stationary(LagPolynomial([1.3]))
    assert not explosive.stable and not explosive.has_unit_root
    assert explosive.root_moduli == (1.3,)


def test_lag_polynomial_trailing_zeros_kept():
    # a zero coefficient is a zero eigenvalue, where a root would be infinite
    poly = LagPolynomial([0.5, 0.0, 0.0])
    assert poly.order == 3
    check = is_stationary(poly)
    assert check.root_moduli == (0.5, 0.0, 0.0)
    assert check.stable


def test_is_stationary_matches_random_draws(rng):
    # an AR(2) is stationary iff both companion eigenvalues lie inside the
    # unit circle
    for _ in range(200):
        b1, b2 = rng.uniform(-1.5, 1.5, size=2)
        eigs = np.linalg.eigvals(np.array([[b1, b2], [1.0, 0.0]]))
        inside = bool(np.max(np.abs(eigs)) < 1.0 - 1e-6)
        check = is_stationary(LagPolynomial([b1, b2]))
        if abs(np.max(np.abs(eigs)) - 1.0) > 1e-4:  # stay away from the tolerance band
            assert check.stable == inside


@pytest.mark.parametrize("p", [2, 3])
def test_is_stationary_is_the_k1_var_check(p, rng):
    # an AR(p) is the k = 1 VAR(p), and both are judged by one routine
    for _ in range(100):
        b = rng.uniform(-1.2, 1.2, size=p)
        assert is_stationary(LagPolynomial(b)) == stability([np.array([[c]]) for c in b])


def test_fit_ar_recovers_parameters():
    spec = ArProcess(beta0=1.0, betas=(0.6, -0.3), sigma2=0.5, seed=77)
    series = simulate(spec, 20_000)
    fit = fit_ar(series, 2)
    assert fit.intercept == pytest.approx(1.0, abs=0.05)
    assert fit.lag_poly.coefficients[0] == pytest.approx(0.6, abs=0.03)
    assert fit.lag_poly.coefficients[1] == pytest.approx(-0.3, abs=0.03)
    assert fit.fit.ser == pytest.approx(np.sqrt(0.5), rel=0.05)


def test_fit_ar_guards():
    short = TimeSeries(np.arange(6.0))
    with pytest.raises(DomainError):
        fit_ar(short, 2)  # needs more than 2 (p + 1) observations
    with pytest.raises(DomainError):
        fit_ar(TimeSeries(np.arange(30.0)), 0)


def test_ar1_moments_closed_forms():
    m = ar1_moments(beta0=2.0, beta1=0.8, sigma2=1.5)
    assert m.mean == pytest.approx(2.0 / 0.2)
    assert m.variance == pytest.approx(1.5 / (1 - 0.64))
    for tau in range(1, 8):
        assert m.autocovariance(tau) == pytest.approx(0.8**tau * m.variance)
        # the lag-one ratio identity holds exactly in floating point
        assert m.autocovariance(tau) / m.autocovariance(tau - 1) == pytest.approx(
            0.8, abs=1e-15
        )


def test_ar1_moments_rejects_unit_root():
    with pytest.raises(DomainError):
        ar1_moments(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ar1_moments(0.0, 0.5, -1.0)


def test_ma_moments_against_convolution(rng):
    for _ in range(20):
        q = int(rng.integers(1, 6))
        alphas = rng.normal(size=q)
        sigma2 = float(rng.uniform(0.5, 2.0))
        m = ma_moments(0.7, alphas, sigma2)
        w = np.concatenate([[1.0], -alphas])  # weights on u_t, u_{t-1}, ...
        assert m.mean == pytest.approx(0.7)
        for tau in range(q + 3):
            gamma = 0.0 if tau >= len(w) else sigma2 * float(np.dot(w[: len(w) - tau], w[tau:]))
            assert m.autocovariance(tau) == pytest.approx(gamma, abs=1e-12)
        assert m.autocovariance(q + 1) == 0.0


def test_iterate_linear_forecast_ar1_closed_form():
    beta0, beta1 = 0.5, 0.9
    y_T = 3.0
    path = iterate_linear_forecast(
        np.array([beta0]), [np.array([[beta1]])], np.array([[y_T]]), 10
    )
    mu = beta0 / (1 - beta1)
    expected = mu + beta1 ** np.arange(1, 11) * (y_T - mu)
    assert np.allclose(path[:, 0], expected, atol=1e-12)


def test_forecast_ar_matches_manual_recursion(rng):
    series = simulate(ArProcess(beta0=0.3, betas=(0.5, 0.2), seed=5), 300)
    fit = fit_ar(series, 2)
    fc = forecast_ar(fit, series, 6)
    b0 = fit.intercept
    b1, b2 = fit.lag_poly.coefficients
    hist = list(series.values[-2:])
    manual = []
    for _ in range(6):
        nxt = b0 + b1 * hist[-1] + b2 * hist[-2]
        manual.append(nxt)
        hist.append(nxt)
    assert np.allclose(fc.point_forecasts, manual, atol=1e-12)
    assert fc.rmsfe_estimate == fit.fit.ser
    assert fc.horizon == 6


def test_forecast_ar_guards():
    series = simulate(ArProcess(seed=1), 50)
    fit = fit_ar(series, 1)
    with pytest.raises(DomainError):
        forecast_ar(fit, series, 0)
    fit2 = fit_ar(series, 2)
    with pytest.raises(DomainError):
        forecast_ar(fit2, TimeSeries([1.0]), 1)  # history shorter than p


def test_pseudo_out_of_sample_rmsfe_near_noise_sd():
    series = simulate(ArProcess(beta0=0.0, betas=(0.5,), sigma2=1.0, seed=9), 600)
    rmsfe = pseudo_out_of_sample_rmsfe(series, 1, 0.75)
    assert 0.85 < rmsfe < 1.15
    with pytest.raises(DomainError):
        pseudo_out_of_sample_rmsfe(series, 1, 0.999)
    with pytest.raises(DomainError):
        pseudo_out_of_sample_rmsfe(series, 1, 1.5)


@pytest.mark.parametrize("p, split, message", [
    ("2", 0.5, "autoregressive order must be a positive integer"),
    (None, 0.5, "autoregressive order must be a positive integer"),
    (1, "0.5", "split must lie strictly between 0 and 1"),
    (1, None, "split must lie strictly between 0 and 1"),
])
def test_pseudo_out_of_sample_rmsfe_rejects_a_bad_order_or_split(p, split, message):
    series = simulate(ArProcess(betas=(0.5,), seed=9), 200)
    with pytest.raises(DomainError, match=message):
        pseudo_out_of_sample_rmsfe(series, p, split)


def rolling_refit_rmsfe(series, p, split):
    """Reference: refit the AR(p) on every window and forecast one step from it."""
    T = len(series)
    start = int(np.floor(split * T))
    errors = []
    for t in range(start, T):
        window = TimeSeries(series.values[:t], label=series.label, origin=series.origin)
        fc = forecast_ar(fit_ar(window, p), window, 1)
        errors.append(series.values[t] - fc.point_forecasts[0])
    return float(np.sqrt(np.mean(np.square(errors))))


def _rmsfe_series(kind, seed, T=300):
    if kind == "random_walk":
        return simulate(RandomWalk(seed=seed), T)
    values = simulate(ArProcess(beta0=0.2, betas=(0.5, 0.2), seed=seed), T).values
    return TimeSeries(values + (400.0 if kind == "level_400" else 0.0), label="y")


@pytest.mark.parametrize("split", [0.5, 0.75])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kind", ["ar2", "random_walk", "level_400"])
def test_rmsfe_pass_matches_the_refit_loop(kind, p, split):
    for seed in range(3):
        series = _rmsfe_series(kind, seed)
        expected = rolling_refit_rmsfe(series, p, split)
        assert pseudo_out_of_sample_rmsfe(series, p, split) == pytest.approx(expected, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    T=st.integers(30, 400),
    p=st.sampled_from([1, 2, 3]),
    level=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_rmsfe_pass_matches_the_refit_loop_property(T, p, level, seed):
    series = TimeSeries(
        simulate(ArProcess(betas=(0.6,), seed=seed), T).values + level, label="y"
    )
    expected = rolling_refit_rmsfe(series, p, 0.5)
    assert pseudo_out_of_sample_rmsfe(series, p, 0.5) == pytest.approx(expected, rel=1e-10)


def _mp_rolling_rmsfe(values, p, split, dps=60):
    """Rolling-origin RMSFE at dps digits: exact running normal equations per origin."""
    T = len(values)
    start = int(np.floor(split * T))
    k = p + 1
    with mp.workdps(dps):
        v = [mp.mpf(float(x)) for x in values]
        G, h = mp.zeros(k, k), mp.zeros(k, 1)
        sq = mp.mpf(0)
        for t in range(p, T):
            x = [mp.mpf(1)] + [v[t - i] for i in range(1, p + 1)]
            if t >= start:
                b = mp.lu_solve(G, h)
                e = v[t] - sum(x[i] * b[i] for i in range(k))
                sq += e * e
            for i in range(k):
                h[i] += x[i] * v[t]
                for j in range(k):
                    G[i, j] += x[i] * x[j]
        return float(mp.sqrt(sq / (T - start)))


@pytest.mark.parametrize("p", [1, 2])
def test_rmsfe_pass_matches_extended_precision_far_from_zero(p):
    # the per-origin refit loop this pass replaced is off by up to ~3e-8 here:
    # its forecasts subtract two numbers near 1e6
    for seed in range(3):
        values = 1e6 + np.random.default_rng(seed).standard_normal(200)
        exact = _mp_rolling_rmsfe(values, p, 0.5)
        got = pseudo_out_of_sample_rmsfe(TimeSeries(values), p, 0.5)
        assert abs(got - exact) <= 1e-12 * exact


@pytest.mark.parametrize(
    "values, p",
    [
        (np.full(100, 3.0), 1),
        (np.concatenate([np.zeros(60), np.random.default_rng(1).standard_normal(40)]), 1),
        (np.arange(100.0), 2),
    ],
    ids=["constant", "zero_first_60_percent", "arange"],
)
def test_rmsfe_degenerate_series_fail_like_the_refit_loop(values, p):
    series = TimeSeries(values)
    with pytest.raises(Exception) as expected:
        rolling_refit_rmsfe(series, p, 0.5)
    with pytest.raises(type(expected.value)) as got:
        pseudo_out_of_sample_rmsfe(series, p, 0.5)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_rmsfe_fits_one_window_only(monkeypatch):
    calls = []

    def counting_fit_ar(*args):
        calls.append(args)
        return fit_ar(*args)

    monkeypatch.setattr(tsecon.armodel, "fit_ar", counting_fit_ar)
    pseudo_out_of_sample_rmsfe(_rmsfe_series("ar2", 0), 2, 0.5)
    assert len(calls) == 1
