import numpy as np
import pytest
from scipy.signal import lfilter

from tsecon import (
    ArmaProcess,
    ArProcess,
    CointegratedPair,
    DomainError,
    InterceptBreakAr,
    MaProcess,
    RandomWalk,
    VarProcess,
    WhiteNoise,
    ar1_moments,
    ma_moments,
    rng_for,
    sample_values,
    simulate,
)
from tsecon.dgp import _lfilter


def test_simulate_is_seed_deterministic():
    a = simulate(ArProcess(betas=(0.5,), seed=42), 100)
    b = simulate(ArProcess(betas=(0.5,), seed=42), 100)
    c = simulate(ArProcess(betas=(0.5,), seed=43), 100)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_rng_for_streams_are_stable_and_distinct():
    draws = {i: rng_for(7, i).standard_normal(4) for i in range(5)}
    again = {i: rng_for(7, i).standard_normal(4) for i in range(5)}
    for i in range(5):
        assert np.array_equal(draws[i], again[i])
        for j in range(i + 1, 5):
            assert not np.array_equal(draws[i], draws[j])


def test_arma_with_no_ma_part_equals_pure_ar():
    ar = sample_values(ArProcess(beta0=0.3, betas=(0.6, -0.1)), 200, rng_for(5))
    arma = sample_values(ArmaProcess(beta0=0.3, betas=(0.6, -0.1), alphas=()), 200, rng_for(5))
    assert np.array_equal(ar, arma)


def test_arma_with_no_ar_part_equals_pure_ma():
    ma = sample_values(MaProcess(alpha0=0.2, alphas=(0.5,)), 150, rng_for(6))
    arma = sample_values(ArmaProcess(beta0=0.2, betas=(), alphas=(0.5,)), 150, rng_for(6))
    assert np.array_equal(ma, arma)


@pytest.mark.parametrize("p", [0, 1, 2, 4])
@pytest.mark.parametrize("q", [0, 1, 3])
def test_filter_equals_scipy_lfilter_bit_for_bit(p, q):
    # scipy's lfilter is the reference: simulated paths must not move by a bit
    rng = np.random.default_rng(100 * p + q)
    for T in (1, 2, 7, 300):
        b = np.concatenate([[1.0], -rng.uniform(-0.9, 0.9, q)])
        a = np.concatenate([[1.0], -rng.uniform(-0.9, 0.9, p) / max(p, 1)])
        x = rng.uniform(0.1, 3.0) * rng.standard_normal(T)
        expected = lfilter(b, a, x)
        got = _lfilter(b, a, x)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_random_walk_differences_are_the_innovations():
    spec = RandomWalk(drift=0.25, y0=5.0, sigma2=4.0, seed=11)
    walk = sample_values(spec, 300, rng_for(11))
    steps = np.diff(walk)
    expected = 0.25 + 2.0 * rng_for(11).standard_normal(299)
    assert walk[0] == 5.0
    assert np.allclose(steps, expected, atol=1e-12)


def test_ar_sample_moments_match_closed_forms():
    spec = ArProcess(beta0=1.0, betas=(0.7,), sigma2=2.0, seed=19)
    values = sample_values(spec, 400_000, rng_for(19))
    m = ar1_moments(1.0, 0.7, 2.0)
    assert values.mean() == pytest.approx(m.mean, abs=0.05)
    assert values.var(ddof=1) == pytest.approx(m.variance, rel=0.02)
    lag1 = np.cov(values[1:], values[:-1])[0, 1]
    assert lag1 == pytest.approx(m.autocovariance(1), rel=0.02)


def test_ma_sample_moments_match_closed_forms():
    spec = MaProcess(alpha0=0.5, alphas=(0.6, -0.3), sigma2=1.5, seed=23)
    values = sample_values(spec, 400_000, rng_for(23))
    m = ma_moments(0.5, (0.6, -0.3), 1.5)
    assert values.mean() == pytest.approx(m.mean, abs=0.02)
    assert values.var(ddof=1) == pytest.approx(m.variance, rel=0.02)
    for tau in (1, 2):
        est = np.cov(values[tau:], values[:-tau])[0, 1]
        assert est == pytest.approx(m.autocovariance(tau), abs=0.02)
    est3 = np.cov(values[3:], values[:-3])[0, 1]
    assert abs(est3) < 0.02  # beyond the MA order the autocovariance is zero


def test_ar_y0_start_is_deterministic():
    spec = ArProcess(beta0=0.0, betas=(0.5,), y0=(3.0,), seed=2)
    values = sample_values(spec, 50, rng_for(2))
    assert values[0] == 3.0
    shocks = rng_for(2).standard_normal(50)
    manual = np.empty(50)
    manual[0] = 3.0
    for t in range(1, 50):
        manual[t] = 0.5 * manual[t - 1] + shocks[t]
    assert np.allclose(values, manual, atol=1e-12)


def test_cointegrated_pair_structure():
    spec = CointegratedPair(theta=2.0, noise_ar=0.5, seed=31)
    values = sample_values(spec, 50_000, rng_for(31))
    y, x = values[:, 0], values[:, 1]
    z = y - 2.0 * x
    # the disequilibrium error is a stationary AR(1) with parameter 0.5
    rho = np.corrcoef(z[1:], z[:-1])[0, 1]
    assert rho == pytest.approx(0.5, abs=0.02)
    assert z.var() == pytest.approx(1.0 / (1 - 0.25), rel=0.05)
    # x itself is a driftless random walk: its differences are white
    dx = np.diff(x)
    assert abs(np.corrcoef(dx[1:], dx[:-1])[0, 1]) < 0.02


def test_intercept_break_shifts_the_mean():
    spec = InterceptBreakAr(
        beta0_pre=0.0, beta0_post=2.0, break_frac=0.5, betas=(0.5,), sigma2=0.5, seed=41
    )
    values = sample_values(spec, 40_000, rng_for(41))
    pre = values[:20_000]
    post = values[30_000:]  # well past the transition
    assert pre.mean() == pytest.approx(0.0, abs=0.05)
    assert post.mean() == pytest.approx(2.0 / 0.5, abs=0.1)


def test_var_sample_matches_stationary_mean():
    spec = VarProcess(
        delta=(1.0, -0.5),
        coeff_matrices=(((0.4, 0.1), (0.2, 0.3)),),
        innovation_cov=((1.0, 0.0), (0.0, 1.0)),
        seed=51,
    )
    values = sample_values(spec, 200_000, rng_for(51))
    mu = np.linalg.solve(np.eye(2) - np.array(spec.coeff_matrices[0]), spec.delta)
    assert np.allclose(values.mean(axis=0), mu, atol=0.05)


def test_spec_validation():
    with pytest.raises(DomainError):
        ArProcess(betas=(1.0,))  # unit root is not stationary
    with pytest.raises(DomainError):
        ArProcess(betas=(0.5,), sigma2=-1.0)
    with pytest.raises(DomainError):
        VarProcess(delta=(0.0, 0.0), coeff_matrices=(np.eye(2),),
                   innovation_cov=np.eye(2))
    with pytest.raises(DomainError):
        VarProcess(delta=(0.0, 0.0), coeff_matrices=(((0.5, 0.0), (0.0, 0.5)),),
                   innovation_cov=((1.0, 2.0), (2.0, 1.0)))  # not positive definite
    with pytest.raises(DomainError):
        CointegratedPair(noise_ar=1.0)
    with pytest.raises(DomainError):
        InterceptBreakAr(break_frac=1.0)
    with pytest.raises(DomainError):
        sample_values(WhiteNoise(), 0, rng_for(1))


def test_simulate_labels_and_shapes():
    wn = simulate(WhiteNoise(seed=1), 10)
    assert wn.label == "y" and len(wn) == 10
    var = simulate(
        VarProcess(delta=(0.0,), coeff_matrices=(((0.5,),),), innovation_cov=((1.0,),),
                   names=("gdp",), seed=2),
        20,
    )
    assert set(var) == {"gdp"}
    pair = simulate(CointegratedPair(seed=3), 30)
    assert set(pair) == {"y", "x"}
