import numpy as np
import pytest

from tsecon import AdfSpec, ArProcess, DomainError, RandomWalk, TimeSeries, adf_test, simulate
from tsecon.ols import DesignSpec, Diff, DiffLag, Intercept, Lag, Trend, build_design, solve_ols
from tsecon.unitroot import (
    adf_statistic,
    default_adf_pmax,
    resolve_adf_pmax,
    select_adf_lags,
)


def test_adf_spec_validation():
    with pytest.raises(DomainError):
        AdfSpec(deterministic="none")  # internal only; not a public spec
    with pytest.raises(DomainError):
        AdfSpec(lags=-1)
    with pytest.raises(DomainError):
        AdfSpec(lags="bic")
    assert AdfSpec().lag_token == "auto"
    assert AdfSpec(lags=3).lag_token == "3"


def test_default_pmax_schedule():
    assert default_adf_pmax(100) == 4
    assert default_adf_pmax(50) == 3
    assert default_adf_pmax(500) == 5
    assert resolve_adf_pmax(30) == min(default_adf_pmax(30), (30 - 8) // 3)


def test_statistic_is_location_invariant():
    series = simulate(RandomWalk(seed=3), 300)
    shifted = series.values + 1000.0
    stat_a, _, lags_a = adf_statistic(series.values, "drift", 2)
    stat_b, _, lags_b = adf_statistic(shifted, "drift", 2)
    assert lags_a == lags_b == 2
    assert stat_b == pytest.approx(stat_a, abs=1e-7)


def test_trend_statistic_is_trend_invariant():
    series = simulate(RandomWalk(seed=5), 400)
    tilted = series.values + 0.3 * np.arange(400)
    stat_a, _, _ = adf_statistic(series.values, "trend", 1)
    stat_b, _, _ = adf_statistic(tilted, "trend", 1)
    assert stat_b == pytest.approx(stat_a, abs=1e-6)


def test_statistic_is_scale_invariant():
    series = simulate(RandomWalk(seed=11), 250)
    stat_a, _, _ = adf_statistic(series.values, "drift", 0)
    stat_b, _, _ = adf_statistic(series.values * 37.5, "drift", 0)
    assert stat_b == pytest.approx(stat_a, abs=1e-9)


def test_stationary_series_gives_large_negative_statistic():
    series = simulate(ArProcess(betas=(0.3,), seed=7), 500)
    stat, _, _ = adf_statistic(series.values, "drift", 0)
    assert stat < -10.0


def test_auto_lag_selection_on_common_sample():
    # the chosen lag must reproduce the fixed-lag statistic exactly once
    # refit on the full sample
    series = simulate(ArProcess(betas=(0.6, 0.2), seed=2), 400)
    stat_auto, fit_auto, lags_used = adf_statistic(series.values, "drift", "auto")
    stat_fixed, fit_fixed, _ = adf_statistic(series.values, "drift", lags_used)
    assert stat_auto == stat_fixed
    assert fit_auto.n_obs == fit_fixed.n_obs


def test_select_adf_lags_finds_augmentation():
    # an AR(2) in levels needs one lagged difference in the ADF regression
    series = simulate(ArProcess(betas=(1.2, -0.3), sigma2=1.0, seed=6), 3_000)
    chosen = select_adf_lags(series.values, "drift", 6)
    assert chosen == 1


def test_adf_test_report_shape_and_decision():
    rw = simulate(RandomWalk(seed=17), 500)
    rep = adf_test(rw)
    assert rep.name == "adf"
    assert rep.tail == "left"
    assert set(rep.critical_values) == {0.10, 0.05, 0.01} or len(rep.critical_values) == 3
    assert rep.cv_provenance["kind"] == "monte_carlo"
    assert rep.nuisance["lags"] == "auto"

    stationary = simulate(ArProcess(betas=(0.4,), seed=18), 500)
    rep2 = adf_test(stationary, AdfSpec(lags=0))
    assert all(d == "reject" for d in rep2.decision.values())


def test_adf_test_guards():
    with pytest.raises(DomainError):
        adf_test(TimeSeries(np.arange(15.0)))
    walk = simulate(RandomWalk(seed=1), 100)
    for wrong, kind in ((walk.values, "ndarray"), ({"y": walk}, "dict"), (None, "NoneType")):
        with pytest.raises(DomainError, match=f"^adf_test needs a TimeSeries, got {kind}$"):
            adf_test(wrong)
    series = simulate(RandomWalk(seed=1), 30)
    with pytest.raises(DomainError):
        adf_test(series, AdfSpec(lags=25))


def test_short_sample_warns():
    series = simulate(RandomWalk(seed=2), 45)
    with pytest.warns(UserWarning, match="effective sample"):
        adf_test(series, AdfSpec(lags=0))


def _adf_design(values, deterministic, lags):
    """The ADF regression declared term by term, independently of the library's builder."""
    terms = [Intercept()] if deterministic in ("drift", "trend") else []
    terms += [Trend()] if deterministic == "trend" else []
    terms += [Lag("y", 1)] + [DiffLag("y", j) for j in range(1, lags + 1)]
    return build_design(DesignSpec(Diff("y"), terms), {"y": TimeSeries(values, label="y")})


def _refit_lag_choice(values, deterministic, p_max):
    """BIC lag choice by refitting each candidate on the common sample."""
    k_fixed = {"drift": 2, "trend": 3, "none": 1}[deterministic]
    n = values.size - 1 - p_max
    bic = []
    for ell in range(p_max + 1):
        design = _adf_design(values, deterministic, ell)
        ssr = solve_ols(design.matrix[p_max - ell :], design.response[p_max - ell :]).ssr
        bic.append(np.log(ssr / n) + (k_fixed + ell) * np.log(n) / n)
    return int(np.argmin(bic))


@pytest.mark.parametrize("deterministic", ["drift", "trend"])
@pytest.mark.parametrize("lags", [0, 2])
def test_adf_statistic_fits_the_declared_design(deterministic, lags):
    values = simulate(ArProcess(betas=(0.7,), seed=3), 120).values
    _, fit, _ = adf_statistic(values, deterministic, lags)
    design = _adf_design(values, deterministic, lags)
    ref = solve_ols(design.matrix, design.response, design.column_names)
    assert fit.column_names == ref.column_names
    assert np.array_equal(fit.coefficients, ref.coefficients)
    assert np.array_equal(fit.stderrs, ref.stderrs)


def test_select_adf_lags_matches_refitting_each_candidate():
    specs = [ArProcess(betas=(0.5, 0.6, -0.4 + 0.05 * s), seed=40 + s) for s in range(6)]
    specs += [RandomWalk(seed=50 + s) for s in range(6)]
    paths = np.vstack([simulate(spec, 160).values for spec in specs])
    for deterministic in ("drift", "trend", "none"):
        block = select_adf_lags(paths, deterministic, 6)
        assert block.shape == (12,)
        for row, chosen in zip(paths, block):
            assert select_adf_lags(row, deterministic, 6) == chosen
            assert chosen == _refit_lag_choice(row, deterministic, 6)
        assert set(block) == {0, 1, 2}
