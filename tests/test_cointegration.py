import re

import numpy as np
import pytest

from tsecon import (
    EG_ADF_CRITICAL_VALUES,
    ArProcess,
    CointegratedPair,
    CriticalValueCache,
    DomainError,
    RandomWalk,
    TimeSeries,
    WhiteNoise,
    dols,
    eg_adf_test,
    integration_order,
    mc_critical_values,
    rng_for,
    sample_values,
    simulate,
)


def test_eg_adf_detects_cointegration():
    pair = simulate(CointegratedPair(theta=2.0, noise_ar=0.4, seed=14), 800)
    fit = eg_adf_test(pair["y"], [pair["x"]])
    assert fit.theta[0] == pytest.approx(2.0, abs=0.05)
    assert not fit.degenerate
    rep = fit.eg_adf
    assert rep.name == "eg_adf"
    assert rep.tail == "left"
    assert rep.decision[0.05] == "reject"
    assert rep.cv_provenance["kind"] == "paper_table"
    assert rep.nuisance["dependent"] == "y"
    for lv, cv in rep.critical_values.items():
        assert cv == EG_ADF_CRITICAL_VALUES[1][round(lv, 2)]


def test_eg_adf_fails_to_reject_independent_walks():
    rng = rng_for(99)
    y = TimeSeries(sample_values(RandomWalk(), 500, rng), label="y")
    x = TimeSeries(sample_values(RandomWalk(), 500, rng), label="x")
    fit = eg_adf_test(y, [x])
    assert fit.eg_adf.decision[0.05] == "fail_to_reject"


def test_eg_adf_multiple_regressors_use_matching_row():
    rng = rng_for(7)
    xs = [TimeSeries(sample_values(RandomWalk(), 600, rng), label=f"x{i}") for i in range(1, 4)]
    noise = sample_values(WhiteNoise(), 600, rng)
    y = TimeSeries(1.0 + xs[0].values - 2.0 * xs[1].values + 0.5 * xs[2].values + noise,
                   label="y")
    fit = eg_adf_test(y, xs)
    assert fit.n_regressors == 3
    assert np.allclose(fit.theta, [1.0, -2.0, 0.5], atol=0.05)
    assert fit.eg_adf.critical_values[0.05] == EG_ADF_CRITICAL_VALUES[3][0.05]
    assert fit.eg_adf.decision[0.01] == "reject"


def test_eg_adf_degenerate_exact_relation():
    x = simulate(RandomWalk(seed=8), 300)
    y = TimeSeries(3.0 + 2.0 * x.values, label="y")
    fit = eg_adf_test(y, [TimeSeries(x.values, label="x")])
    assert fit.degenerate
    assert fit.eg_adf is None
    assert fit.theta[0] == pytest.approx(2.0, abs=1e-8)
    assert fit.alpha == pytest.approx(3.0, abs=1e-6)
    assert np.max(np.abs(fit.residual_series.values)) < 1e-6


def test_eg_adf_guards():
    x = simulate(RandomWalk(seed=2), 200)
    y = TimeSeries(x.values * 1.5, label="y")
    with pytest.raises(DomainError):
        eg_adf_test(y, [])
    # five independent walks: the packaged table stops at four regressors
    rng = rng_for(56)
    xs5 = [TimeSeries(sample_values(RandomWalk(), 200, rng), label=f"x{i}") for i in range(5)]
    with pytest.raises(DomainError,
                       match=re.escape("no cached critical values for 'egadf|n_regressors=5'")):
        eg_adf_test(y, xs5)
    with pytest.raises(DomainError):
        eg_adf_test(y, [TimeSeries(x.values, label="y")])  # duplicate label


def test_eg_adf_theta_of_a_regressor_labelled_const():
    # theta is read by position, so a regressor named like the intercept keeps its own
    pair = simulate(CointegratedPair(theta=2.0, noise_ar=0.4, seed=14), 300)
    x = pair["x"].values
    named = eg_adf_test(pair["y"], [TimeSeries(x, label="x")])
    const = eg_adf_test(pair["y"], [TimeSeries(x, label="const")])
    assert const.theta[0] == named.theta[0] == pytest.approx(2.0, abs=0.05)
    assert const.alpha == named.alpha
    assert const.eg_adf.nuisance["theta"] == {"const": named.theta[0]}


def test_eg_adf_reads_a_five_regressor_entry_from_a_cv_file(tmp_path):
    # the packaged cache stops at 4 regressors; mc-critical supplies the rest
    run = mc_critical_values("egadf", {"n_regressors": 5}, T_sim=50, reps=1_000, seed=5)
    path = str(tmp_path / "cv.json")
    CriticalValueCache(entries=[run.to_entry()]).save(path)
    rng = rng_for(55)
    y, *xs = [TimeSeries(sample_values(RandomWalk(), 200, rng), label=nm)
              for nm in ("y", "x1", "x2", "x3", "x4", "x5")]
    rep = eg_adf_test(y, xs, cv_source=path).eg_adf
    assert rep.family["n_regressors"] == 5
    assert rep.critical_values == run.quantiles
    assert rep.cv_provenance["kind"] == "monte_carlo"


def test_integration_order_ladder():
    stationary = simulate(ArProcess(betas=(0.5,), seed=3), 600)
    assert integration_order(stationary).order == 0

    walk = simulate(RandomWalk(seed=4), 600)
    out = integration_order(walk)
    assert out.order == 1
    assert out.classification == "I(1)"
    assert len(out.reports) == 2
    assert out.reports[0].decision[0.05] == "fail_to_reject"
    assert out.reports[1].decision[0.05] == "reject"

    rng = rng_for(5)
    doubly = TimeSeries(np.cumsum(np.cumsum(rng.standard_normal(600))), label="z")
    assert integration_order(doubly).order == 2


def test_integration_order_guards():
    walk = simulate(RandomWalk(seed=6), 300)
    with pytest.raises(DomainError):
        integration_order(walk, max_order=0)
    with pytest.raises(DomainError):
        integration_order(walk, level=0.07)


def test_dols_p0_is_the_static_regression():
    pair = simulate(CointegratedPair(theta=2.0, seed=21), 400)
    static = eg_adf_test(pair["y"], [pair["x"]])
    d0 = dols(pair["y"], [pair["x"]], p=0)
    assert d0.theta[0] == static.stage1.coefficient("x")
    assert d0.intercept == static.stage1.coefficient("const")
    assert d0.deltas == {"x": {}}
    assert d0.fit.n_obs == static.stage1.n_obs


def test_dols_window_shape_and_recovery():
    pair = simulate(CointegratedPair(theta=2.0, endogeneity=0.6, noise_ar=0.3, seed=22), 2_000)
    fit = dols(pair["y"], [pair["x"]], p=2)
    assert fit.theta[0] == pytest.approx(2.0, abs=0.03)
    assert sorted(fit.deltas["x"]) == [-2, -1, 0, 1, 2]
    assert fit.fit.n_obs == 2_000 - 2 - (2 + 1)  # p + 1 head rows, p tail rows


def test_dols_theta_of_a_regressor_labelled_const():
    pair = simulate(CointegratedPair(theta=2.0, endogeneity=0.6, noise_ar=0.3, seed=22), 2_000)
    x = pair["x"].values
    named = dols(pair["y"], [TimeSeries(x, label="x")], p=2)
    const = dols(pair["y"], [TimeSeries(x, label="const")], p=2)
    assert const.theta[0] == named.theta[0] == pytest.approx(2.0, abs=0.03)
    assert const.intercept == named.intercept
    assert const.deltas == {"const": named.deltas["x"]}


def test_dols_level_terms_drop_contemporaneous():
    pair = simulate(CointegratedPair(theta=1.5, seed=23), 500)
    fit = dols(pair["y"], [pair["x"]], p=2, use_level_terms=True)
    assert sorted(fit.deltas["x"]) == [-2, -1, 1, 2]
    assert fit.use_level_terms
    assert fit.theta[0] == pytest.approx(1.5, abs=0.1)


def test_dols_guards():
    pair = simulate(CointegratedPair(seed=24), 100)
    with pytest.raises(DomainError):
        dols(pair["y"], [pair["x"]], p=-1)
    with pytest.raises(DomainError):
        dols(pair["y"], [], p=1)
