"""Every test and fit gives the same answer whatever the units of the data.

Import and export values come in currency units: euros reach 1e10, lire are
1,936.27 times larger, and a series may as well be kept in billions.  Scaling
every series by c must leave each t, F and ADF statistic, each chosen lag
order and each decision as it is, and scale each coefficient by the units it
carries: c for an intercept, 1 for the coefficient of a series on a series.
"""

import numpy as np
import pytest

from tsecon import (
    AdfSpec,
    CollinearityError,
    DomainError,
    TimeSeries,
    adf_test,
    chow_test,
    dols,
    eg_adf_test,
    f_statistic,
    fit_ar,
    fit_var,
    granger_test,
    pseudo_out_of_sample_rmsfe,
    qlr_test,
    select_ar_order,
    select_var_order,
    solve_ols,
)
from tsecon.ols import exclusion_f_test

SCALES = [1e-12, 1e-6, 1.0, 1e6, 1e12]
REL = 1e-10


def walk_pair(c, T=120, seed=11):
    """Two random walks around 100 with unit steps, in units of 1/c."""
    steps = np.random.default_rng(seed).standard_normal((2, T))
    a, b = 100.0 + np.cumsum(steps, axis=1)
    return TimeSeries(c * a, label="a"), TimeSeries(c * b, label="b")


def _coefficients(fit, c):
    """The coefficients of an OlsFit in units of the c = 1 data."""
    unit = np.array([c if nm == "const" else 1.0 for nm in fit.column_names])
    return fit.coefficients / unit


def summaries(c):
    """Per function: (unit-free statistics, coefficients in c = 1 units, choices)."""
    a, b = walk_pair(c)
    pair = {"a": a, "b": b}
    out = {}
    ar = fit_ar(a, 2)
    out["fit_ar"] = (ar.fit.t_stats, _coefficients(ar.fit, c), ())
    var = fit_var(pair, 2)
    out["fit_var"] = (np.concatenate([f.t_stats for f in var.equation_fits]),
                      np.concatenate([_coefficients(f, c) for f in var.equation_fits]), ())
    for name, report in (("granger_test", granger_test(pair, cause="b", effect="a", p=2)),
                         ("chow_test", chow_test(a, p=1, tau=60)),
                         ("qlr_test", qlr_test(a, p=1))):
        out[name] = ([report.statistic], [], (report.decision, report.nuisance))
    ar_order = select_ar_order(a, 8)
    var_order = select_var_order(pair, 4)
    out["select_ar_order"] = ([], [], (ar_order.chosen_p,))
    out["select_var_order"] = ([], [], (var_order.chosen_p,))
    out["pseudo_out_of_sample_rmsfe"] = ([], [pseudo_out_of_sample_rmsfe(a, 2, 0.5) / c], ())
    for det in ("drift", "trend"):
        report = adf_test(a, AdfSpec(lags="auto", deterministic=det))
        out[f"adf_test/{det}"] = ([report.statistic, report.nuisance["delta_hat"]], [],
                                  (report.decision, report.nuisance["lags_used"]))
    coint = eg_adf_test(a, [b])
    assert not coint.degenerate
    out["eg_adf_test"] = ([coint.eg_adf.statistic], _coefficients(coint.stage1, c),
                          (coint.eg_adf.decision, coint.eg_adf.nuisance["lags_used"]))
    d = dols(a, [b], p=2)
    out["dols"] = (d.fit.t_stats, _coefficients(d.fit, c), ())
    return out


@pytest.fixture(scope="module")
def at_unit_scale():
    return summaries(1.0)


@pytest.mark.parametrize("c", SCALES)
def test_statistics_do_not_depend_on_units(c, at_unit_scale):
    got = summaries(c)
    assert got.keys() == at_unit_scale.keys()
    for name, (stats, coefs, choices) in at_unit_scale.items():
        g_stats, g_coefs, g_choices = got[name]
        np.testing.assert_allclose(g_stats, stats, rtol=REL, atol=0, err_msg=name)
        np.testing.assert_allclose(g_coefs, coefs, rtol=REL, atol=0, err_msg=name)
        assert g_choices == choices, name


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_exact_dependencies_are_refused_at_every_scale(c):
    t = np.arange(50.0)
    X = c * np.column_stack([np.ones(50), t, 2.0 * t + 3.0])
    y = c * np.random.default_rng(0).standard_normal(50)
    with pytest.raises(CollinearityError) as exc:
        solve_ols(X, y, ("const", "t", "u"))
    assert exc.value.columns == ["u"]
    X = c * np.column_stack([np.ones(50), t, np.zeros(50)])
    with pytest.raises(CollinearityError) as exc:
        solve_ols(X, y, ("const", "t", "zero"))
    assert exc.value.columns == ["zero"]


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_f_statistic_judges_responses_at_every_scale(c):
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(50), rng.standard_normal(50)])
    y1, y2 = c * rng.standard_normal((2, 50))
    unrestricted = solve_ols(X, y1)
    with pytest.raises(DomainError, match="^restricted and unrestricted fits have different "):
        f_statistic(solve_ols(X[:, :1], y2), unrestricted)
    got = f_statistic(solve_ols(X[:, :1], y1), unrestricted)
    assert got.statistic == pytest.approx(exclusion_f_test(unrestricted, 1).statistic, rel=REL)
    exact = solve_ols(X, X @ [c, 2.0 * c])
    with pytest.raises(DomainError, match="^the unrestricted regression fits exactly"):
        f_statistic(solve_ols(X[:, :1], X @ [c, 2.0 * c]), exact)
