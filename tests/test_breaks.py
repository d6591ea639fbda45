import numpy as np
import pytest
from scipy import stats

import tsecon.breaks
import tsecon.ols
import tsecon.varmodel
from tsecon import (
    ArProcess,
    DomainError,
    InterceptBreakAr,
    TimeSeries,
    WhiteNoise,
    chow_f_scan,
    chow_test,
    granger_test,
    qlr_test,
    qlr_window,
    simulate,
)
from tsecon.breaks import chow_design
from tsecon.ols import (
    BreakDummy,
    BreakLagInteraction,
    DesignSpec,
    Intercept,
    Lag,
    Level,
    f_statistic,
    fit_design,
    qr_lstsq,
    solve_ols,
)
from tsecon.report import DEFAULT_LEVELS, decide, p_bracket


def split_regression_f(values, p, tau):
    """Chow F from two literal single-regime regressions."""
    T = len(values)
    rows = np.arange(p, T)
    y = values[p:]
    X = np.column_stack([np.ones(T - p)] + [values[p - i : T - i] for i in range(1, p + 1)])
    first = rows <= tau
    ssr_full = solve_ols(X, y).ssr
    ssr1 = solve_ols(X[first], y[first]).ssr
    ssr2 = solve_ols(X[~first], y[~first]).ssr
    k = p + 1
    n = T - p
    return ((ssr_full - ssr1 - ssr2) / k) / ((ssr1 + ssr2) / (n - 2 * k))


def test_chow_equals_split_regression():
    series = simulate(InterceptBreakAr(beta0_post=1.5, betas=(0.5,), seed=3), 200)
    rep = chow_test(series, p=1, tau=100)
    assert rep.statistic == pytest.approx(split_regression_f(series.values, 1, 100), rel=1e-10)
    rep2 = chow_test(series, p=2, tau=80)
    assert rep2.statistic == pytest.approx(split_regression_f(series.values, 2, 80), rel=1e-10)


def test_chow_report_fields():
    series = simulate(ArProcess(betas=(0.5,), seed=9), 150)
    rep = chow_test(series, p=1, tau=75)
    assert rep.name == "chow"
    assert rep.tail == "right"
    assert rep.family == {"family": "F", "df_num": 2, "df_den": 149 - 4}
    assert rep.cv_provenance == {"kind": "f_distribution"}
    assert rep.nuisance["regime_sizes"] == [75, 74]
    for lv, cv in rep.critical_values.items():
        assert cv == pytest.approx(stats.f.ppf(1 - lv, 2, 145), rel=1e-12)


@pytest.mark.parametrize("d2", [5, 40, 145, 494, 4990])
@pytest.mark.parametrize("d1", [1, 2, 3, 5, 9])
def test_f_critical_values_equal_scipy_stats_exactly(d1, d2):
    def noise(seed, T, label):
        return TimeSeries(simulate(WhiteNoise(seed=seed), T).values, label=label)

    expected = {lv: float(stats.f.ppf(1 - lv, d1, d2)) for lv in DEFAULT_LEVELS}
    # granger: d1 = p restrictions, d2 = (T - p) - (1 + 2p)
    p = d1
    T = d2 + 3 * p + 1
    reports = [granger_test({"x": noise(1, T, "x"), "y": noise(2, T, "y")},
                            cause="x", effect="y", p=p)]
    if d1 >= 2:  # chow: d1 = p + 1 restrictions, d2 = (T - p) - 2(p + 1)
        p = d1 - 1
        T = d2 + 3 * p + 2
        reports.append(chow_test(noise(3, T, "y"), p=p, tau=p - 1 + (T - p) // 2))
    for rep in reports:
        assert (rep.family["df_num"], rep.family["df_den"]) == (d1, d2)
        assert rep.critical_values == expected


def test_chow_detects_planted_break():
    series = simulate(
        InterceptBreakAr(beta0_pre=0.0, beta0_post=3.0, break_frac=0.5, betas=(0.4,), seed=5),
        400,
    )
    rep = chow_test(series, p=1, tau=200)
    assert rep.decision[0.01] == "reject"


def test_chow_guards():
    series = simulate(ArProcess(seed=1), 100)
    with pytest.raises(DomainError):
        chow_test(series, p=0, tau=50)
    with pytest.raises(DomainError):
        chow_test(series, p=1, tau=1)  # first regime too small
    with pytest.raises(DomainError):
        chow_test(series, p=1, tau=98)  # second regime too small
    # y_t = 2 y_{t-1} exactly: no residual variance to scale the F by
    with pytest.raises(DomainError, match="^the unrestricted regression fits exactly"):
        chow_test(TimeSeries(2.0 ** np.arange(40)), p=1, tau=3)
    for wrong, kind in ((series.values, "ndarray"), ({"y": series}, "dict")):
        with pytest.raises(DomainError, match=f"^chow_test needs a TimeSeries, got {kind}$"):
            chow_test(wrong, p=1, tau=50)


def test_qlr_window_bounds():
    taus = qlr_window(400, 1, 0.15)
    assert taus[0] == 60 and taus[-1] == 340
    # feasibility clamps beat the trim for tiny samples
    taus_small = qlr_window(30, 3, 0.15)
    assert taus_small[0] == 7 and taus_small[-1] == 24
    with pytest.raises(DomainError):
        qlr_window(20, 8, 0.15)  # lo = 17 exceeds hi = 9
    with pytest.raises(DomainError):
        qlr_window(100, 1, 0.6)


def test_scan_matches_chow_at_every_date():
    series = simulate(ArProcess(betas=(0.6,), seed=12), 180)
    taus = qlr_window(180, 1, 0.2)
    scan = chow_f_scan(series.values[None, :], 1, taus)[0]
    for i in (0, len(taus) // 2, len(taus) - 1):
        direct = chow_test(series, p=1, tau=int(taus[i])).statistic
        assert scan[i] == pytest.approx(direct, rel=1e-9)


def test_scan_shift_invariance():
    series = simulate(ArProcess(betas=(0.5,), seed=4), 160)
    taus = qlr_window(160, 1, 0.15)
    a = chow_f_scan(series.values[None, :], 1, taus)
    b = chow_f_scan(series.values[None, :] + 500.0, 1, taus)
    assert np.allclose(a, b, atol=1e-6)


def ar1_block(phi, level, R, T, seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(R, T))
    v = np.empty((R, T))
    v[:, 0] = e[:, 0]
    for t in range(1, T):
        v[:, t] = phi * v[:, t - 1] + e[:, t]
    return v + level


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("T", [60, 200, 1000])
def test_scan_matches_the_qr_path_and_scans_each_row_alone(p, T):
    worst = 0.0
    for phi in (0.0, 0.5, 0.95):
        for level in (0.0, 300.0, 1e4):
            paths = ar1_block(phi, level, 3, T, seed=100 * p + T)
            taus = qlr_window(T, p, 0.15)
            scan = chow_f_scan(paths, p, taus)
            # the QR path of chow_test, one date at a time over the block
            ref = np.stack([qr_lstsq(*chow_design(paths, p, int(tau))[:2]).exclusion_f(p + 1)
                            for tau in taus], axis=-1)
            worst = max(worst, np.max(np.abs(scan / ref - 1.0)))
            # every row of a block is the scan of its path alone, bit for bit
            for r, path in enumerate(paths):
                assert np.array_equal(chow_f_scan(path[None], p, taus)[0], scan[r])
    # 1.8e-9 at worst over this grid, the QR path's own error on raw levels:
    # against exact rational arithmetic (p = 1) the scan is within 3.7e-10
    assert worst <= 1e-8


def test_qlr_dominates_chow():
    series = simulate(ArProcess(betas=(0.3,), seed=8), 250)
    qlr = qlr_test(series, p=1)
    lo, hi = qlr.nuisance["window"]
    for tau in (lo, (lo + hi) // 2, hi):
        assert qlr.statistic >= chow_test(series, p=1, tau=tau).statistic - 1e-9


def test_qlr_locates_planted_break():
    series = simulate(
        InterceptBreakAr(beta0_pre=0.0, beta0_post=2.5, break_frac=0.4, betas=(0.5,), seed=6),
        500,
    )
    rep = qlr_test(series, p=1)
    assert abs(rep.nuisance["break_position"] - 200) <= 12
    assert rep.decision[0.05] == "reject"
    assert rep.cv_provenance["kind"] == "monte_carlo"
    assert rep.family["family"] == "sup_F"


def test_qlr_on_quiet_series_fails_to_reject():
    series = simulate(ArProcess(betas=(0.4,), seed=44), 500)
    rep = qlr_test(series, p=1)
    assert rep.decision[0.01] == "fail_to_reject"


def test_qlr_guards():
    series = simulate(ArProcess(seed=2), 60)
    with pytest.raises(DomainError):
        qlr_test(series, p=0)
    with pytest.raises(DomainError):
        qlr_test(TimeSeries(np.full(100, 2.0)), p=1)  # constant: collinear scan
    # the scan itself refuses a block with one bad row
    good, taus = simulate(WhiteNoise(seed=1), 100).values, qlr_window(100, 1, 0.15)
    with pytest.raises(DomainError, match="^collinear regressors inside the break scan$"):
        chow_f_scan(np.vstack([good, np.full(100, 2.0)]), 1, taus)
    with pytest.raises(DomainError, match="^degenerate residual variance inside the break scan$"):
        chow_f_scan(np.vstack([good, np.arange(100.0)]), 1, taus)
    for wrong, kind in ((series.values, "ndarray"), ({"y": series}, "dict")):
        with pytest.raises(DomainError, match=f"^qlr_test needs a TimeSeries, got {kind}$"):
            qlr_test(wrong, p=1)


def test_chow_f_scan_refuses_dates_outside_the_chow_window():
    # T = 100, p = 1: both regimes keep p + 2 rows for dates 3..96, as chow_test requires
    values = simulate(WhiteNoise(seed=1), 100).values
    series = TimeSeries(values)
    for tau in (2, 97, 98, -5, 150):
        with pytest.raises(DomainError, match=f"^break at position {tau} leaves regimes of"):
            chow_f_scan(values, 1, np.array([tau]))
        with pytest.raises(DomainError, match=f"^break at position {tau} leaves regimes of"):
            chow_test(series, 1, tau)
    with pytest.raises(DomainError, match="^break at position 98 leaves regimes of"):
        chow_f_scan(values, 1, np.array([50, 98]))
    for taus in (np.array([3.5]), np.array([50.0]), [50, 3.5]):
        with pytest.raises(DomainError, match="^break position must be an integer$"):
            chow_f_scan(values, 1, taus)
    scan = chow_f_scan(values, 1, np.array([3, 96]))[0]
    assert scan == pytest.approx([chow_test(series, 1, 3).statistic,
                                  chow_test(series, 1, 96).statistic], rel=1e-8)
    assert qlr_window(100, 1, 0.01).tolist() == list(range(3, 97))


def two_fit_chow_f(series, p, tau):
    """Reference: fit the restricted and the unrestricted model, compare by f_statistic."""
    name = series.label or "y"
    base = [Intercept()] + [Lag(name, j) for j in range(1, p + 1)]
    extra = [BreakDummy(tau)] + [BreakLagInteraction(tau, name, j) for j in range(1, p + 1)]
    restricted, _ = fit_design(DesignSpec(Level(name), base), {name: series})
    unrestricted, _ = fit_design(DesignSpec(Level(name), base + extra), {name: series})
    return f_statistic(restricted, unrestricted, q=p + 1)


@pytest.mark.parametrize("T", [100, 500, 5000])
@pytest.mark.parametrize("spec", [ArProcess(betas=(0.5, 0.2), seed=21),
                                  InterceptBreakAr(beta0_post=0.6, betas=(0.5, 0.2), seed=22)],
                         ids=["no_break", "break"])
def test_chow_one_fit_matches_two_fits(spec, T):
    series = simulate(spec, T)
    p, tau = 2, T // 2
    ref = two_fit_chow_f(series, p, tau)
    rep = chow_test(series, p, tau)
    assert rep.statistic == pytest.approx(ref.statistic, rel=1e-10)
    assert rep.family == {"family": "F", "df_num": ref.df_num, "df_den": ref.df_den}
    assert rep.critical_values == ref.critical_values(DEFAULT_LEVELS)
    decision = {lv: decide(ref.statistic, cv, "right") for lv, cv in rep.critical_values.items()}
    assert rep.decision == decision
    assert rep.nuisance == {
        "break_position": tau,
        "break_date": tau,
        "regime_sizes": [tau - p + 1, T - tau - 1],
        "p": p,
        "series": series.label,
        "p_bracket": p_bracket(decision),
    }


def test_chow_rejects_a_break_position_that_is_not_an_integer():
    series = simulate(ArProcess(seed=1), 200)
    for tau in (100.5, "100", 100.0, None):
        with pytest.raises(DomainError, match="break position must be an integer"):
            chow_test(series, 1, tau)
    assert chow_test(series, 1, np.int64(100)) == chow_test(series, 1, 100)


def test_chow_and_granger_fit_one_design(monkeypatch):
    calls = []

    def counting_solve_ols(*args):
        calls.append(args)
        return solve_ols(*args)

    def no_build_design(*args):
        raise AssertionError("build_design called")

    # chow_test and granger_test look solve_ols up in their own modules
    for module in (tsecon.breaks, tsecon.varmodel):
        monkeypatch.setattr(module, "solve_ols", counting_solve_ols)
    monkeypatch.setattr(tsecon.ols, "build_design", no_build_design)
    chow_test(simulate(ArProcess(seed=1), 200), 2, 100)
    assert len(calls) == 1
    calls.clear()
    noise = {nm: TimeSeries(simulate(WhiteNoise(seed=s), 200).values, label=nm)
             for s, nm in enumerate(("x", "y"))}
    granger_test(noise, cause="x", effect="y", p=2)
    assert len(calls) == 1
