import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsecon import (
    CointFit,
    DolsFit,
    DomainError,
    ForecastResult,
    SampleMoments,
    TimeSeries,
    VarFit,
    adf_test,
    chow_test,
    difference,
    dols,
    eg_adf_test,
    fit_ar,
    fit_var,
    forecast_ar,
    granger_test,
    lag,
    pseudo_out_of_sample_rmsfe,
    qlr_test,
    sample_moments,
    select_ar_order,
    select_var_order,
)


def brute_autocov(y, j, full_sample_mean=False):
    """Literal transcription of the windowed-mean autocovariance."""
    T = len(y)
    head = y[j:]
    tail = y[: T - j]
    m_head = np.mean(y) if full_sample_mean else head.mean()
    m_tail = np.mean(y) if full_sample_mean else tail.mean()
    return sum((head[i] - m_head) * (tail[i] - m_tail) for i in range(T - j)) / T


def test_timeseries_validation():
    with pytest.raises(DomainError):
        TimeSeries([])
    with pytest.raises(DomainError):
        TimeSeries([[1.0, 2.0]])
    with pytest.raises(DomainError):
        TimeSeries([1.0, np.nan])
    with pytest.raises(DomainError):
        TimeSeries([1.0, np.inf])
    with pytest.raises(DomainError):
        TimeSeries([1.0], origin=1.5)


def test_timeseries_is_immutable():
    s = TimeSeries([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_timeseries_copies_input():
    raw = np.array([1.0, 2.0, 3.0])
    s = TimeSeries(raw)
    raw[0] = 99.0
    assert s.values[0] == 1.0


_ARRAY = np.cumsum(np.random.default_rng(5).standard_normal(120))
_SERIES = TimeSeries(_ARRAY + 1.0, label="x")


@pytest.mark.parametrize("caller, call", [
    ("adf_test", lambda: adf_test(_ARRAY)),
    ("qlr_test", lambda: qlr_test(_ARRAY, p=1)),
    ("chow_test", lambda: chow_test(_ARRAY, p=1, tau=60)),
    ("eg_adf_test", lambda: eg_adf_test(_ARRAY, [_SERIES])),
    ("dols", lambda: dols(_ARRAY, [_SERIES], 1)),
    ("fit_ar", lambda: fit_ar(_ARRAY, 1)),
    ("forecast_ar", lambda: forecast_ar(fit_ar(_SERIES, 1), _ARRAY, 3)),
    ("select_ar_order", lambda: select_ar_order(_ARRAY, 4)),
    ("pseudo_out_of_sample_rmsfe", lambda: pseudo_out_of_sample_rmsfe(_ARRAY, 1, 0.5)),
    ("sample_moments", lambda: sample_moments(_ARRAY, 3)),
    ("series 'y'", lambda: fit_var({"y": _ARRAY, "x": _SERIES}, 1)),
    ("series 'y'", lambda: select_var_order({"x": _SERIES, "y": _ARRAY}, 2)),
    ("series 'y'", lambda: granger_test({"y": _ARRAY, "x": _SERIES}, cause="x", effect="y", p=1)),
    ("series 'y'", lambda: granger_test({"x": _SERIES, "y": _ARRAY}, cause="y", effect="x",
                                        p=1)),
])
def test_public_calls_refuse_anything_but_a_time_series(caller, call):
    with pytest.raises(DomainError) as caught:
        call()
    assert type(caught.value) is DomainError
    assert str(caught.value) == f"{caller} needs a TimeSeries, got ndarray"


def _fit():
    return fit_ar(_SERIES, 1).fit


@pytest.mark.parametrize("make, field", [
    (lambda a: VarFit(names=("y",), p=1, intercepts=a, coeff_matrices=(a[:, None],),
                      residual_cov=a[:, None], equation_fits=(), n_obs=10), "intercepts"),
    (lambda a: VarFit(names=("y",), p=1, intercepts=a, coeff_matrices=(a[:, None],),
                      residual_cov=a[:, None], equation_fits=(), n_obs=10), "residual_cov"),
    (lambda a: CointFit(theta=a, alpha=0.0, residual_series=_SERIES, eg_adf=None,
                        n_regressors=1, names=("y", "x"), stage1=_fit()), "theta"),
    (lambda a: DolsFit(theta=a, intercept=0.0, deltas={}, p=0, fit=_fit(), names=("y", "x")),
     "theta"),
    (lambda a: ForecastResult(point_forecasts=a, rmsfe_estimate=1.0, horizon=1), "point_forecasts"),
    (lambda a: SampleMoments(mean=0.0, variance=1.0, autocovariances=a, autocorrelations=a,
                             n_obs=10, max_lag=0), "autocovariances"),
])
def test_result_types_freeze_a_copy_of_the_callers_array(make, field):
    a = np.array([0.5])
    result = make(a)
    assert a.flags.writeable  # the caller's array is left alone
    a[0] = 9.0
    frozen = getattr(result, field)
    assert not frozen.flags.writeable
    assert frozen.ravel()[0] == 0.5
    with pytest.raises(ValueError):
        frozen.ravel()[0] = 1.0


def test_lag_aligns_by_date():
    s = TimeSeries([10.0, 11.0, 12.0, 13.0], origin=2000)
    s1 = lag(s, 1)
    # value dated t equals the input's value dated t - 1
    assert s1.origin == 2001
    assert list(s1.values) == [10.0, 11.0, 12.0]
    s2 = lag(s, 3)
    assert s2.origin == 2003
    assert list(s2.values) == [10.0]


def test_lag_rejects_bad_orders():
    s = TimeSeries([1.0, 2.0, 3.0])
    for j in (0, -1, 3, 2.5):
        with pytest.raises(DomainError):
            lag(s, j)


def test_difference_matches_numpy_diff(rng):
    y = rng.normal(size=50)
    s = TimeSeries(y, origin=5)
    for order in (1, 2, 3):
        d = difference(s, order)
        assert np.array_equal(d.values, np.diff(y, order))
        assert d.origin == 5 + order
        assert len(d) == 50 - order


def test_difference_rejects_too_short():
    with pytest.raises(DomainError):
        difference(TimeSeries([1.0, 2.0]), 2)


def test_sample_moments_against_brute_force(rng):
    y = rng.normal(size=40)
    s = TimeSeries(y)
    for full in (False, True):
        m = sample_moments(s, 6, full_sample_mean=full)
        assert m.mean == pytest.approx(np.mean(y), abs=1e-14)
        assert m.variance == pytest.approx(np.var(y, ddof=1), abs=1e-14)
        for j in range(7):
            assert m.autocovariances[j] == pytest.approx(
                brute_autocov(y, j, full), abs=1e-12
            )
            assert m.autocorrelations[j] == pytest.approx(
                m.autocovariances[j] / m.variance, abs=1e-12
            )


def test_autocovariance_reversal_invariance(rng):
    # the cross products at lag j are the same set read in either direction
    y = rng.normal(size=60)
    fwd = sample_moments(TimeSeries(y), 8)
    rev = sample_moments(TimeSeries(y[::-1]), 8)
    assert np.allclose(fwd.autocovariances, rev.autocovariances, atol=1e-12)


def test_constant_series_has_nan_autocorrelations():
    m = sample_moments(TimeSeries(np.full(10, 3.0)), 2)
    assert m.variance == 0.0
    assert np.all(np.isnan(m.autocorrelations))


def test_sample_moments_bounds():
    s = TimeSeries([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DomainError):
        sample_moments(s, 3)  # max_lag > T - 2
    with pytest.raises(DomainError):
        sample_moments(s, -1)
    with pytest.raises(DomainError):
        sample_moments(TimeSeries([1.0]), 0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=5, max_size=40),
    st.integers(1, 3),
)
def test_lag_then_difference_commute(values, j):
    s = TimeSeries(values)
    if len(s) <= j + 1:
        return
    a = difference(lag(s, j))
    b = lag(difference(s), j)
    assert a.origin == b.origin
    assert np.allclose(a.values, b.values, atol=1e-9)
