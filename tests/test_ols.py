import numpy as np
import pytest

from tsecon import (
    CollinearityError,
    DesignSpec,
    DomainError,
    TimeSeries,
    build_design,
    f_statistic,
    fit_design,
    solve_ols,
)
from tsecon.ols import (
    ar_prefix_cross_products,
    exact_fit,
    exclusion_f_test,
    lag_design,
    normal_equations_ssr,
    packed_index,
    qr_lstsq,
    BreakDummy,
    BreakLagInteraction,
    Diff,
    DiffLag,
    Intercept,
    Lag,
    Level,
    Trend,
)

from conftest import close, mp_ols_coefficients


def random_instance(rng, n, k):
    X = rng.normal(size=(n, k))
    X[:, 0] = 1.0
    y = X @ rng.normal(size=k) + rng.normal(size=n)
    return X, y


def test_solve_ols_matches_extended_precision(rng):
    for _ in range(25):
        n = int(rng.integers(20, 120))
        k = int(rng.integers(2, 7))
        X, y = random_instance(rng, n, k)
        fit = solve_ols(X, y)
        oracle = mp_ols_coefficients(X, y)
        scale = np.maximum(np.abs(oracle), 1.0)
        assert np.max(np.abs(fit.coefficients - oracle) / scale) < 1e-9


def test_solve_ols_classic_formulas(rng):
    X, y = random_instance(rng, 80, 4)
    fit = solve_ols(X, y)
    XtX_inv = np.linalg.inv(X.T @ X)
    beta = XtX_inv @ X.T @ y
    resid = y - X @ beta
    ssr = float(resid @ resid)
    s2 = ssr / (80 - 4)
    assert np.allclose(fit.coefficients, beta, atol=1e-10)
    assert fit.ssr == pytest.approx(ssr, rel=1e-12)
    assert fit.ser == pytest.approx(np.sqrt(s2), rel=1e-12)
    assert np.allclose(fit.stderrs, np.sqrt(s2 * np.diag(XtX_inv)), rtol=1e-10)
    assert np.allclose(fit.t_stats, fit.coefficients / fit.stderrs, rtol=1e-12)
    assert np.allclose(fit.fitted + fit.residuals, y, atol=1e-12)


def test_residuals_orthogonal_to_design(rng):
    X, y = random_instance(rng, 60, 5)
    fit = solve_ols(X, y)
    assert np.max(np.abs(X.T @ fit.residuals)) < 1e-8


def test_ssr_never_increases_with_more_regressors(rng):
    X, y = random_instance(rng, 100, 6)
    prev = np.inf
    for k in range(1, 7):
        ssr = solve_ols(X[:, :k], y).ssr
        assert ssr <= prev + 1e-10
        prev = ssr


def test_column_permutation_permutes_coefficients(rng):
    X, y = random_instance(rng, 50, 4)
    fit = solve_ols(X, y, column_names=list("abcd"))
    perm = [2, 0, 3, 1]
    fit_p = solve_ols(X[:, perm], y, column_names=[list("abcd")[i] for i in perm])
    for name in "abcd":
        assert fit_p.coefficient(name) == pytest.approx(fit.coefficient(name), abs=1e-10)
    assert fit_p.ssr == pytest.approx(fit.ssr, rel=1e-12)


def test_exact_fit_has_zero_ssr(rng):
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.0, -2.0, 0.5])
    fit = solve_ols(X, y)
    assert fit.ssr < 1e-20
    assert np.max(np.abs(fit.residuals)) < 1e-10


def test_exact_fit_is_relative_to_the_response():
    # a response in tiny units is not an exact fit; an all-zero one is
    y = 1e-12 * np.random.default_rng(0).standard_normal(50)
    assert not exact_fit(1e-2 * float(y @ y), 50, y)
    assert exact_fit(0.0, 50, np.zeros(50))
    ys = np.stack([y, np.zeros(50)])
    assert exact_fit(np.array([1e-2 * float(y @ y), 0.0]), 50, ys).tolist() == [False, True]


def test_collinearity_error_names_columns(rng):
    X = rng.normal(size=(40, 3))
    X[:, 2] = 2.0 * X[:, 1]
    with pytest.raises(CollinearityError) as exc:
        solve_ols(X, rng.normal(size=40), column_names=("const", "z", "z2"))
    assert "z" in str(exc.value) or "z2" in str(exc.value)


def test_solve_ols_shape_guards(rng):
    with pytest.raises(DomainError):
        solve_ols(np.ones((5, 2)), np.ones(4))
    with pytest.raises(DomainError):
        solve_ols(np.ones((3, 3)), np.ones(3))  # n <= k
    with pytest.raises(DomainError):
        solve_ols(np.ones((5, 2)), np.ones(5), column_names=("a",))


def test_design_ar_alignment():
    y = TimeSeries([1.0, 2.0, 4.0, 7.0, 11.0], label="y")
    spec = DesignSpec(Level("y"), [Intercept(), Lag("y", 2)])
    d = build_design(spec, {"y": y})
    assert list(d.times) == [2, 3, 4]
    assert list(d.response) == [4.0, 7.0, 11.0]
    assert list(d.matrix[:, 1]) == [1.0, 2.0, 4.0]
    assert d.column_names == ("const", "y.l2")


def test_design_lead_and_diff_columns():
    v = np.cumsum(np.arange(1.0, 9.0))  # 1, 3, 6, 10, 15, 21, 28, 36
    data = {"x": TimeSeries(v, label="x"), "y": TimeSeries(v * 2.0, label="y")}
    spec = DesignSpec(
        Level("y"),
        [Intercept(), Lag("x", -1), DiffLag("x", 0), DiffLag("x", -2)],
    )
    d = build_design(spec, data)
    # back = 1 (DiffLag j=0 needs one lag), fwd = 2 (lead of the difference)
    assert list(d.times) == [1, 2, 3, 4, 5]
    assert d.column_names == ("const", "x.f1", "dx.l0", "dx.f2")
    assert list(d.matrix[:, 1]) == [6.0, 10.0, 15.0, 21.0, 28.0]  # x one period ahead
    assert list(d.matrix[:, 2]) == [2.0, 3.0, 4.0, 5.0, 6.0]  # contemporaneous diff
    assert list(d.matrix[:, 3]) == [4.0, 5.0, 6.0, 7.0, 8.0]  # diff two periods ahead


def test_design_break_terms():
    y = TimeSeries(np.arange(8.0), label="y")
    spec = DesignSpec(
        Level("y"), [Intercept(), Lag("y", 1), BreakDummy(3), BreakLagInteraction(3, "y", 1)]
    )
    d = build_design(spec, {"y": y})
    assert list(d.times) == list(range(1, 8))
    assert list(d.matrix[:, 2]) == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert list(d.matrix[:, 3]) == [0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0]


def test_design_diff_response():
    v = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    spec = DesignSpec(Diff("y"), [Intercept(), Lag("y", 1)])
    d = build_design(spec, {"y": TimeSeries(v, label="y")})
    assert list(d.response) == [1.0, 2.0, 4.0, 8.0]
    assert list(d.matrix[:, 1]) == [1.0, 2.0, 4.0, 8.0]


def test_design_rejects_mismatched_lengths():
    data = {"a": TimeSeries([1.0, 2.0, 3.0]), "b": TimeSeries([1.0, 2.0])}
    spec = DesignSpec(Level("a"), [Intercept(), Level("b")])
    with pytest.raises(DomainError):
        build_design(spec, data)


def test_design_rejects_unknown_series():
    spec = DesignSpec(Level("a"), [Intercept()])
    with pytest.raises(DomainError):
        build_design(spec, {"b": TimeSeries([1.0, 2.0])})


def test_design_spec_validation():
    with pytest.raises(DomainError):
        DesignSpec(Level("y"), [])
    with pytest.raises(DomainError):
        DesignSpec(Level("y"), [Intercept(), Intercept()])
    with pytest.raises(DomainError):
        DesignSpec(Level("y"), [Lag("y", 0)])
    with pytest.raises(DomainError):
        DesignSpec(Level("y"), [BreakLagInteraction(2, "y", 0)])
    with pytest.raises(DomainError):
        DesignSpec(Lag("y", 1), [Intercept()])


def test_f_statistic_equals_squared_t_for_one_restriction(rng):
    X, y = random_instance(rng, 70, 4)
    unrestricted = solve_ols(X, y)
    restricted = solve_ols(X[:, :3], y)
    ftest = f_statistic(restricted, unrestricted)
    assert ftest.df_num == 1
    assert ftest.df_den == 70 - 4
    assert ftest.statistic == pytest.approx(unrestricted.t_stats[3] ** 2, rel=1e-9)


def test_f_statistic_guards(rng):
    X, y = random_instance(rng, 50, 3)
    full = solve_ols(X, y)
    with pytest.raises(DomainError):
        f_statistic(full, solve_ols(X[:40], y[:40]))  # different samples
    other = solve_ols(X, y + 1.0)
    with pytest.raises(DomainError):
        f_statistic(other, full)  # different responses
    with pytest.raises(DomainError):
        f_statistic(full, full, q=0)


def test_fit_design_round_trip():
    rng = np.random.default_rng(3)
    y = TimeSeries(rng.normal(size=60).cumsum(), label="y")
    spec = DesignSpec(Level("y"), [Intercept(), Lag("y", 1)])
    fit, design = fit_design(spec, {"y": y})
    direct = solve_ols(design.matrix, design.response, design.column_names)
    assert np.array_equal(fit.coefficients, direct.coefficients)
    assert fit.column_names == ("const", "y.l1")


def stacked_designs(rng, R, n, k, trend):
    """R designs of n rows: const, [trend,] a random-walk level, noise columns."""
    cols = [np.ones((R, n))]
    if trend:
        cols.append(np.broadcast_to(np.arange(1.0, n + 1.0), (R, n)))
    cols.append(np.cumsum(rng.normal(size=(R, n)), axis=1))
    cols += [rng.normal(size=(R, n)) for _ in range(k - len(cols))]
    X = np.stack(cols, axis=2)
    y = X @ rng.normal(size=k) + rng.normal(size=(R, n))
    return X, y


@pytest.mark.parametrize("R", [1, 5])
@pytest.mark.parametrize("n, trend", [(80, False), (5000, True)])
def test_qr_lstsq_prefix_ssr_equals_lstsq_per_prefix(rng, R, n, trend):
    k = 6
    X, y = stacked_designs(rng, R, n, k, trend)
    prefix = qr_lstsq(X, y).prefix_ssr()
    assert prefix.shape == (R, k + 1)
    for r in range(R):
        assert prefix[r, 0] == pytest.approx(y[r] @ y[r], rel=1e-10)
        for j in range(1, k + 1):
            ssr = np.linalg.lstsq(X[r, :, :j], y[r], rcond=None)[1][0]
            assert prefix[r, j] == pytest.approx(ssr, rel=1e-10)


@pytest.mark.parametrize("R", [1, 5])
@pytest.mark.parametrize("n, trend", [(80, False), (5000, True)])
def test_qr_lstsq_stack_equals_row_by_row_fits(rng, R, n, trend):
    X, y = stacked_designs(rng, R, n, 5, trend)
    fit = qr_lstsq(X, y)
    (beta, se), prefix = fit.solve(), fit.prefix_ssr()
    for r in range(R):
        row = qr_lstsq(X[r], y[r])
        assert np.allclose(beta[r], row.solve()[0], rtol=1e-12, atol=0.0)
        assert np.allclose(se[r], row.solve()[1], rtol=1e-12, atol=0.0)
        assert np.allclose(prefix[r], row.prefix_ssr(), rtol=1e-12, atol=0.0)
        # and the R = 1 kernel is what solve_ols reports
        ols = solve_ols(X[r], y[r])
        ref, ssr = np.linalg.lstsq(X[r], y[r], rcond=None)[:2]
        assert np.allclose(ols.coefficients, ref, rtol=1e-10, atol=0.0)
        assert ols.ssr == pytest.approx(ssr[0], rel=1e-10)
        assert np.array_equal(ols.qr.prefix_ssr(), row.prefix_ssr())
        assert np.allclose(ols.stderrs, row.solve()[1], rtol=1e-12, atol=0.0)


def shared_design_responses(rng, n, k, m, level):
    """One design (const, a random walk, noise columns) and m responses around `level`."""
    X, _ = stacked_designs(rng, 1, n, k, trend=False)
    X = X[0] + np.r_[0.0, np.full(k - 1, level)]
    Y = level + X @ rng.normal(size=(k, m)) + rng.normal(size=(n, m))
    return X, Y


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("n, level", [(60, 0.0), (500, 400.0), (5000, 0.0)])
def test_several_responses_equal_one_fit_per_column(rng, m, n, level):
    X, Y = shared_design_responses(rng, n, 5, m, level)
    qr = qr_lstsq(X, Y)
    assert qr.r.shape == (1, 5, 5) and qr.c.shape == (m, 5) and qr.rho.shape == (m,)
    fits = solve_ols(X, Y, list("abcde"))
    assert isinstance(fits, tuple) and len(fits) == m
    for j, fit in enumerate(fits):
        one_qr = qr_lstsq(X, Y[:, j])
        assert close(qr.c[j], one_qr.c, 1e-12)
        assert qr.rho[j] ** 2 == pytest.approx(one_qr.rho**2, rel=1e-12)
        one = solve_ols(X, Y[:, j], list("abcde"))
        for field in ("coefficients", "stderrs", "t_stats", "residuals", "fitted"):
            assert close(getattr(fit, field), getattr(one, field), 1e-12), field
        assert fit.ssr == pytest.approx(one.ssr, rel=1e-12)
        assert fit.ser == pytest.approx(one.ser, rel=1e-12)
        assert (fit.n_obs, fit.n_params, fit.column_names) == (n, 5, tuple("abcde"))
        assert fit.qr.prefix_ssr() == pytest.approx(one.qr.prefix_ssr(), rel=1e-12)
        assert np.array_equal(fit.qr.r, fits[0].qr.r)
        for arr in (fit.coefficients, fit.residuals, fit.qr.r, fit.qr.c):
            assert not arr.flags.writeable
    if m == 1:
        # one response in a column runs the code of a 1-d response, bit for bit
        one_qr, one = qr_lstsq(X, Y[:, 0]), solve_ols(X, Y[:, 0], list("abcde"))
        assert np.array_equal(qr.r[0], one_qr.r) and np.array_equal(qr.c[0], one_qr.c)
        assert qr.rho[0] == one_qr.rho
        for field in ("coefficients", "stderrs", "t_stats", "residuals", "fitted"):
            assert np.array_equal(getattr(fits[0], field), getattr(one, field)), field
        assert (fits[0].ssr, fits[0].ser, fits[0].qr.rho) == (one.ssr, one.ser, one.qr.rho)


def test_several_responses_over_a_stack_of_designs(rng):
    X, _ = stacked_designs(rng, 4, 90, 4, trend=True)
    Y = rng.normal(size=(4, 90, 3))
    qr = qr_lstsq(X, Y)
    assert qr.c.shape == (4, 3, 4) and qr.rho.shape == (4, 3)
    # the responses are a stack axis, so solve and prefix_ssr give one row per response
    beta, stderrs = qr.solve()
    prefix = qr.prefix_ssr()
    assert beta.shape == stderrs.shape == (4, 3, 4) and prefix.shape == (4, 3, 5)
    for r in range(4):
        for j in range(3):
            one = qr_lstsq(X[r], Y[r, :, j])
            assert close(qr.c[r, j], one.c, 1e-12)
            assert qr.rho[r, j] ** 2 == pytest.approx(one.rho**2, rel=1e-12)
            one_beta, one_stderrs = one.solve()
            assert close(beta[r, j], one_beta, 1e-12)
            assert close(stderrs[r, j], one_stderrs, 1e-12)
            assert close(prefix[r, j], one.prefix_ssr(), 1e-12)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_exclusion_f_on_an_equation_fit_equals_two_fits(rng, q):
    X, Y = shared_design_responses(rng, 120, 5, 3, 50.0)
    for j, fit in enumerate(solve_ols(X, Y)):
        ref = f_statistic(solve_ols(X[:, : 5 - q], Y[:, j]), solve_ols(X, Y[:, j]), q=q)
        got = exclusion_f_test(fit, q)
        assert got.statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert (got.df_num, got.df_den) == (ref.df_num, ref.df_den)


def test_several_responses_shape_guards_and_rank_check(rng):
    X, Y = shared_design_responses(rng, 40, 3, 2, 0.0)
    with pytest.raises(DomainError):
        solve_ols(X, Y[:30])
    with pytest.raises(DomainError):
        solve_ols(X, Y[None])
    with pytest.raises(DomainError):
        solve_ols(X, Y[:, :0])
    X[:, 2] = 2.0 * X[:, 1]
    with pytest.raises(CollinearityError) as exc:
        solve_ols(X, Y, column_names=("const", "z", "z2"))
    assert "z" in str(exc.value) or "z2" in str(exc.value)


def test_lag_design_layout():
    values = np.column_stack([np.arange(10.0), 100.0 + np.arange(10.0)])
    X, names = lag_design(values, ("a", "b"), 2)
    assert names == ("const", "a.l1", "b.l1", "a.l2", "b.l2")
    assert X.shape == (8, 5)
    assert np.array_equal(X[:, 0], np.ones(8))
    assert np.array_equal(X[:, 1], np.arange(1.0, 9.0))  # rows 2..9 at lag 1
    assert np.array_equal(X[:, 4], 100.0 + np.arange(0.0, 8.0))
    # a stack of paths gives each path its own design
    stack = np.stack([values, 2.0 * values])
    Xs, _ = lag_design(stack, ("a", "b"), 2)
    assert np.array_equal(Xs[0], X) and np.array_equal(Xs[1][:, 1:], 2.0 * X[:, 1:])
    # a lower order on the same rows is a prefix: order 1 on rows 2.. of the series
    assert np.array_equal(lag_design(values[1:], ("a", "b"), 1)[0], X[:, :3])


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("shape", [(120,), (3, 120)], ids=["one_path", "block"])
def test_prefix_cross_products_are_the_cumulants_of_the_centred_design(rng, p, shape):
    paths = 300.0 + np.cumsum(rng.normal(size=shape), axis=-1)
    X, y, S = ar_prefix_cross_products(paths, p)
    k = p + 1
    assert S.shape == ((k + 1) * (k + 2) // 2,) + y.shape
    # the products and sequential sums of a cumulative X'X, X'y and y'y, bit for bit
    xx = np.cumsum(np.einsum("...ti,...tj->...tij", X, X), axis=-3)
    xy = np.cumsum(np.einsum("...ti,...t->...ti", X, y), axis=-2)
    at = packed_index(k + 1)
    assert np.array_equal(np.moveaxis(S[at[:k, :k]], (0, 1), (-2, -1)), xx)
    assert np.array_equal(np.moveaxis(S[at[k, :k]], 0, -1), xy)
    assert np.array_equal(S[-1], np.cumsum(y**2, axis=-1))
    assert np.array_equal(at, at.T)
    assert at[np.tril_indices(k + 1)].tolist() == list(range(S.shape[0]))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_normal_equations_ssr_is_the_schur_complement(rng, k):
    Z = rng.normal(size=(4, 7, 40, k + 1))
    M = np.einsum("...ti,...tj->...ij", Z, Z)
    G, h, s = M[..., :k, :k], M[..., :k, k], M[..., k, k]
    ref = s - np.einsum("...i,...i->...", h, np.linalg.solve(G, h[..., None])[..., 0])
    lower = np.tril_indices(k + 1)
    A = np.moveaxis(M[(..., *lower)], -1, 0).copy()
    assert np.allclose(normal_equations_ssr(A), ref, rtol=1e-10, atol=0.0)
    # a design column of zeros in one system leaves an exact zero pivot, as
    # singular as it is for np.linalg.solve
    Z[2, 5, :, k - 1] = 0.0
    M = np.einsum("...ti,...tj->...ij", Z, Z)
    A = np.moveaxis(M[(..., *lower)], -1, 0).copy()
    with pytest.raises(np.linalg.LinAlgError):
        normal_equations_ssr(A)
