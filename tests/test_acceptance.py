"""Acceptance suite: the toolkit's nine headline guarantees.

One test per criterion.  Each prints a single [PASS]/[FAIL] line with the
measured quantities (run pytest with -s to see the lines for passing tests;
pytest shows them automatically for failures).  Replication counts, sample
sizes, tolerances, and seeds are pinned: loosening any of them defeats the
point of the gate.  Expected total runtime is a few minutes on one core,
dominated by criterion 1.
"""

import contextlib
import io
import json

import numpy as np
from dataclasses import asdict, replace

from tsecon.armodel import ar1_moments, fit_ar, forecast_ar, ma_moments
from tsecon.breaks import chow_f_scan, qlr_window
from tsecon.cli import main as cli_main
from tsecon.cointegration import EG_ADF_CRITICAL_VALUES, dols
from tsecon.dgp import (
    ArProcess,
    CointegratedPair,
    InterceptBreakAr,
    MaProcess,
    RandomWalk,
    VarProcess,
    simulate,
)
from tsecon.lagselect import select_ar_order
from tsecon.montecarlo import mc_critical_values, size_power_suite
from tsecon.ols import solve_ols
from tsecon.varmodel import (
    companion_matrix,
    fit_var,
    forecast_var,
    var_autocovariances,
)

from conftest import mp_ols_coefficients


def _criterion(num: int, description: str, ok: bool, detail: str) -> None:
    flag = "PASS" if ok else "FAIL"
    line = f"[{flag}] criterion {num}: {description} -- {detail}"
    print(line, flush=True)
    assert ok, line


# --- 1. critical-value table replication ---------------------------------------


def test_criterion_1_egadf_table_replication():
    tol = 0.08
    worst = 0.0
    cells = 0
    for m in (1, 2, 3, 4):
        run = mc_critical_values(
            "egadf", {"n_regressors": m}, T_sim=500, reps=200_000, seed=101_000 + m
        )
        for level, printed in EG_ADF_CRITICAL_VALUES[m].items():
            worst = max(worst, abs(run.quantiles[level] - printed))
            cells += 1
    ok = cells == 12 and worst <= tol
    _criterion(
        1,
        "EG-ADF critical-value table reproduced by simulation (T_sim=500, 200k reps)",
        ok,
        f"12 cells, worst |simulated - printed| = {worst:.3f} (tolerance {tol})",
    )


# --- 2. OLS oracle equivalence --------------------------------------------------


def test_criterion_2_ols_extended_precision_oracle():
    rng = np.random.default_rng(102_000)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(20, 120))
        k = int(rng.integers(2, 9))
        X = rng.normal(size=(n, k))
        X[:, 0] = 1.0
        y = X @ rng.normal(size=k) + rng.normal(size=n)
        fit = solve_ols(X, y)
        oracle = mp_ols_coefficients(X, y)
        scale = np.maximum(np.abs(oracle), 1.0)
        worst = max(worst, float(np.max(np.abs(fit.coefficients - oracle) / scale)))
    ok = worst < 1e-9
    _criterion(
        2,
        "solve_ols matches a 50-digit normal-equations oracle on 1000 instances",
        ok,
        f"worst relative coefficient error = {worst:.3e} (tolerance 1e-9)",
    )


# --- 3. closed-form moments vs long simulations ---------------------------------


def _gamma_se(gamma_fn, tau: int, T: int, K: int) -> float:
    # Bartlett: T * avar(gamma_hat(tau)) = sum_j [g(j)^2 + g(j+tau) g(j-tau)]
    js = np.arange(-K, K + 1)
    g = np.array([gamma_fn(abs(int(j))) for j in js])
    gp = np.array([gamma_fn(abs(int(j + tau))) for j in js])
    gm = np.array([gamma_fn(abs(int(j - tau))) for j in js])
    return float(np.sqrt(np.sum(g * g + gp * gm) / T))


def _mean_se(gamma_fn, T: int, K: int) -> float:
    total = sum(gamma_fn(abs(int(j))) for j in np.arange(-K, K + 1))
    return float(np.sqrt(total / T))


def _sample_gamma(values: np.ndarray, tau: int) -> float:
    d = values - values.mean()
    return float(d[: len(d) - tau] @ d[tau:] / len(d))


def test_criterion_3_moment_suite():
    T = 200_000
    rng = np.random.default_rng(900_001)
    zs = []
    ratio_err = 0.0
    for _ in range(20):
        b1 = rng.uniform(-0.85, 0.85)
        b0 = rng.uniform(-2.0, 2.0)
        s2 = rng.uniform(0.5, 2.0)
        mom = ar1_moments(b0, b1, s2)
        v = simulate(
            ArProcess(beta0=b0, betas=(b1,), sigma2=s2, seed=int(rng.integers(2**62))),
            T,
        ).values
        zs.append((v.mean() - mom.mean) / _mean_se(mom.autocovariance, T, 4000))
        for tau in (0, 1, 2):
            se = _gamma_se(mom.autocovariance, tau, T, 4000)
            zs.append((_sample_gamma(v, tau) - mom.autocovariance(tau)) / se)
        for tau in range(1, 7):
            ratio = mom.autocovariance(tau) / mom.autocovariance(tau - 1)
            ratio_err = max(ratio_err, abs(ratio - b1))
    for _ in range(20):
        q = int(rng.integers(1, 4))
        alphas = tuple(rng.uniform(-0.8, 0.8, size=q))
        a0 = rng.uniform(-2.0, 2.0)
        s2 = rng.uniform(0.5, 2.0)
        mom = ma_moments(a0, alphas, s2)
        v = simulate(
            MaProcess(alpha0=a0, alphas=alphas, sigma2=s2, seed=int(rng.integers(2**62))),
            T,
        ).values
        zs.append((v.mean() - mom.mean) / _mean_se(mom.autocovariance, T, q + 1))
        for tau in range(0, q + 1):
            se = _gamma_se(mom.autocovariance, tau, T, q + 1)
            zs.append((_sample_gamma(v, tau) - mom.autocovariance(tau)) / se)
    worst_z = float(np.max(np.abs(zs)))
    ok = worst_z <= 3.0 and ratio_err <= 1e-12
    _criterion(
        3,
        "ar1/ma moments match T=200k simulations within 3 SEs; gamma ratio exact",
        ok,
        f"{len(zs)} moment cells, worst |z| = {worst_z:.2f} (limit 3.0); "
        f"max |gamma(tau)/gamma(tau-1) - beta1| = {ratio_err:.2e} (tolerance 1e-12)",
    )


# --- 4. BIC consistency vs AIC overestimation -----------------------------------


def test_criterion_4_bic_vs_aic_order_selection():
    reps = 200
    bic_true = bic_over = aic_over = 0
    for i in range(reps):
        s = simulate(ArProcess(beta0=0.5, betas=(0.5, 0.3), seed=104_000 + i), 1000)
        p_bic = select_ar_order(s, 6, criterion="bic").chosen_p
        p_aic = select_ar_order(s, 6, criterion="aic").chosen_p
        bic_true += p_bic == 2
        bic_over += p_bic > 2
        aic_over += p_aic > 2
    ok = bic_true / reps >= 0.90 and aic_over > bic_over
    _criterion(
        4,
        "AR(2) DGP, T=1000, 200 reps: BIC finds p=2 >= 90%, AIC overfits more",
        ok,
        f"BIC picked 2 in {bic_true / reps:.1%}; p>2 counts AIC {aic_over} vs BIC {bic_over}",
    )


# --- 5 and 6. size and power of the public tests --------------------------------

_SUITES: dict = {}


def _suite(name: str):
    if name in _SUITES:
        return _SUITES[name]
    reps, T = 10_000, 500
    if name == "adf":
        sp = size_power_suite(
            "adf", RandomWalk(), ArProcess(beta0=0.0, betas=(0.5,)),
            reps=reps, T=T, seed=105_001,
            params={"deterministic": "drift", "lags": "auto"},
        )
    elif name == "qlr":
        sp = size_power_suite(
            "qlr",
            ArProcess(beta0=1.0, betas=(0.5,)),
            InterceptBreakAr(beta0_pre=1.0, beta0_post=2.0, break_frac=0.5, betas=(0.5,)),
            reps=reps, T=T, seed=105_002, params={"p": 1, "trim": 0.15},
        )
    elif name == "granger":
        sp = size_power_suite(
            "granger",
            {"y1": ArProcess(beta0=0.0, betas=(0.5,)),
             "y2": ArProcess(beta0=0.0, betas=(0.5,))},
            VarProcess(
                delta=(0.0, 0.0),
                coeff_matrices=(((0.3, 0.8), (0.0, 0.5)),),
                innovation_cov=((1.0, 0.0), (0.0, 1.0)),
                names=("y1", "y2"),
            ),
            reps=reps, T=T, seed=105_003,
            params={"cause": "y2", "effect": "y1", "p": 1},
        )
    elif name == "chow":
        sp = size_power_suite(
            "chow",
            ArProcess(beta0=1.0, betas=(0.5,)),
            InterceptBreakAr(beta0_pre=1.0, beta0_post=2.0, break_frac=0.5, betas=(0.5,)),
            reps=reps, T=T, seed=105_004, params={"p": 1, "tau": 250},
        )
    elif name == "egadf":
        sp = size_power_suite(
            "egadf",
            {"y": RandomWalk(), "x": RandomWalk()},
            CointegratedPair(theta=2.0, noise_ar=0.5, endogeneity=0.3),
            reps=reps, T=T, seed=105_005, params={"y": "y", "xs": ["x"]},
        )
    else:
        raise AssertionError(name)
    _SUITES[name] = sp
    return sp


def test_criterion_5_size_suite():
    sizes = {name: _suite(name).size for name in ("adf", "qlr", "granger", "chow", "egadf")}
    ok = all(0.035 <= s <= 0.065 for s in sizes.values())
    detail = ", ".join(f"{name} {s:.3f}" for name, s in sizes.items())
    _criterion(
        5,
        "empirical size of all five tests is 5% +/- 1.5% (T=500, 10k reps)",
        ok,
        detail + " (band [0.035, 0.065])",
    )


def test_criterion_5_and_6_counts_are_the_public_tests():
    # (null, alternative) rejections recorded with the public test run on every
    # replication; deciding most replications on block statistics must not move them
    recorded = {"adf": (506, 10_000), "qlr": (542, 10_000), "granger": (524, 10_000),
                "chow": (526, 10_000), "egadf": (438, 10_000)}
    counts = {name: (_suite(name).null_rejections, _suite(name).alt_rejections)
              for name in recorded}
    assert counts == recorded


def test_criterion_6_power_suite():
    adf_power = _suite("adf").power
    granger_power = _suite("granger").power
    egadf_power = _suite("egadf").power

    # localization: argmax of the F scan within +/- 0.05 T of a mid-sample break
    T, reps, true_tau = 500, 10_000, 250
    taus = qlr_window(T, 1, 0.15)
    spec = InterceptBreakAr(beta0_pre=1.0, beta0_post=2.0, break_frac=0.5, betas=(0.5,))
    hits = 0
    for start in range(0, reps, 1000):
        paths = np.stack([
            simulate(replace(spec, seed=106_000 + i), T).values
            for i in range(start, start + 1000)
        ])
        arg = taus[np.argmax(chow_f_scan(paths, 1, taus), axis=1)]
        hits += int(np.sum(np.abs(arg - true_tau) <= 0.05 * T))
    locate = hits / reps

    ok = (
        adf_power >= 0.95
        and granger_power >= 0.99
        and egadf_power >= 0.95
        and locate >= 0.90
    )
    _criterion(
        6,
        "power: adf vs AR(0.5), granger vs gamma=0.8, egadf vs cointegrated pair, "
        "QLR break localization",
        ok,
        f"adf {adf_power:.3f} (>=0.95), granger {granger_power:.3f} (>=0.99), "
        f"egadf {egadf_power:.3f} (>=0.95), argmax within 25 of break {locate:.3f} (>=0.90)",
    )


# --- 7. VAR internal consistency -------------------------------------------------


def test_criterion_7_var_consistency():
    # (a) iterated forecasts equal the companion-matrix closed form
    dgp = VarProcess(
        delta=(0.4, -0.2, 0.1),
        coeff_matrices=(
            ((0.5, 0.1, 0.0), (0.0, 0.3, 0.2), (0.1, 0.0, 0.4)),
            ((0.1, 0.0, 0.05), (0.0, 0.1, 0.0), (0.05, 0.0, 0.1)),
        ),
        innovation_cov=((1.0, 0.2, 0.0), (0.2, 1.0, 0.1), (0.0, 0.1, 1.0)),
        names=("y1", "y2", "y3"),
        seed=107_001,
    )
    data = simulate(dgp, 800)
    fit = fit_var(data, 2)
    fc = forecast_var(fit, data, 12)
    k, p = 3, 2
    F = companion_matrix(fit.coeff_matrices)
    d = np.zeros(k * p)
    d[:k] = fit.intercepts
    state = np.concatenate([
        [data[nm].values[-1] for nm in fit.names],
        [data[nm].values[-2] for nm in fit.names],
    ])
    worst_fc = 0.0
    for h in range(1, 13):
        Fh = np.linalg.matrix_power(F, h)
        drift = sum(
            np.linalg.matrix_power(F, j) @ d for j in range(h)
        )
        closed = (Fh @ state + drift)[:k]
        iterated = np.array([fc[nm].point_forecasts[h - 1] for nm in fit.names])
        worst_fc = max(worst_fc, float(np.max(np.abs(iterated - closed))))

    # (b) closed-form autocovariances vs a long simulated path
    mats = [np.array([[0.5, 0.1], [0.2, 0.3]])]
    sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
    gammas = var_autocovariances(mats, 4, innovation_cov=sigma)
    sim = simulate(
        VarProcess(
            delta=(0.0, 0.0), coeff_matrices=(mats[0],), innovation_cov=sigma,
            names=("a", "b"), seed=107_002,
        ),
        500_000,
    )
    Z = np.column_stack([sim["a"].values, sim["b"].values])
    Z = Z - Z.mean(axis=0)
    B, L = 50, 10_000
    worst_gamma_z = 0.0
    for tau in range(5):
        blocks = np.empty((B, 2, 2))
        for b in range(B):
            seg = Z[b * L : (b + 1) * L]
            blocks[b] = seg[tau:].T @ seg[: L - tau] / (L - tau)
        est = blocks.mean(axis=0)
        se = blocks.std(axis=0, ddof=1) / np.sqrt(B)
        worst_gamma_z = max(worst_gamma_z, float(np.max(np.abs(est - gammas[tau]) / se)))

    # (c) a one-variable VAR degenerates to the scalar AR path bit for bit
    y = simulate(ArProcess(beta0=1.0, betas=(0.6, -0.2), seed=107_003), 400)
    vfit = fit_var({"y": y}, 2)
    afit = fit_ar(y, 2)
    same_coef = (
        vfit.intercepts[0] == afit.intercept
        and all(
            vfit.coeff_matrices[i][0, 0] == afit.lag_poly.coefficients[i]
            for i in range(2)
        )
    )
    vfc = forecast_var(vfit, {"y": y}, 12)["y"].point_forecasts
    afc = forecast_ar(afit, y, 12).point_forecasts
    same_fc = vfc.tolist() == afc.tolist()

    ok = worst_fc <= 1e-12 and worst_gamma_z <= 3.0 and same_coef and same_fc
    _criterion(
        7,
        "VAR forecasts match the companion closed form; autocovariances match a "
        "long simulation; k=1 degenerates to the AR path exactly",
        ok,
        f"max forecast gap {worst_fc:.2e} (tol 1e-12); worst autocov |z| "
        f"{worst_gamma_z:.2f} (limit 3.0); k=1 bitwise match {same_coef and same_fc}",
    )


# --- 8. DOLS vs static OLS --------------------------------------------------------


def test_criterion_8_dols_beats_static_ols():
    reps, T, theta = 500, 2000, 2.0
    pair = CointegratedPair(theta=theta, noise_ar=0.5, endogeneity=0.6)
    static, dynamic = [], []
    for i in range(reps):
        data = simulate(replace(pair, seed=108_000 + i), T)
        static.append(float(dols(data["y"], [data["x"]], 0).theta[0]))
        dynamic.append(float(dols(data["y"], [data["x"]], 2).theta[0]))

    def iqr(a):
        lo, hi = np.percentile(a, [25, 75])
        return float(hi - lo)

    iqr_s, iqr_d = iqr(static), iqr(dynamic)
    med_s, med_d = float(np.median(static)), float(np.median(dynamic))
    ok = iqr_d < iqr_s and abs(med_s - theta) <= 0.05 and abs(med_d - theta) <= 0.05
    _criterion(
        8,
        "DOLS theta-hat is tighter than static OLS over 500 reps (T=2000, p=2)",
        ok,
        f"IQR dols {iqr_d:.5f} < static {iqr_s:.5f}; medians dols {med_d:.4f}, "
        f"static {med_s:.4f} (true 2 +/- 0.05)",
    )


# --- 9. determinism ----------------------------------------------------------------


def _run_cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    assert code == 0
    return out.getvalue()


def test_criterion_9_determinism(tmp_path):
    # same seed, different worker counts: identical cache entries
    kwargs = dict(T_sim=100, reps=2000, seed=109_001)
    one = mc_critical_values("adf", {"deterministic": "drift", "lags": 0}, **kwargs)
    two = mc_critical_values(
        "adf", {"deterministic": "drift", "lags": 0}, workers=2, **kwargs
    )
    entries_equal = json.dumps(asdict(one.to_entry()), sort_keys=True) == json.dumps(
        asdict(two.to_entry()), sort_keys=True
    )

    # rerunning a CLI pipeline reproduces the JSON report byte for byte
    argv = ("mc-critical", "--statistic", "qlr", "--p", "1", "--T-sim", "80",
            "--reps", "1000", "--seed", "109002")
    reports_equal = _run_cli(*argv) == _run_cli(*argv)

    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sim = ("simulate", "--kind", "cointegrated-pair", "--T", "200", "--seed", "109003")
    first = _run_cli(*sim, "--out", out1)
    second = _run_cli(*sim, "--out", out2)
    csv_equal = out1.read_bytes() == out2.read_bytes()
    body_equal = first.replace(str(out1), "OUT") == second.replace(str(out2), "OUT")

    # rejection counting is invariant to the chunk schedule
    a = size_power_suite(
        "chow", ArProcess(beta0=1.0, betas=(0.5,)), ArProcess(beta0=1.0, betas=(0.5,)),
        reps=400, T=100, seed=109_004, params={"p": 1, "tau": 50}, chunk_size=37,
    )
    b = size_power_suite(
        "chow", ArProcess(beta0=1.0, betas=(0.5,)), ArProcess(beta0=1.0, betas=(0.5,)),
        reps=400, T=100, seed=109_004, params={"p": 1, "tau": 50}, chunk_size=400,
    )
    suite_equal = a == b

    ok = entries_equal and reports_equal and csv_equal and body_equal and suite_equal
    _criterion(
        9,
        "same seed gives byte-identical reports, independent of workers and chunking",
        ok,
        f"worker invariance {entries_equal}, report bytes {reports_equal}, "
        f"csv bytes {csv_equal}, envelope {body_equal}, chunk invariance {suite_equal}",
    )
