"""End-to-end tests of the command-line interface.

Every report printed by a subcommand must validate against the packaged JSON
schema, reruns must be byte-identical, and the CSV ingest policy (index
columns, non-numeric columns, blank cells, decimal commas) must hold.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import tsecon
from tsecon.cli import _build_sim_spec, build_parser
from tsecon.cli import main as cli_main
from tsecon.dgp import (ArmaProcess, ArProcess, CointegratedPair, InterceptBreakAr, MaProcess,
                        RandomWalk, VarProcess, WhiteNoise)

SCHEMA = json.loads((resources.files("tsecon") / "report_schema.json").read_text())
VALIDATOR = Draft202012Validator(SCHEMA)
Draft202012Validator.check_schema(SCHEMA)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors and --version
        code = exc.code or 0
    return code, out.getvalue(), err.getvalue()


def run_report(*argv):
    code, out, err = run_cli(*argv)
    assert code == 0, err
    report = json.loads(out)
    problems = [e.message for e in VALIDATOR.iter_errors(report)]
    assert not problems, "\n".join(problems)
    return report


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    paths = {
        "ar": root / "ar.csv",
        "pair": root / "pair.csv",
        "var": root / "var.csv",
        "rw": root / "rw.csv",
    }
    specs = [
        ("simulate", "--kind", "ar", "--T", "400", "--beta0", "1.0",
         "--betas", "0.6", "--seed", "42", "--out", paths["ar"]),
        ("simulate", "--kind", "cointegrated-pair", "--T", "400",
         "--theta", "2.0", "--seed", "43", "--out", paths["pair"]),
        ("simulate", "--kind", "var", "--T", "500", "--delta", "0.5,0.2",
         "--a-matrices", "[[[0.3, 0.8], [0.0, 0.5]]]",
         "--seed", "44", "--out", paths["var"]),
        ("simulate", "--kind", "random-walk", "--T", "300", "--seed", "45",
         "--out", paths["rw"]),
    ]
    for argv in specs:
        run_report(*argv)
    return paths


def test_every_subcommand_report_validates(data, tmp_path):
    battery = [
        ("describe", data["ar"]),
        ("describe", data["ar"], "--max-lag", "5", "--full-sample-mean"),
        ("fit-ar", data["ar"], "--p", "2"),
        ("select-lag", data["ar"], "--p-max", "4"),
        ("select-lag", data["var"], "--cols", "y1,y2", "--p-max", "3",
         "--criterion", "aic"),
        ("forecast", data["ar"], "--p", "1", "--horizon", "6"),
        ("adf", data["rw"], "--det", "drift"),
        ("chow", data["ar"], "--p", "1", "--tau", "200"),
        ("qlr", data["ar"], "--p", "1"),
        ("fit-var", data["var"], "--p", "1"),
        ("forecast-var", data["var"], "--p", "1", "--horizon", "4"),
        ("granger", data["var"], "--cause", "y2", "--effect", "y1", "--p", "1"),
        ("integration-order", data["rw"]),
        ("coint", data["pair"], "--y", "y", "--x", "x"),
        ("dols", data["pair"], "--y", "y", "--x", "x", "--p", "2"),
        ("simulate", "--kind", "white-noise", "--T", "50", "--seed", "1",
         "--out", tmp_path / "wn.csv"),
        ("mc-critical", "--statistic", "egadf", "--m", "1", "--T-sim", "50",
         "--reps", "1000", "--seed", "9"),
    ]
    for argv in battery:
        report = run_report(*argv)
        assert report["command"] == argv[0]
        assert report["format_version"] == 1
        assert report["toolkit_version"] == tsecon.__version__


def test_import_loads_no_scipy_and_no_process_pool():
    # a one-shot CLI call pays for every module that importing tsecon.cli
    # loads; scipy and the process pool load only where they are used
    code = (
        "import sys, tsecon, tsecon.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m == 'concurrent.futures.process'))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _fresh_process(code, *argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED = "print(*sorted(m for m in sys.modules if m.startswith('tsecon.')))"


def test_import_tsecon_loads_no_submodule():
    assert _fresh_process(f"import sys, tsecon; {_LOADED}").split() == []


@pytest.mark.parametrize("argv", [("adf",), ("describe",),
                                  ("fit-ar", "--p", "2")], ids=lambda a: a[0])
def test_single_series_commands_import_only_what_they_run(argv, data):
    code = ("import contextlib, io, sys, tsecon.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert tsecon.cli.main(sys.argv[1:]) == 0\n"
            + _LOADED)
    loaded = set(_fresh_process(code, argv[0], data["rw"], *argv[1:]).split())
    assert f"tsecon.{'unitroot' if argv[0] == 'adf' else 'series'}" in loaded
    unused = {f"tsecon.{m}" for m in ("montecarlo", "dgp", "breaks", "varmodel", "cointegration")}
    assert not loaded & unused


@pytest.mark.parametrize("argv", [
    ("fit-var", "--p", "1"),
    ("forecast-var", "--p", "1", "--horizon", "3"),
    ("granger", "--cause", "y2", "--effect", "y1", "--p", "1"),
], ids=lambda a: a[0])
def test_var_commands_load_no_simulator(argv, data):
    # varmodel owns the companion form, so a VAR command leaves dgp unloaded
    code = ("import contextlib, io, sys, tsecon.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert tsecon.cli.main(sys.argv[1:]) == 0\n"
            + _LOADED)
    loaded = set(_fresh_process(code, argv[0], data["var"], *argv[1:]).split())
    assert "tsecon.varmodel" in loaded
    assert "tsecon.dgp" not in loaded


def test_collinear_fit_ar_loads_no_scipy(tmp_path):
    # the rank test and the names of the offending columns need numpy alone
    path = tmp_path / "flat.csv"
    path.write_text("t,c\n" + "".join(f"{t},5\n" for t in range(40)))
    code = ("import contextlib, io, sys, tsecon.cli\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    assert tsecon.cli.main(sys.argv[1:]) == 1\n"
            "assert err.getvalue().startswith('perfect multicollinearity'), err.getvalue()\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_process(code, "fit-ar", path, "--p", "1").split() == []


# The public names of the package; the lazy exports must keep every one.
PUBLIC = set("""
    AdfSpec Ar1Moments ArFit ArProcess ArmaProcess CointFit CointegratedPair CollinearityError
    CriterionTable CriticalValueCache CvEntry DEFAULT_LEVELS Design DesignSpec DolsFit
    DomainError EG_ADF_CRITICAL_VALUES FTest ForecastResult IntegrationReport InterceptBreakAr
    LagPolynomial MaMoments MaProcess McRun OlsFit RandomWalk SampleMoments SizePower
    StabilityReport TestReport TimeSeries VarFit VarProcess WhiteNoise __version__ adf_test
    ar1_moments build_design chow_f_scan chow_test companion_matrix default_cache difference
    dols eg_adf_test f_statistic fit_ar fit_design fit_var forecast_ar forecast_var
    granger_test integration_order is_stationary lag ma_moments mc_critical_values
    pseudo_out_of_sample_rmsfe qlr_test qlr_window rng_for sample_moments sample_values
    select_ar_order select_var_order simulate size_power_suite solve_ols stability
    var_autocovariances var_mean
""".split())


def test_package_exports_resolve_to_their_modules():
    import importlib

    assert set(tsecon.__all__) == PUBLIC
    assert len(tsecon.__all__) == len(PUBLIC)
    for name in PUBLIC - {"__version__"}:
        owner = importlib.import_module(f"tsecon.{tsecon._OWNER[name]}")
        assert getattr(tsecon, name) is getattr(owner, name), name
    assert PUBLIC <= set(dir(tsecon))
    star: dict = {}
    exec("from tsecon import *", star)
    assert PUBLIC <= set(star)
    assert star["adf_test"] is tsecon.unitroot.adf_test
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tsecon.no_such_name  # noqa: B018


def test_submodules_resolve_after_a_plain_import():
    code = ("import sys, tsecon; "
            "print(tsecon.ols.solve_ols is sys.modules['tsecon.ols'].solve_ols, "
            "tsecon.montecarlo.__name__)")
    assert _fresh_process(code).split() == ["True", "tsecon.montecarlo"]


def test_select_lag_cols_with_one_name(data):
    # one name in --cols, however spelled, is the scalar selection of --col
    expected = run_report("select-lag", data["var"], "--col", "y1", "--p-max", "4")["result"]
    for cols in ("y1,", " y1"):
        report = run_report("select-lag", data["var"], "--cols", cols, "--p-max", "4")
        assert report["result"] == expected


def test_envelope_input_block(data):
    report = run_report("describe", data["ar"])
    blob = data["ar"].read_bytes()
    import hashlib

    assert report["input"]["sha256"] == hashlib.sha256(blob).hexdigest()
    assert report["input"]["path"] == str(data["ar"])
    assert report["input"]["columns_used"] == ["y"]
    assert report["input"]["parse"]["index_column"] == "t"
    assert report["argv"][0] == "describe"


def test_envelope_fingerprints_the_input_it_read(data, tmp_path):
    # --emit-csv may write over the input; the report fingerprints what was analysed
    import hashlib

    path = tmp_path / "ar.csv"
    path.write_bytes(data["ar"].read_bytes())
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    report = run_report("describe", path, "--max-lag", "2", "--emit-csv", path)
    assert report["input"]["sha256"] == before
    assert path.read_text().startswith("lag,autocovariance,autocorrelation")


def test_report_rerun_byte_identical(data):
    argv = ("adf", data["rw"], "--det", "drift", "--lags", "2")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second
    argv = ("fit-var", data["var"], "--p", "1")
    assert run_cli(*argv) == run_cli(*argv)


def test_simulate_same_seed_same_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ("simulate", "--kind", "ar", "--betas", "0.5", "--T", "100",
            "--seed", "7", "--out")
    rep1 = run_report(*base, out1)
    rep2 = run_report(*base, out2)
    assert out1.read_bytes() == out2.read_bytes()
    assert rep1["result"]["out_sha256"] == rep2["result"]["out_sha256"]
    rep3 = run_report("simulate", "--kind", "ar", "--betas", "0.5", "--T", "100",
                      "--seed", "8", "--out", tmp_path / "c.csv")
    assert rep3["result"]["out_sha256"] != rep1["result"]["out_sha256"]


def test_simulate_generates_and_echoes_seed(tmp_path):
    report = run_report("simulate", "--kind", "white-noise", "--T", "30",
                        "--out", tmp_path / "wn.csv")
    assert isinstance(report["seed"], int)
    assert "seed" not in report["result"]["spec"]


def test_simulate_roundtrip_recovers_ar_coefficients(tmp_path):
    out = tmp_path / "ar1.csv"
    run_report("simulate", "--kind", "ar", "--beta0", "1.0", "--betas", "0.6",
               "--T", "2000", "--seed", "100", "--out", out)
    report = run_report("fit-ar", out, "--p", "1")
    model = report["result"]["model"]
    assert abs(model["intercept"] - 1.0) < 0.3
    assert abs(model["lag_coefficients"][0] - 0.6) < 0.1
    assert model["stationarity"]["stationary"] is True


SIM_SPECS = {
    "white-noise": (("--sigma2", "2.5"), WhiteNoise(sigma2=2.5, seed=1)),
    "ar": (("--beta0", "0.7", "--betas", "0.5,-0.2", "--sigma2", "1.5", "--burn-in", "7"),
           ArProcess(beta0=0.7, betas=(0.5, -0.2), sigma2=1.5, burn_in=7, seed=1)),
    "ma": (("--alpha0", "0.3", "--alphas", "0.4,0.1", "--sigma2", "0.5", "--burn-in", "3"),
           MaProcess(alpha0=0.3, alphas=(0.4, 0.1), sigma2=0.5, burn_in=3, seed=1)),
    "arma": (("--beta0", "-1", "--betas", "0.3", "--alphas", "0.2,0.1", "--burn-in", "12"),
             ArmaProcess(beta0=-1.0, betas=(0.3,), alphas=(0.2, 0.1), burn_in=12, seed=1)),
    "random-walk": (("--drift", "0.1", "--y0", "3", "--sigma2", "0.2"),
                    RandomWalk(drift=0.1, y0=3.0, sigma2=0.2, seed=1)),
    "random-walk-drift": (("--drift", "0.4", "--y0", "-2"),
                          RandomWalk(drift=0.4, y0=-2.0, seed=1)),
    "var": (("--delta", "0.5,0.2", "--a-matrices", "[[[0.3, 0.1], [0.0, 0.5]]]",
             "--innovation-cov", "[[1.0, 0.3], [0.3, 2.0]]", "--names", "imp,exp",
             "--burn-in", "9"),
            VarProcess(delta=(0.5, 0.2), coeff_matrices=([[0.3, 0.1], [0.0, 0.5]],),
                       innovation_cov=[[1.0, 0.3], [0.3, 2.0]], names=("imp", "exp"),
                       burn_in=9, seed=1)),
    "cointegrated-pair": (("--theta", "2", "--drift", "0.1", "--noise-ar", "0.5",
                           "--endogeneity", "0.3", "--burn-in", "4"),
                          CointegratedPair(theta=2.0, drift=0.1, noise_ar=0.5,
                                           endogeneity=0.3, burn_in=4, seed=1)),
    "intercept-break-ar": (("--beta0-pre", "0.2", "--beta0-post", "2", "--break-frac", "0.3",
                            "--betas", "0.4,0.1", "--sigma2", "0.7"),
                           InterceptBreakAr(beta0_pre=0.2, beta0_post=2.0, break_frac=0.3,
                                            betas=(0.4, 0.1), sigma2=0.7, seed=1)),
}


def _sim_args(kind, *flags):
    return build_parser().parse_args(["simulate", "--kind", kind, "--T", "10", "--out", "x.csv",
                                      *flags])


def test_simulate_kinds_are_the_specs():
    kinds = next(a for a in build_parser()._actions if a.dest == "command").choices["simulate"]
    kind_action = next(a for a in kinds._actions if a.dest == "kind")
    assert list(kind_action.choices) == list(SIM_SPECS)


@pytest.mark.parametrize("kind", SIM_SPECS)
def test_simulate_builds_the_dataclass_spec(kind):
    flags, spec = SIM_SPECS[kind]
    assert _build_sim_spec(_sim_args(kind, *flags), seed=1) == spec


def test_simulate_var_defaults_to_unit_covariance_and_numbered_names():
    args = _sim_args("var", "--delta", "0,0,0", "--a-matrices", "[]")
    assert _build_sim_spec(args, seed=2) == VarProcess(
        delta=(0.0, 0.0, 0.0), coeff_matrices=(), innovation_cov=np.eye(3), seed=2)


@pytest.mark.parametrize("kind, flags, message", [
    ("ar", (), "--betas is required for kind ar"),
    ("ma", (), "--alphas is required for kind ma"),
    ("arma", ("--betas", "0.5"), "--betas and --alphas are required for kind arma"),
    ("arma", ("--alphas", "0.5"), "--betas and --alphas are required for kind arma"),
    ("var", ("--delta", "0,0"), "--delta and --a-matrices are required for kind var"),
    ("var", ("--a-matrices", "[]"), "--delta and --a-matrices are required for kind var"),
    ("intercept-break-ar", (), "--betas is required for kind intercept-break-ar"),
    ("random-walk-drift", (), "kind random-walk-drift requires a nonzero --drift"),
])
def test_simulate_required_flag_messages(kind, flags, message, tmp_path):
    code, out, err = run_cli("simulate", "--kind", kind, "--T", "10", "--seed", "1",
                             "--out", tmp_path / "x.csv", *flags)
    assert (code, out, err) == (1, "", message + "\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (("--a-matrices", "5"), "VAR coeff_matrices must be an array of numbers"),
    (("--a-matrices", '[["a"]]'), "VAR coeff_matrices must be an array of numbers"),
    (("--a-matrices", "[[[NaN, 0], [0, 0.5]]]"), "autoregressive coefficients must be finite"),
    (("--a-matrices", "[[[0.5, 0], [0, 0.5]]]", "--innovation-cov", '[["x", 0], [0, 1]]'),
     "VAR innovation_cov must be an array of numbers"),
], ids=["scalar", "string", "nan", "string-cov"])
def test_simulate_refuses_bad_var_parameters(flags, message, tmp_path):
    code, out, err = run_cli("simulate", "--kind", "var", "--delta", "0,0", "--T", "10",
                             "--seed", "1", "--out", tmp_path / "v.csv", *flags)
    assert (code, out, err) == (1, "", message + "\n")
    assert not (tmp_path / "v.csv").exists()


def test_fit_ar_stationarity_is_the_k1_var_stability(data):
    # an AR(p) is judged as the k = 1 VAR(p), so both reports carry one block
    ar = run_report("fit-ar", data["ar"], "--p", "2")["result"]["model"]
    var = run_report("fit-var", data["ar"], "--p", "2")["result"]["model"]
    assert var["coefficient_matrices"] == [[[c]] for c in ar["lag_coefficients"]]
    assert ar["stationarity"] == var["stability"]


def test_granger_direction_on_causal_var(data):
    forward = run_report("granger", data["var"], "--cause", "y2",
                         "--effect", "y1", "--p", "1")
    reverse = run_report("granger", data["var"], "--cause", "y1",
                         "--effect", "y2", "--p", "1")
    assert forward["result"]["report"]["decision"]["5%"] == "reject"
    assert reverse["result"]["report"]["decision"]["5%"] == "fail_to_reject"


def test_integration_order_classifies_random_walk(data):
    report = run_report("integration-order", data["rw"])
    assert report["result"]["classification"] == "I(1)"
    assert len(report["result"]["reports"]) == 2


def test_coint_rejects_on_cointegrated_pair(data):
    report = run_report("coint", data["pair"], "--y", "y", "--x", "x")
    res = report["result"]
    assert abs(res["theta"]["x"] - 2.0) < 0.1
    assert res["report"]["decision"]["5%"] == "reject"
    assert res["report"]["cv_provenance"]["kind"] == "paper_table"


def test_emit_csv_files(data, tmp_path):
    fc_csv = tmp_path / "fc.csv"
    run_report("forecast", data["ar"], "--p", "1", "--horizon", "8",
               "--emit-csv", fc_csv)
    lines = fc_csv.read_text().strip().splitlines()
    assert lines[0] == "horizon,forecast"
    assert len(lines) == 9

    scan_csv = tmp_path / "scan.csv"
    report = run_report("qlr", data["ar"], "--p", "1", "--emit-csv", scan_csv)
    lines = scan_csv.read_text().strip().splitlines()
    assert lines[0] == "position,f_statistic"
    lo, hi = report["result"]["report"]["nuisance"]["window"]
    assert len(lines) - 1 == hi - lo + 1

    lag_csv = tmp_path / "lags.csv"
    run_report("describe", data["ar"], "--max-lag", "4", "--emit-csv", lag_csv)
    lines = lag_csv.read_text().strip().splitlines()
    assert lines[0] == "lag,autocovariance,autocorrelation"
    assert len(lines) == 6


def test_describe_constant_column_is_strict_json(tmp_path):
    # a constant series has no autocorrelations; RFC 8259 JSON has no NaN token
    path = tmp_path / "flat.csv"
    path.write_text("c\n" + "3.5\n" * 30)
    code, out, err = run_cli("describe", path, "--max-lag", "3")
    assert code == 0, err

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    report = json.loads(out, parse_constant=refuse)
    assert not list(VALIDATOR.iter_errors(report))
    assert report["result"]["autocovariances"] == [0.0] * 4
    assert report["result"]["autocorrelations"] == [None] * 4


def test_exit_code_domain_error(data):
    code, out, err = run_cli("describe", data["ar"], "--col", "nope")
    assert code == 1
    assert out == ""
    assert "nope" in err

    code, _, err = run_cli("describe", "/no/such/file.csv")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command", [("dols", "--p", "1"), ("coint",)], ids=["dols", "coint"])
def test_regression_refuses_a_variable_named_const(command, data, tmp_path):
    # the report keys coefficients by column name, and "const" is the intercept's
    lines = data["pair"].read_text(encoding="utf-8").splitlines()
    f = _write(tmp_path / "d.csv", "\n".join([lines[0].replace("x", "const")] + lines[1:]))
    for flag, y, x in (("--x", "y", "const"), ("--y", "const", "y")):
        code, out, err = run_cli(command[0], f, "--y", y, "--x", x, *command[1:])
        assert code == 1
        assert out == ""
        assert f"{flag} names a column 'const', the name of the intercept" in err


def test_exit_code_usage_error(data):
    code, _, _ = run_cli("adf", data["rw"], "--det", "quadratic")
    assert code == 2
    for argv in (("adf", data["rw"]), ("integration-order", data["rw"]),
                 ("mc-critical", "--statistic", "adf")):
        code, _, err = run_cli(*argv, "--lags", "foo")
        assert code == 2
        assert "expected an integer or 'auto', got 'foo'" in err
    code, _, _ = run_cli()
    assert code == 2


def test_version_flag():
    code, out, _ = run_cli("--version")
    assert code == 0
    assert tsecon.__version__ in out


# --- ingest policy -------------------------------------------------------------


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_ingest_index_column_note(tmp_path):
    f = _write(tmp_path / "d.csv", "t,y\n0,1.5\n1,2.5\n2,3.5\n3,4.5\n")
    report = run_report("describe", f, "--max-lag", "1")
    parse = report["input"]["parse"]
    assert parse["index_column"] == "t"
    assert any("index" in note for note in parse["notes"])
    assert report["result"]["series"] == "y"


def test_ingest_non_numeric_column_ignored_with_note(tmp_path):
    f = _write(tmp_path / "d.csv",
               "y,label\n1.0,north\n2.0,south\n3.0,east\n4.0,west\n")
    report = run_report("describe", f, "--max-lag", "1")
    notes = report["input"]["parse"]["notes"]
    assert any("'label' ignored" in n and "'north'" in n for n in notes)
    assert report["result"]["series"] == "y"
    assert report["result"]["n_obs"] == 4


def test_ingest_blank_cells_rejected_with_line_numbers(tmp_path):
    f = _write(tmp_path / "d.csv", "y\n1.0\n\n3.0\n\n5.0\n")
    code, _, err = run_cli("describe", f)
    assert code == 1
    assert "'y' has blank cells at lines 3, 5" in err


def test_ingest_decimal_comma(tmp_path):
    f = _write(tmp_path / "d.csv", "t;y\n1;3,14\n2;2,0\n3;1,5\n4;0,25\n")
    report = run_report("describe", f, "--decimal-comma", "--max-lag", "1")
    expected = (3.14 + 2.0 + 1.5 + 0.25) / 4
    assert report["result"]["mean"] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("blob, flags, where", [
    (b"valore\xe8,x\n1,2\n3,4\n", (), "byte 0xe8 at offset 6"),
    (b"\xef\xbb\xbft;y\r\n1;3,14\r\n2;2\xe8\r\n", ("--decimal-comma",),
     "byte 0xe8 at offset 19"),
], ids=["header", "bom-crlf-cell"])
def test_ingest_rejects_bytes_that_are_not_utf8(tmp_path, blob, flags, where):
    # a Latin-1 export fails with a message, not a traceback
    path = tmp_path / "latin.csv"
    path.write_bytes(blob)
    code, out, err = run_cli("describe", path, *flags)
    assert (code, out) == (1, "")
    assert err == f"{path} is not UTF-8: {where}\n"


def test_ingest_bom_and_crlf_parse_as_plain_utf8(tmp_path):
    plain = _write(tmp_path / "plain.csv", "t,y\n0,1.5\n1,2.5\n2,4.0\n3,3.5\n")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    a, b = run_report("describe", plain), run_report("describe", marked)
    assert a["result"] == b["result"]
    assert a["input"]["parse"] == b["input"]["parse"]


def test_ingest_rejects_ragged_rows(tmp_path):
    f = _write(tmp_path / "d.csv", "y\n1.0\n2.0,9.9\n3.0\n")
    code, _, err = run_cli("describe", f)
    assert code == 1
    assert "not rectangular" in err and "line 3" in err


def test_ingest_rejects_no_usable_columns(tmp_path):
    f = _write(tmp_path / "d.csv", "a,b\nx,y\nz,w\n")
    code, _, err = run_cli("describe", f)
    assert code == 1
    assert "no usable numeric columns" in err


def test_ingest_rejects_empty_and_headerless(tmp_path):
    f = _write(tmp_path / "empty.csv", "")
    code, _, err = run_cli("describe", f)
    assert code == 1 and "empty" in err
    f = _write(tmp_path / "hdr.csv", "y\n")
    code, _, err = run_cli("describe", f)
    assert code == 1 and "no data" in err


def test_ingest_rejects_duplicate_and_blank_headers(tmp_path):
    f = _write(tmp_path / "dup.csv", "y,y\n1,2\n3,4\n")
    code, _, err = run_cli("describe", f)
    assert code == 1 and "duplicate column name 'y'" in err
    f = _write(tmp_path / "blank.csv", "y,\n1,2\n3,4\n")
    code, _, err = run_cli("describe", f)
    assert code == 1 and "empty header name" in err


# --- critical-value files ------------------------------------------------------


def test_cv_file_flag_and_environment(data, tmp_path, monkeypatch):
    monkeypatch.delenv("TSECON_CV_FILE", raising=False)
    # trend with fixed lags=1 is deliberately absent from the packaged cache
    code, _, err = run_cli("adf", data["rw"], "--det", "trend", "--lags", "1")
    assert code == 1
    assert "no cached critical values" in err

    cv_file = tmp_path / "cv.json"
    report = run_report("mc-critical", "--statistic", "adf", "--det", "trend",
                        "--lags", "1", "--T-sim", "100", "--reps", "2000",
                        "--seed", "31", "--out", cv_file)
    assert report["result"]["written_to"] == str(cv_file)

    flagged = run_report("adf", data["rw"], "--det", "trend", "--lags", "1",
                         "--cv-file", cv_file)
    prov = flagged["result"]["report"]["cv_provenance"]
    assert prov["kind"] == "monte_carlo"
    assert prov["reps"] == 2000

    monkeypatch.setenv("TSECON_CV_FILE", str(cv_file))
    via_env = run_report("adf", data["rw"], "--det", "trend", "--lags", "1")
    assert via_env["result"]["report"]["statistic"] == \
        flagged["result"]["report"]["statistic"]
    assert via_env["result"]["report"]["critical_values"] == \
        flagged["result"]["report"]["critical_values"]


_GOOD_ENTRY = {"statistic": "adf", "params": {"deterministic": "drift", "lags": "auto"},
               "tail": "left", "quantiles": {"0.05": -2.9}, "provenance": {}}
MALFORMED_CV_FILES = {
    "directory": None,
    "not_utf8": b"\xff\xfe",
    "json_array": [1, 2],
    "entries_not_a_list": {"format_version": 1, "entries": 3},
    "entry_without_params": {"format_version": 1, "entries": [
        {k: v for k, v in _GOOD_ENTRY.items() if k != "params"}]},
    "quantile_not_a_number": {"format_version": 1, "entries": [
        {**_GOOD_ENTRY, "quantiles": {"0.05": "abc"}}]},
    "quantiles_a_list": {"format_version": 1, "entries": [{**_GOOD_ENTRY, "quantiles": [1]}]},
}


def _malformed_cv_file(kind, tmp_path):
    path = tmp_path / f"{kind}.json"
    content = MALFORMED_CV_FILES[kind]
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    return path


@pytest.mark.parametrize("kind", MALFORMED_CV_FILES)
def test_malformed_cv_file_is_a_domain_error(kind, data, tmp_path, monkeypatch):
    from tsecon import DomainError, adf_test
    from tsecon.cli import ingest_csv

    path = _malformed_cv_file(kind, tmp_path)
    code, out, err = run_cli("adf", data["rw"], "--cv-file", path)
    assert (code, out) == (1, "")
    assert repr(str(path)) in err
    series = ingest_csv(data["rw"]).columns["y"]
    with pytest.raises(DomainError, match="critical-value file"):
        adf_test(series, cv_source=str(path))
    monkeypatch.setenv("TSECON_CV_FILE", str(path))
    assert run_cli("adf", data["rw"])[:2] == (1, "")


@pytest.mark.parametrize("argv", [
    ("describe", "ar"), ("forecast", "ar", "--p", "1", "--horizon", "3"),
    ("qlr", "ar", "--p", "1"), ("forecast-var", "var", "--p", "1", "--horizon", "3"),
], ids=lambda a: a[0])
def test_unwritable_emit_csv_is_a_domain_error(argv, data, tmp_path):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(argv[0], data[argv[1]], *argv[2:], "--emit-csv", target)
    assert (code, out) == (1, "")
    assert f"cannot write {target}" in err


def test_unwritable_out_is_a_domain_error(tmp_path):
    target = tmp_path / "missing" / "out"
    code, out, err = run_cli("simulate", "--kind", "white-noise", "--T", "20", "--seed", "1",
                             "--out", target)
    assert (code, out) == (1, "")
    assert f"cannot write {target}" in err
    code, out, err = run_cli("mc-critical", "--statistic", "qlr", "--T-sim", "50",
                             "--reps", "1000", "--seed", "1", "--out", target)
    assert (code, out) == (1, "")
    assert f"cannot write {target}" in err


@pytest.mark.parametrize("kind", ["directory", "entry_without_params"])
def test_mc_critical_reads_its_out_file_before_simulating(kind, tmp_path, monkeypatch):
    import tsecon.cli

    def refuse(*args, **kwargs):
        raise AssertionError("simulated before reading --out")

    monkeypatch.setattr(tsecon.cli, "mc_critical_values", refuse)
    path = _malformed_cv_file(kind, tmp_path)
    code, out, err = run_cli("mc-critical", "--statistic", "adf", "--out", path)
    assert (code, out) == (1, "")
    assert repr(str(path)) in err


def test_mc_critical_out_merges_entries(tmp_path):
    cv_file = tmp_path / "cv.json"
    run_report("mc-critical", "--statistic", "egadf", "--m", "1",
               "--T-sim", "50", "--reps", "1000", "--seed", "5", "--out", cv_file)
    run_report("mc-critical", "--statistic", "egadf", "--m", "2",
               "--T-sim", "50", "--reps", "1000", "--seed", "6", "--out", cv_file)
    saved = json.loads(cv_file.read_text())
    assert len(saved["entries"]) == 2
    ms = sorted(e["params"]["n_regressors"] for e in saved["entries"])
    assert ms == [1, 2]


def test_mc_critical_report_quantiles_ordered():
    report = run_report("mc-critical", "--statistic", "qlr", "--p", "1",
                        "--T-sim", "80", "--reps", "1000", "--seed", "3")
    q = report["result"]["quantiles"]
    # right tail: stricter level, larger critical value
    assert q["0.01"] > q["0.05"] > q["0.1"]
