"""Command-line front end: CSV ingestion, analysis subcommands, JSON reports.

Every subcommand prints one JSON report to stdout.  Reports carry the
command echo, an input fingerprint, seeds, and the result of exactly one
library operation; rerunning the same command on the same input and seed
reproduces the report byte for byte.  Series-shaped outputs (forecasts,
simulated paths, statistic scans) can additionally be written as CSV.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import secrets
import sys
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError
from .series import TimeSeries, sample_moments


def _on_first_call(module: str, name: str):
    """A stand-in for `module.name` that imports the module when first called.

    A one-shot command then imports only the library modules its handler
    runs, while every library function the handlers call stays a rebindable
    attribute of this module.
    """

    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


fit_ar = _on_first_call("armodel", "fit_ar")
forecast_ar = _on_first_call("armodel", "forecast_ar")
is_stationary = _on_first_call("armodel", "is_stationary")
chow_f_scan = _on_first_call("breaks", "chow_f_scan")
chow_test = _on_first_call("breaks", "chow_test")
qlr_test = _on_first_call("breaks", "qlr_test")
qlr_window = _on_first_call("breaks", "qlr_window")
dols = _on_first_call("cointegration", "dols")
eg_adf_test = _on_first_call("cointegration", "eg_adf_test")
integration_order = _on_first_call("cointegration", "integration_order")
simulate = _on_first_call("dgp", "simulate")
select_ar_order = _on_first_call("lagselect", "select_ar_order")
select_var_order = _on_first_call("lagselect", "select_var_order")
mc_critical_values = _on_first_call("montecarlo", "mc_critical_values")
adf_test = _on_first_call("unitroot", "adf_test")
fit_var = _on_first_call("varmodel", "fit_var")
forecast_var = _on_first_call("varmodel", "forecast_var")
granger_test = _on_first_call("varmodel", "granger_test")
stability = _on_first_call("varmodel", "stability")

# The statistics mc-critical can simulate: montecarlo._SIMULATED, named here so
# that building the parser does not import the Monte Carlo engine.
_SIMULATED = ("adf", "qlr", "egadf")

REPORT_FORMAT_VERSION = 1

_INDEX_NAMES = {"", "index", "t", "time", "date", "obs"}


# --- CSV ingestion ------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Named numeric columns, the SHA-256 of the file read and what ingestion did."""

    columns: dict
    source: str
    parse_report: dict
    sha256: str


def ingest_csv(path, decimal_comma: bool = False) -> Dataset:
    """Read a headered UTF-8 CSV into named TimeSeries columns.

    The bytes are read once and give the columns and their SHA-256.  A byte
    order mark is dropped; a byte that is not UTF-8 is a DomainError.  A
    leading index-like column (named index/t/time/date/obs or unnamed) is
    ignored.  Columns containing non-numeric text are dropped with a note;
    blank cells in an otherwise numeric column are a hard error listing the
    offending lines.  With decimal_comma, cells are semicolon-delimited and
    "3,14" parses as 3.14.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    try:
        text = blob.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        at = len(blob) - len(exc.object) + exc.start  # counting a byte order mark
        raise DomainError(f"{path} is not UTF-8: byte 0x{blob[at]:02x} at offset {at}") from None
    rows = list(csv.reader(io.StringIO(text, newline=""), delimiter=";" if decimal_comma else ","))
    if not rows:
        raise DomainError(f"{path} is empty")
    header, *body = rows
    if not body:
        raise DomainError(f"{path} has a header row but no data")
    width = len(header)
    body = [row if row else [""] * width for row in body]  # blank line = blank cells
    for line, row in enumerate(body, start=2):
        if len(row) != width:
            raise DomainError(
                f"{path} is not rectangular: line {line} has {len(row)} cells, "
                f"the header has {width}"
            )
    names = [h.strip() for h in header]
    notes = []
    index_column = None
    start = 0
    if names and names[0].lower() in _INDEX_NAMES:
        index_column = names[0] or "(unnamed)"
        start = 1
        notes.append(f"leading column {index_column!r} treated as an index and ignored")
    columns: dict = {}
    for c in range(start, width):
        name = names[c]
        if not name:
            raise DomainError(f"column {c + 1} of {path} has an empty header name")
        if name in columns:
            raise DomainError(f"duplicate column name {name!r} in {path}")
        cells = [row[c].strip() for row in body]
        blanks = [line for line, v in enumerate(cells, start=2) if v == ""]
        values = np.empty(len(cells))
        bad = None
        for i, text in enumerate(cells):
            if text == "":
                continue
            if decimal_comma:
                text = text.replace(",", ".")
            try:
                values[i] = float(text)
            except ValueError:
                bad = (i + 2, cells[i])
                break
            if not math.isfinite(values[i]):
                bad = (i + 2, cells[i])
                break
        if bad is not None:
            notes.append(
                f"column {name!r} ignored: non-numeric value {bad[1]!r} at line {bad[0]}"
            )
            continue
        if blanks:
            shown = ", ".join(str(b) for b in blanks[:10])
            extra = "" if len(blanks) <= 10 else f" and {len(blanks) - 10} more"
            raise DomainError(f"column {name!r} has blank cells at lines {shown}{extra}")
        columns[name] = TimeSeries(values, label=name)
    if not columns:
        raise DomainError(f"{path} has no usable numeric columns")
    return Dataset(
        columns=columns,
        source=str(path),
        parse_report={
            "index_column": index_column,
            "notes": notes,
            "n_rows": len(body),
        },
        sha256=hashlib.sha256(blob).hexdigest(),
    )


def _column(dataset: Dataset, name: str) -> TimeSeries:
    if name not in dataset.columns:
        raise DomainError(f"column {name!r} not found; available: {sorted(dataset.columns)}")
    return dataset.columns[name]


def _pick_single(dataset: Dataset, col: str | None) -> TimeSeries:
    if col is not None:
        return _column(dataset, col)
    if len(dataset.columns) == 1:
        return next(iter(dataset.columns.values()))
    raise DomainError(
        f"file has columns {sorted(dataset.columns)}; choose one with --col"
    )


def _split_names(raw: str, flag: str) -> list:
    names = [nm.strip() for nm in raw.split(",") if nm.strip()]
    if not names:
        raise DomainError(f"{flag} received no column names")
    if len(set(names)) != len(names):
        raise DomainError(f"{flag} lists a column twice: {names}")
    return names


def _pick_many(dataset: Dataset, cols: str | None, flag: str = "--cols") -> dict:
    if cols is None:
        return dict(dataset.columns)
    return {nm: _column(dataset, nm) for nm in _split_names(cols, flag)}


def _pick_regression(dataset: Dataset, args) -> tuple:
    """The --y column, the --x names and their columns.

    A regression report keys its entries by column name and names the
    intercept "const", so neither --y nor --x may use that name.
    """
    y = _column(dataset, args.y)
    xnames = _split_names(args.x, "--x")
    for flag, names in (("--y", [args.y]), ("--x", xnames)):
        if "const" in names:
            raise DomainError(f"{flag} names a column 'const', the name of the intercept; "
                              "rename the column")
    return y, xnames, [_column(dataset, nm) for nm in xnames]


# --- report plumbing ----------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _envelope(command: str, argv, result: dict, dataset: Dataset | None = None,
              used=None, seed=None) -> dict:
    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "toolkit_version": __version__,
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "input": None,
        "result": result,
    }
    if dataset is not None:
        report["input"] = {
            "path": dataset.source,
            "sha256": dataset.sha256,
            "columns_used": list(used or []),
            "parse": dataset.parse_report,
        }
    return report


def _cannot_write(path, exc: OSError) -> DomainError:
    return DomainError(f"cannot write {path}: {exc}")


def _write_csv(path, header, rows) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _ols_block(fit) -> dict:
    return {
        "coefficients": {nm: float(v) for nm, v in zip(fit.column_names, fit.coefficients)},
        "stderrs": {nm: float(v) for nm, v in zip(fit.column_names, fit.stderrs)},
        "t_stats": {nm: float(v) for nm, v in zip(fit.column_names, fit.t_stats)},
        "ssr": float(fit.ssr),
        "ser": float(fit.ser),
        "n_obs": int(fit.n_obs),
        "n_params": int(fit.n_params),
    }


def _stability_block(check, stationary: bool) -> dict:
    return {
        "stationary": bool(stationary),
        "root_moduli": [float(m) for m in check.root_moduli],
        "has_unit_root": bool(check.has_unit_root),
    }


def _ar_block(fit) -> dict:
    check = is_stationary(fit.lag_poly)
    return {
        "p": int(fit.order),
        "intercept": float(fit.intercept),
        "lag_coefficients": [float(c) for c in fit.lag_poly.coefficients],
        "stationarity": _stability_block(check, check.stationary),
        "regression": _ols_block(fit.fit),
    }


# --- subcommand handlers ------------------------------------------------------


def _cmd_describe(args, ds):
    series = _pick_single(ds, args.col)
    max_lag = args.max_lag if args.max_lag is not None else min(20, len(series) - 2)
    moments = sample_moments(series, max_lag, full_sample_mean=args.full_sample_mean)
    result = {
        "series": series.label,
        "n_obs": int(moments.n_obs),
        "mean": float(moments.mean),
        "variance": float(moments.variance),
        "max_lag": int(moments.max_lag),
        "full_sample_mean": bool(moments.full_sample_mean),
        "autocovariances": [float(v) for v in moments.autocovariances],
        # a constant series has NaN autocorrelations, and JSON has no NaN
        "autocorrelations": [float(v) if math.isfinite(v) else None
                             for v in moments.autocorrelations],
    }
    if args.emit_csv:
        rows = [
            (j, result["autocovariances"][j], float(moments.autocorrelations[j]))
            for j in range(max_lag + 1)
        ]
        _write_csv(args.emit_csv, ["lag", "autocovariance", "autocorrelation"], rows)
        result["csv"] = args.emit_csv
    return result, [series.label], None


def _cmd_fit_ar(args, ds):
    series = _pick_single(ds, args.col)
    fit = fit_ar(series, args.p)
    return {"series": series.label, "model": _ar_block(fit)}, [series.label], None


def _cmd_select_lag(args, ds):
    names = _split_names(args.cols, "--cols") if args.cols is not None else [args.col]
    if len(names) > 1:
        data = _pick_many(ds, args.cols)
        table = select_var_order(data, args.p_max, criterion=args.criterion)
        used = list(data)
    else:
        series = _pick_single(ds, names[0])
        table = select_ar_order(series, args.p_max, criterion=args.criterion)
        used = [series.label]
    return {"table": table.to_dict(), "columns": used}, used, None


def _cmd_forecast(args, ds):
    series = _pick_single(ds, args.col)
    fit = fit_ar(series, args.p)
    fc = forecast_ar(fit, series, args.horizon)
    result = {
        "series": series.label,
        "model": _ar_block(fit),
        "horizon": int(fc.horizon),
        "point_forecasts": [float(v) for v in fc.point_forecasts],
        "rmsfe_estimate": float(fc.rmsfe_estimate),
    }
    if args.emit_csv:
        rows = [(h + 1, v) for h, v in enumerate(result["point_forecasts"])]
        _write_csv(args.emit_csv, ["horizon", "forecast"], rows)
        result["csv"] = args.emit_csv
    return result, [series.label], None


def _cmd_adf(args, ds):
    from .unitroot import AdfSpec

    series = _pick_single(ds, args.col)
    report = adf_test(series, AdfSpec(lags=args.lags, deterministic=args.det),
                      cv_source=args.cv_file)
    return {"report": report.to_dict()}, [series.label], None


def _cmd_chow(args, ds):
    series = _pick_single(ds, args.col)
    report = chow_test(series, p=args.p, tau=args.tau)
    return {"report": report.to_dict()}, [series.label], None


def _cmd_qlr(args, ds):
    series = _pick_single(ds, args.col)
    report = qlr_test(series, p=args.p, trim=args.trim, cv_source=args.cv_file)
    result = {"report": report.to_dict()}
    if args.emit_csv:
        taus = qlr_window(len(series), args.p, args.trim)
        scan = chow_f_scan(series.values[None, :], args.p, taus)[0]
        rows = list(zip(taus.tolist(), [float(f) for f in scan]))
        _write_csv(args.emit_csv, ["position", "f_statistic"], rows)
        result["csv"] = args.emit_csv
    return result, [series.label], None


def _var_block(fit) -> dict:
    check = stability(fit)
    return {
        "names": list(fit.names),
        "p": int(fit.p),
        "n_obs": int(fit.n_obs),
        "intercepts": [float(v) for v in fit.intercepts],
        "coefficient_matrices": [A.tolist() for A in fit.coeff_matrices],
        "residual_cov": fit.residual_cov.tolist(),
        "stability": _stability_block(check, check.stable),
        "equations": {nm: _ols_block(f) for nm, f in zip(fit.names, fit.equation_fits)},
    }


def _cmd_fit_var(args, ds):
    data = _pick_many(ds, args.cols)
    fit = fit_var(data, args.p)
    return {"model": _var_block(fit)}, list(data), None


def _cmd_forecast_var(args, ds):
    data = _pick_many(ds, args.cols)
    fit = fit_var(data, args.p)
    forecasts = forecast_var(fit, data, args.horizon)
    result = {
        "model": _var_block(fit),
        "horizon": int(args.horizon),
        "point_forecasts": {
            nm: [float(v) for v in fc.point_forecasts] for nm, fc in forecasts.items()
        },
        "rmsfe_estimates": {nm: float(fc.rmsfe_estimate) for nm, fc in forecasts.items()},
    }
    if args.emit_csv:
        names = list(fit.names)
        rows = [
            (h + 1, *[result["point_forecasts"][nm][h] for nm in names])
            for h in range(args.horizon)
        ]
        _write_csv(args.emit_csv, ["horizon", *names], rows)
        result["csv"] = args.emit_csv
    return result, list(data), None


def _cmd_granger(args, ds):
    used = [args.cause, args.effect]
    for nm in used:
        _column(ds, nm)
    report = granger_test(ds.columns, cause=args.cause, effect=args.effect, p=args.p)
    return {"report": report.to_dict()}, used, None


def _cmd_integration_order(args, ds):
    from .unitroot import AdfSpec

    series = _pick_single(ds, args.col)
    out = integration_order(
        series,
        AdfSpec(lags=args.lags, deterministic=args.det),
        max_order=args.max_order,
        level=args.level,
        cv_source=args.cv_file,
    )
    result = {
        "series": series.label,
        "order": int(out.order),
        "classification": out.classification,
        "level": float(out.level),
        "reports": [r.to_dict() for r in out.reports],
    }
    return result, [series.label], None


def _cmd_coint(args, ds):
    y, xnames, xs = _pick_regression(ds, args)
    fit = eg_adf_test(y, xs, cv_source=args.cv_file)
    result = {
        "dependent": args.y,
        "n_regressors": int(fit.n_regressors),
        "alpha": float(fit.alpha),
        "theta": {nm: float(v) for nm, v in zip(xnames, fit.theta)},
        "degenerate": bool(fit.degenerate),
        "report": fit.eg_adf.to_dict() if fit.eg_adf is not None else None,
    }
    return result, [args.y, *xnames], None


def _cmd_dols(args, ds):
    y, xnames, xs = _pick_regression(ds, args)
    fit = dols(y, xs, p=args.p, use_level_terms=args.level_terms)
    result = {
        "dependent": args.y,
        "p": int(fit.p),
        "use_level_terms": bool(fit.use_level_terms),
        "intercept": float(fit.intercept),
        "theta": {nm: float(v) for nm, v in zip(xnames, fit.theta)},
        "deltas": {nm: {str(j): v for j, v in sorted(js.items())}
                   for nm, js in fit.deltas.items()},
        "regression": _ols_block(fit.fit),
    }
    return result, [args.y, *xnames], None


def _parse_floats(raw: str, flag: str) -> tuple:
    try:
        return tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError:
        raise DomainError(f"{flag} expects comma-separated numbers, got {raw!r}") from None


def _parse_matrix_list(raw: str, flag: str):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{flag} expects JSON, got {raw!r}: {exc}") from None
    return value


def _build_sim_spec(args, seed: int):
    from .dgp import (ArmaProcess, ArProcess, CointegratedPair, InterceptBreakAr, MaProcess,
                      RandomWalk, VarProcess, WhiteNoise)

    kind = args.kind
    if kind == "white-noise":
        return WhiteNoise(sigma2=args.sigma2, seed=seed)
    if kind == "ar":
        if args.betas is None:
            raise DomainError("--betas is required for kind ar")
        return ArProcess(beta0=args.beta0, betas=_parse_floats(args.betas, "--betas"),
                         sigma2=args.sigma2, burn_in=args.burn_in, seed=seed)
    if kind == "ma":
        if args.alphas is None:
            raise DomainError("--alphas is required for kind ma")
        return MaProcess(alpha0=args.alpha0, alphas=_parse_floats(args.alphas, "--alphas"),
                         sigma2=args.sigma2, burn_in=args.burn_in, seed=seed)
    if kind == "arma":
        if args.betas is None or args.alphas is None:
            raise DomainError("--betas and --alphas are required for kind arma")
        return ArmaProcess(beta0=args.beta0, betas=_parse_floats(args.betas, "--betas"),
                           alphas=_parse_floats(args.alphas, "--alphas"),
                           sigma2=args.sigma2, burn_in=args.burn_in, seed=seed)
    if kind in ("random-walk", "random-walk-drift"):
        if kind == "random-walk-drift" and args.drift == 0.0:
            raise DomainError("kind random-walk-drift requires a nonzero --drift")
        return RandomWalk(drift=args.drift, y0=args.y0, sigma2=args.sigma2, seed=seed)
    if kind == "cointegrated-pair":
        return CointegratedPair(theta=args.theta, drift=args.drift,
                                noise_ar=args.noise_ar, endogeneity=args.endogeneity,
                                sigma2=args.sigma2, burn_in=args.burn_in, seed=seed)
    if kind == "intercept-break-ar":
        if args.betas is None:
            raise DomainError("--betas is required for kind intercept-break-ar")
        return InterceptBreakAr(beta0_pre=args.beta0_pre, beta0_post=args.beta0_post,
                                break_frac=args.break_frac,
                                betas=_parse_floats(args.betas, "--betas"),
                                sigma2=args.sigma2, burn_in=args.burn_in, seed=seed)
    if kind == "var":
        if args.a_matrices is None or args.delta is None:
            raise DomainError("--delta and --a-matrices are required for kind var")
        delta = _parse_floats(args.delta, "--delta")
        mats = _parse_matrix_list(args.a_matrices, "--a-matrices")
        k = len(delta)
        cov = (_parse_matrix_list(args.innovation_cov, "--innovation-cov")
               if args.innovation_cov is not None else np.eye(k).tolist())
        names = (tuple(_split_names(args.names, "--names")) if args.names is not None
                 else tuple(f"y{i + 1}" for i in range(k)))
        return VarProcess(delta=delta, coeff_matrices=tuple(mats), innovation_cov=cov,
                          names=names, burn_in=args.burn_in, seed=seed)
    raise DomainError(f"unknown kind {kind!r}")


def _cmd_simulate(args, ds):
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    spec = _build_sim_spec(args, seed)
    out = simulate(spec, args.T)
    if isinstance(out, TimeSeries):
        out = {out.label or "y": out}
    names = list(out)
    rows = [
        (t, *[float(out[nm].values[t]) for nm in names]) for t in range(args.T)
    ]
    _write_csv(args.out, ["t", *names], rows)
    spec_echo = {
        f.name: getattr(spec, f.name)
        for f in spec.__dataclass_fields__.values()
        if f.name != "seed"
    }
    result = {
        "kind": args.kind,
        "T": int(args.T),
        "columns": names,
        "out": args.out,
        "out_sha256": hashlib.sha256(Path(args.out).read_bytes()).hexdigest(),
        "spec": json.loads(json.dumps(spec_echo, default=_jsonable)),
    }
    return result, None, seed


def _cmd_mc_critical(args, ds):
    from .cvcache import CriticalValueCache
    from .montecarlo import _STATISTICS

    seed = args.seed if args.seed is not None else secrets.randbits(63)
    params = {name: getattr(args, dest) for dest, name in _STATISTICS[args.statistic].flags}
    # an existing file is read before the run, so a bad one fails at once
    path = Path(args.out) if args.out else None
    cache = CriticalValueCache.load(str(path)) if path and path.exists() else None
    run = mc_critical_values(
        args.statistic, params, T_sim=args.T_sim, reps=args.reps, seed=seed,
        levels=_parse_floats(args.levels, "--levels"), workers=args.workers,
    )
    written = None
    if path:
        if cache is None:
            cache = CriticalValueCache(entries=[], generator=run.generator)
        cache.put(run.to_entry())
        try:
            cache.save(str(path))
        except OSError as exc:
            raise _cannot_write(path, exc) from None
        written = str(path)
    result = {
        "statistic": run.statistic,
        "params": run.params,
        "tail": run.tail,
        "T_sim": run.T_sim,
        "reps": run.reps,
        "levels": list(run.levels),
        "quantiles": {f"{lv:g}": cv for lv, cv in run.quantiles.items()},
        "summary": run.summary,
        "generator": run.generator,
        "written_to": written,
    }
    return result, None, seed


# --- parser -------------------------------------------------------------------


def _lags(text: str):
    """--lags value: 'auto' or an integer (the test itself rejects negatives)."""
    try:
        return text if text == "auto" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}") from None


def _subcommand(sub, name: str, handler, help: str, csv: bool = True, col: bool = True):
    """A subparser; with csv, main loads its input file before calling the handler."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(handler=handler)
    if csv:
        sp.add_argument("csv", help="input CSV file with a header row")
        sp.add_argument("--decimal-comma", action="store_true",
                        help="semicolon-delimited file with decimal commas (3,14 -> 3.14)")
        if col:
            sp.add_argument("--col", default=None, help="column to analyze")
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsecon",
        description="Time-series regression, unit-root, break and cointegration toolkit",
    )
    parser.add_argument("--version", action="version", version=f"tsecon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _subcommand(sub, "describe", _cmd_describe, "sample moments and autocorrelations")
    sp.add_argument("--max-lag", type=int, default=None)
    sp.add_argument("--full-sample-mean", action="store_true",
                    help="use the full-sample mean in every autocovariance window")
    sp.add_argument("--emit-csv", default=None, help="write the lag table as CSV")

    sp = _subcommand(sub, "fit-ar", _cmd_fit_ar, "estimate an AR(p) by least squares")
    sp.add_argument("--p", type=int, required=True)

    sp = _subcommand(sub, "select-lag", _cmd_select_lag, "information-criterion lag-order table")
    sp.add_argument("--cols", default=None,
                    help="comma-separated columns for a joint (vector) selection")
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--criterion", choices=("bic", "aic"), default="bic")

    sp = _subcommand(sub, "forecast", _cmd_forecast, "iterated point forecasts from an AR(p)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--emit-csv", default=None)

    sp = _subcommand(sub, "adf", _cmd_adf, "augmented Dickey-Fuller unit-root test")
    sp.add_argument("--det", choices=("drift", "trend"), default="drift")
    sp.add_argument("--lags", type=_lags, default="auto", help="integer or 'auto' (BIC)")
    sp.add_argument("--cv-file", default=None)

    sp = _subcommand(sub, "chow", _cmd_chow, "break test at a known date")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--tau", type=int, required=True,
                    help="0-based break position within the series")

    sp = _subcommand(sub, "qlr", _cmd_qlr, "sup-F break test over a trimmed window")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--trim", type=float, default=0.15)
    sp.add_argument("--cv-file", default=None)
    sp.add_argument("--emit-csv", default=None, help="write the F-statistic scan as CSV")

    sp = _subcommand(sub, "fit-var", _cmd_fit_var,
                     "estimate a VAR(p) equation by equation", col=False)
    sp.add_argument("--cols", default=None, help="comma-separated columns (default: all)")
    sp.add_argument("--p", type=int, required=True)

    sp = _subcommand(sub, "forecast-var", _cmd_forecast_var,
                     "iterated multistep VAR forecasts", col=False)
    sp.add_argument("--cols", default=None)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--emit-csv", default=None)

    sp = _subcommand(sub, "granger", _cmd_granger, "Granger-causality F-test", col=False)
    sp.add_argument("--cause", required=True)
    sp.add_argument("--effect", required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = _subcommand(sub, "integration-order", _cmd_integration_order,
                     "classify I(0)/I(1)/I(2) by ADF ladder")
    sp.add_argument("--det", choices=("drift", "trend"), default="drift")
    sp.add_argument("--lags", type=_lags, default="auto")
    sp.add_argument("--max-order", type=int, default=2)
    sp.add_argument("--level", type=float, default=0.05)
    sp.add_argument("--cv-file", default=None)

    sp = _subcommand(sub, "coint", _cmd_coint,
                     "Engle-Granger two-step cointegration test", col=False)
    sp.add_argument("--y", required=True, help="dependent column")
    sp.add_argument("--x", required=True, help="comma-separated regressor columns")
    sp.add_argument("--cv-file", default=None)

    sp = _subcommand(sub, "dols", _cmd_dols,
                     "dynamic OLS estimate of a cointegrating relation", col=False)
    sp.add_argument("--y", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--p", type=int, required=True, help="lead/lag window half-width")
    sp.add_argument("--level-terms", action="store_true",
                    help="use level leads/lags instead of differences")

    sp = _subcommand(sub, "simulate", _cmd_simulate,
                     "simulate a data-generating process to CSV", csv=False)
    sp.add_argument("--kind", required=True,
                    choices=("white-noise", "ar", "ma", "arma", "random-walk",
                             "random-walk-drift", "var", "cointegrated-pair",
                             "intercept-break-ar"))
    sp.add_argument("--T", type=int, required=True)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--sigma2", type=float, default=1.0)
    sp.add_argument("--beta0", type=float, default=0.0)
    sp.add_argument("--betas", default=None)
    sp.add_argument("--alpha0", type=float, default=0.0)
    sp.add_argument("--alphas", default=None)
    sp.add_argument("--drift", type=float, default=0.0)
    sp.add_argument("--y0", type=float, default=0.0)
    sp.add_argument("--theta", type=float, default=1.0)
    sp.add_argument("--noise-ar", type=float, default=0.0)
    sp.add_argument("--endogeneity", type=float, default=0.0)
    sp.add_argument("--beta0-pre", type=float, default=0.0)
    sp.add_argument("--beta0-post", type=float, default=1.0)
    sp.add_argument("--break-frac", type=float, default=0.5)
    sp.add_argument("--delta", default=None)
    sp.add_argument("--a-matrices", default=None, help="JSON list of k x k matrices")
    sp.add_argument("--innovation-cov", default=None, help="JSON k x k matrix")
    sp.add_argument("--names", default=None)
    sp.add_argument("--burn-in", type=int, default=None)

    sp = _subcommand(sub, "mc-critical", _cmd_mc_critical,
                     "simulate null critical values", csv=False)
    sp.add_argument("--statistic", required=True, choices=_SIMULATED)
    sp.add_argument("--det", choices=("drift", "trend", "none"), default="drift")
    sp.add_argument("--lags", type=_lags, default="auto")
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--trim", type=float, default=0.15)
    sp.add_argument("--m", type=int, default=1, help="regressor count for egadf")
    sp.add_argument("--T-sim", type=int, default=500)
    sp.add_argument("--reps", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--levels", default="0.1,0.05,0.01")
    sp.add_argument("--out", default=None, help="critical-value file to create or update")

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        dataset = (ingest_csv(args.csv, decimal_comma=args.decimal_comma)
                   if "csv" in args else None)
        result, used, seed = args.handler(args, dataset)
        report = _envelope(args.command, argv, result, dataset, used, seed)
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False,
                     default=_jsonable))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
