"""Monte Carlo engine: null-distribution critical values and size/power studies.

Critical values come from simulating a statistic's null data-generating
process many times and reading empirical quantiles off the sorted draws.
Each replication gets its own generator stream derived from (seed, index),
so results are identical no matter how replications are batched across
workers; sorting before quantile extraction removes the remaining order
dependence.

`_STATISTICS` below is the one list of tests: each entry gives the public
report call size/power studies run and, for the statistics that can be
simulated, their parameters, tail, null process and block evaluator.

A block evaluator runs a public test's own statistic on an (R, T) block of
paths: `unitroot.adf_block_statistic` for ADF,
`cointegration.eg_adf_block_statistic` for EG-ADF and `breaks.chow_f_scan`
for QLR.  `mc-critical` chunks evaluate their null paths with it, and so do
size/power studies, which run the full public test on the first replication
of each chunk and branch only: that call validates the data, warns, resolves
the critical values and gives the tail, and the block statistics of the
other replications are decided against its critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .breaks import chow_f_scan, chow_test, qlr_test, qlr_window
from .cointegration import eg_adf_block_statistic, eg_adf_test
from .cvcache import CvEntry
from .dgp import GENERATOR_NAME, RandomWalk, WhiteNoise, rng_for, sample_values, simulate
from .errors import DomainError
from .report import DEFAULT_LEVELS
from .series import TimeSeries
from .unitroot import _FIXED_COLUMNS, AdfSpec, adf_block_statistic, adf_test
from .varmodel import granger_test

__all__ = ["McRun", "mc_critical_values", "SizePower", "size_power_suite"]


# --- block evaluators and null chunks -----------------------------------------


def _null_paths(template, T: int, seed: int, start: int, stop: int, columns: int = 1):
    """Null sample paths of replications start..stop-1, shape (R, T, columns).

    Replication i draws its columns in order from its own stream rng_for(seed, i).
    """
    paths = np.empty((stop - start, T, columns))
    for i in range(stop - start):
        rng = rng_for(seed, start + i)
        for c in range(columns):
            paths[i, :, c] = sample_values(template, T, rng)
    return paths


def _adf_block(parsed, paths: np.ndarray) -> np.ndarray:
    deterministic, lags = parsed
    return adf_block_statistic(paths, deterministic, lags)


def _qlr_block(parsed, paths: np.ndarray) -> np.ndarray:
    """QLR statistics of an (R, T) block, failing as `qlr_test` does."""
    p, trim = parsed
    try:
        F = chow_f_scan(paths, p, qlr_window(paths.shape[1], p, trim))
    except np.linalg.LinAlgError:
        raise DomainError("collinear regressors inside the break scan") from None
    if not np.all(np.isfinite(F)):
        raise DomainError("degenerate residual variance inside the break scan")
    return F.max(axis=1)


def _egadf_block(parsed, paths: np.ndarray) -> np.ndarray:
    return eg_adf_block_statistic(paths)


def _adf_chunk(parsed, T: int, seed: int, start: int, stop: int) -> np.ndarray:
    return _adf_block(parsed, _null_paths(RandomWalk(), T, seed, start, stop)[:, :, 0])


def _qlr_chunk(parsed, T: int, seed: int, start: int, stop: int) -> np.ndarray:
    return _qlr_block(parsed, _null_paths(WhiteNoise(), T, seed, start, stop)[:, :, 0])


def _egadf_chunk(parsed, T: int, seed: int, start: int, stop: int) -> np.ndarray:
    m = parsed
    return _egadf_block(m, _null_paths(RandomWalk(), T, seed, start, stop, columns=m + 1))


# --- parameters and public report calls ---------------------------------------

_REQUIRED = object()


def _take(statistic: str, params, **defaults) -> list:
    """Values of the named parameters, in order, with defaults; rejects any others."""
    params = dict(params or {})
    values = []
    for name, default in defaults.items():
        if name in params:
            values.append(params.pop(name))
        elif default is _REQUIRED:
            raise DomainError(f"{statistic} requires parameter {name!r}")
        else:
            values.append(default)
    if params:
        raise DomainError(f"unknown {statistic} parameters: {sorted(params)}")
    return values


def _number(statistic: str, name: str, value, integer: bool = False):
    """A parameter value as a float, or as an int when `integer`; rejects anything else."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise DomainError(
            f"{statistic} parameter {name!r} must be a number, got {value!r}"
        ) from None
    if not integer:
        return x
    if not x.is_integer():
        raise DomainError(f"{statistic} parameter {name!r} must be an integer, got {value!r}")
    return int(x)


def _adf_params(params):
    deterministic, lags = _take("adf", params, deterministic="drift", lags="auto")
    if deterministic not in _FIXED_COLUMNS:
        raise DomainError(f"deterministic must be one of {sorted(_FIXED_COLUMNS)}")
    if lags != "auto":
        lags = _number("adf", "lags", lags, integer=True)
        if lags < 0:
            raise DomainError("lags must be nonnegative or 'auto'")
    return {"deterministic": deterministic, "lags": lags}, (deterministic, lags)


def _qlr_params(params):
    p, trim = _take("qlr", params, p=_REQUIRED, trim=0.15)
    p, trim = _number("qlr", "p", p, integer=True), _number("qlr", "trim", trim)
    if p < 1:
        raise DomainError("p must be a positive integer")
    if not 0.0 < trim < 0.5:
        raise DomainError("trim must lie strictly between 0 and 0.5")
    return {"p": p, "trim": f"{trim:g}"}, (p, trim)


def _egadf_params(params):
    (m,) = _take("egadf", params, n_regressors=_REQUIRED)
    m = _number("egadf", "n_regressors", m, integer=True)
    if m < 1:
        raise DomainError("n_regressors must be a positive integer")
    return {"n_regressors": m}, m


# Each report call takes the arguments its `_*_args` parser returned, so
# size/power studies validate their params once, before any simulation.


def _adf_args(params) -> AdfSpec:
    deterministic, lags = _adf_params(params)[1]
    return AdfSpec(lags=lags, deterministic=deterministic)


def _adf_report(data, cv_source, spec: AdfSpec):
    return adf_test(data, spec, cv_source=cv_source)


def _qlr_args(params):
    return _qlr_params(params)[1]


def _qlr_report(data, cv_source, args):
    p, trim = args
    return qlr_test(data, p=p, trim=trim, cv_source=cv_source)


def _chow_args(params):
    p, tau = _take("chow", params, p=_REQUIRED, tau=_REQUIRED)
    return _number("chow", "p", p, integer=True), _number("chow", "tau", tau, integer=True)


def _chow_report(data, cv_source, args):
    p, tau = args
    return chow_test(data, p=p, tau=tau)


def _granger_args(params):
    cause, effect, p = _take("granger", params, cause=_REQUIRED, effect=_REQUIRED, p=_REQUIRED)
    return cause, effect, _number("granger", "p", p, integer=True)


def _granger_report(data, cv_source, args):
    cause, effect, p = args
    return granger_test(data, cause=cause, effect=effect, p=p)


def _egadf_args(params):
    y, xs = _take("egadf", params, y="y", xs=("x",))
    if isinstance(xs, str):
        raise DomainError(f"egadf parameter 'xs' must be a list of series names, got {xs!r}")
    return y, tuple(xs)


def _egadf_report(data, cv_source, args):
    y, xs = args
    for nm in (y, *xs):
        if nm not in data:
            raise DomainError(f"data is missing series {nm!r}")
    # eg_adf is None for an exact relation
    return eg_adf_test(data[y], [data[nm] for nm in xs], cv_source=cv_source).eg_adf


# Each `_*_rows` turns drawn replications into the block evaluator's input.


def _adf_rows(spec: AdfSpec, rows):
    return (spec.deterministic, spec.lags), np.stack([data.values for data in rows])


def _qlr_rows(args, rows):
    return args, np.stack([data.values for data in rows])


def _egadf_rows(args, rows):
    y, xs = args
    columns = (y, *xs)
    return len(xs), np.stack([np.column_stack([data[nm].values for nm in columns])
                              for data in rows])


# --- the registry -------------------------------------------------------------


@dataclass(frozen=True)
class _Statistic:
    """Everything the engine and the CLI need to know about one test.

      args    size/power params -> the report call's validated arguments
      report  (data, cv_source, args) -> TestReport, None meaning reject

    Only simulated statistics have the rest:
      parse   params -> (canonical cache params, `parsed`)
      chunk   (parsed, T, seed, start, stop) -> statistics of those null replications
      flags   (mc-critical option dest, parameter name) pairs
      block   (parsed, paths) -> the report's statistic for every path of a block
      rows    (args, drawn data of several replications) -> (parsed, paths)
    """

    tail: str
    args: Callable
    report: Callable
    null_dgp: str = ""
    parse: Callable | None = None
    chunk: Callable | None = None
    flags: tuple = ()
    block: Callable | None = None
    rows: Callable | None = None


_STATISTICS = {
    "adf": _Statistic(
        "left", _adf_args, _adf_report, "driftless standard Gaussian random walk",
        _adf_params, _adf_chunk, (("det", "deterministic"), ("lags", "lags")),
        _adf_block, _adf_rows,
    ),
    "qlr": _Statistic(
        "right", _qlr_args, _qlr_report, "Gaussian white noise",
        _qlr_params, _qlr_chunk, (("p", "p"), ("trim", "trim")),
        _qlr_block, _qlr_rows,
    ),
    "chow": _Statistic("right", _chow_args, _chow_report),
    "granger": _Statistic("right", _granger_args, _granger_report),
    "egadf": _Statistic(
        "left", _egadf_args, _egadf_report, "independent driftless Gaussian random walks",
        _egadf_params, _egadf_chunk, (("m", "n_regressors"),),
        _egadf_block, _egadf_rows,
    ),
}
_SIMULATED = tuple(name for name, s in _STATISTICS.items() if s.chunk is not None)


def _lookup(name: str, names, noun: str) -> _Statistic:
    if name not in names:
        raise DomainError(f"unknown {noun} {name!r}; choose from {', '.join(names)}")
    return _STATISTICS[name]


# --- scheduling ---------------------------------------------------------------


def _check_schedule(workers, chunk_size) -> None:
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise DomainError("workers must be a positive integer")
    if not isinstance(chunk_size, (int, np.integer)) or chunk_size < 1:
        raise DomainError("chunk_size must be a positive integer")


def _chunk_bounds(total: int, chunk_size: int, workers: int) -> list:
    """Consecutive (start, stop) chunks of range(total), each at most chunk_size long.

    With several workers a chunk is also at most ceil(total / workers) long,
    so that a chunk size above that share still gives every worker a chunk.
    """
    if workers > 1:
        chunk_size = min(chunk_size, -(-total // workers))
    return [(s, min(s + chunk_size, total)) for s in range(0, total, chunk_size)]


def _fan_out(fn, args: tuple, total: int, chunk_size: int, workers: int) -> list:
    """[fn(*args, start, stop)] over the chunks of `_chunk_bounds`, in order."""
    bounds = _chunk_bounds(total, chunk_size, workers)
    if workers == 1:
        return [fn(*args, a, b) for a, b in bounds]
    # imported here, so that single-worker runs and CLI start-up do not pay for it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=int(workers)) as pool:
        futures = [pool.submit(fn, *args, a, b) for a, b in bounds]
        return [f.result() for f in futures]


# --- critical values ----------------------------------------------------------


@dataclass(frozen=True)
class McRun:
    """Empirical null quantiles of a simulated statistic."""

    statistic: str
    params: dict
    tail: str
    T_sim: int
    reps: int
    seed: int
    levels: tuple
    quantiles: dict
    summary: dict
    null_dgp: str
    generator: str = GENERATOR_NAME

    def to_entry(self) -> CvEntry:
        return CvEntry(
            statistic=self.statistic,
            params=dict(self.params),
            tail=self.tail,
            quantiles=dict(self.quantiles),
            provenance={
                "kind": "monte_carlo",
                "seed": self.seed,
                "reps": self.reps,
                "T_sim": self.T_sim,
                "null_dgp": self.null_dgp,
            },
            summary=dict(self.summary),
        )


def mc_critical_values(
    statistic: str,
    params: Mapping,
    T_sim: int,
    reps: int,
    seed: int,
    levels=DEFAULT_LEVELS,
    workers: int = 1,
    chunk_size: int = 2000,
) -> McRun:
    """Simulate a statistic under its null and report empirical critical values.

    Left-tail statistics report the `level` quantile, right-tail ones the
    `1 - level` quantile.  Given the same seed, the result is independent
    of `workers` and `chunk_size`.
    """
    if not isinstance(reps, (int, np.integer)) or reps < 1000:
        raise DomainError("published critical values need at least 1,000 replications")
    if not isinstance(T_sim, (int, np.integer)) or T_sim < 25:
        raise DomainError("simulation length must be at least 25")
    _check_schedule(workers, chunk_size)
    levels = tuple(float(lv) for lv in levels)
    for lv in levels:
        if not 0.0 < lv < 1.0:
            raise DomainError("levels must lie strictly between 0 and 1")
    entry = _lookup(statistic, _SIMULATED, "statistic kind")
    canon, parsed = entry.parse(params)
    blocks = _fan_out(entry.chunk, (parsed, int(T_sim), int(seed)), int(reps), chunk_size, workers)
    stats = np.sort(np.concatenate(blocks))
    quantiles = {
        lv: float(np.quantile(stats, lv if entry.tail == "left" else 1.0 - lv))
        for lv in levels
    }
    # exactly rounded sums, so the summary does not depend on how numpy
    # vectorises its own summation on this machine
    mean = math.fsum(stats) / stats.size
    summary = {
        "count": int(reps),
        "mean": mean,
        "sd": math.sqrt(math.fsum((stats - mean) ** 2) / (stats.size - 1)),
        "min": float(stats[0]),
        "max": float(stats[-1]),
    }
    return McRun(
        statistic=statistic,
        params=canon,
        tail=entry.tail,
        T_sim=int(T_sim),
        reps=int(reps),
        seed=int(seed),
        levels=levels,
        quantiles=quantiles,
        summary=summary,
        null_dgp=entry.null_dgp,
    )


# --- size and power -----------------------------------------------------------


def _derived_seed(master: int, key: tuple) -> int:
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=tuple(int(v) for v in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _draw(spec, T: int, master: int, branch: int, index: int):
    """Simulate one replication, reseeding the spec deterministically.

    A mapping of name -> scalar spec yields independent series relabeled
    by their keys (for multivariate tests whose null is independence).
    """
    if isinstance(spec, Mapping):
        out = {}
        for j, (nm, sub) in enumerate(spec.items()):
            sim = simulate(replace(sub, seed=_derived_seed(master, (branch, index, j))), T)
            if not isinstance(sim, TimeSeries):
                raise DomainError("mapping entries must be scalar process specs")
            out[nm] = TimeSeries(sim.values, label=nm)
        return out
    return simulate(replace(spec, seed=_derived_seed(master, (branch, index))), T)


def _rejections(entry: _Statistic, rows: list, level: float, cv_source, args) -> int:
    """How many of one branch's drawn replications the public test rejects at `level`.

    The public report call runs on the first replication; with a block
    evaluator the rest are decided on their block statistics against its
    critical value, strictly as `report.decide` does.  Without one, or while
    the report is None, the next replication goes through the public call too.
    A path the public test refuses (a degenerate design) is caught only where
    it comes first; the processes draw Gaussian noise, so a degenerate path
    comes from a degenerate process, whose every path is.
    """
    hits = 0
    for first, data in enumerate(rows):
        report = entry.report(data, cv_source, args)
        # no report means an exact relation: the strongest possible rejection
        hits += report is None or report.decision[level] == "reject"
        if report is not None and entry.block is not None:
            break
    else:
        return hits
    rest = rows[first + 1 :]
    if not rest:
        return hits
    stats = entry.block(*entry.rows(args, rest))
    cv = report.critical_values[level]
    rejected = stats < cv if entry.tail == "left" else stats > cv
    return hits + int(np.count_nonzero(rejected))


def _rejection_counts(test, null_spec, alt_spec, T, master, level, cv_source, args, start, stop):
    entry = _STATISTICS[test]
    return tuple(
        _rejections(entry, [_draw(spec, T, master, branch, i) for i in range(start, stop)],
                    level, cv_source, args)
        for branch, spec in enumerate((null_spec, alt_spec))
    )


@dataclass(frozen=True)
class SizePower:
    """Empirical rejection rates under a null and an alternative DGP."""

    test: str
    size: float
    power: float
    reps: int
    level: float
    T: int
    null_rejections: int
    alt_rejections: int


def size_power_suite(
    test: str,
    null_spec,
    alt_spec,
    reps: int,
    level: float = 0.05,
    T: int = 500,
    seed: int = 0,
    cv_source=None,
    params: Mapping | None = None,
    workers: int = 1,
    chunk_size: int = 500,
) -> SizePower:
    """Rejection rate of a public test under two data-generating processes.

    size is the null rejection rate, power the alternative one, at the
    requested level.  Each chunk draws its null replications, then its
    alternative ones, from the same per-replication seeds whatever the
    schedule.  For chow and granger every replication runs the full public
    test.  For the simulated statistics the first replication of each chunk
    and branch does: that call checks the data, warns, and resolves the
    critical value and tail through the test's own module, so the cache is
    read once per chunk and branch.  The other replications are decided on
    the registry's block evaluator, the code `mc_critical_values` runs, which
    gives the public statistic of every row of a block at once.
    """
    if not isinstance(reps, (int, np.integer)) or reps < 1:
        raise DomainError("reps must be a positive integer")
    _check_schedule(workers, chunk_size)
    entry = _lookup(test, tuple(_STATISTICS), "test")
    # every report decides at DEFAULT_LEVELS
    if float(level) not in DEFAULT_LEVELS:
        raise DomainError(f"level {level} not among computed levels {sorted(DEFAULT_LEVELS)}")
    args = (test, null_spec, alt_spec, int(T), int(seed), float(level), cv_source,
            entry.args(params))
    counts = _fan_out(_rejection_counts, args, int(reps), chunk_size, workers)
    null_hits = sum(c[0] for c in counts)
    alt_hits = sum(c[1] for c in counts)
    return SizePower(
        test=test,
        size=null_hits / reps,
        power=alt_hits / reps,
        reps=int(reps),
        level=float(level),
        T=int(T),
        null_rejections=int(null_hits),
        alt_rejections=int(alt_hits),
    )
