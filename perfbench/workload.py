"""Inputs, set-up and timed phases of the tsecon benchmark.

Every run executes the same phases, each a closed loop in which one client
issues a call and waits for its result:

  setup  fresh processes that import tsecon, generate the inputs, load the
         packaged cache and run one warm-up pass, then exit
  cli    a scripted analyst session: one fresh `python -m tsecon.cli`
         process per command, on T = 500 CSV files written during set-up
  lib    warm in-process passes over a fixed mix of public calls at
         T = 100, 500 and 5000, plus pseudo_out_of_sample_rmsfe at T = 500
  mc     mc_critical_values at T_sim = 500 for ADF, QLR and EG-ADF with one
         worker, and the same ADF run again with two workers
  sp     size_power_suite at T = 100: ADF, EG-ADF, and ADF reading its
         critical values from a cache file

The phases are interleaved step by step over the run (see run_phases).  The
workload decides where the single-series tests of the cli and lib phases
take their critical values from (see WORKLOADS).  The mc and sp phases are the
same in both workloads apart from their seeds.

All inputs are drawn with numpy from the workload seed, independently of the
library's own simulators, so a change to tsecon.dgp does not change them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tsecon.cli
from tsecon import (
    AdfSpec,
    ArProcess,
    CointegratedPair,
    CriticalValueCache,
    RandomWalk,
    TimeSeries,
    adf_test,
    chow_test,
    default_cache,
    eg_adf_test,
    fit_ar,
    forecast_ar,
    granger_test,
    mc_critical_values,
    pseudo_out_of_sample_rmsfe,
    qlr_test,
    select_ar_order,
    size_power_suite,
)

HERE = Path(__file__).resolve().parent

# Whether the cli and lib phases name a critical-value file on every call.
# The packaged cache is parsed once per process and memoised; a named file is
# read and parsed again on every call.
WORKLOADS = {"packaged_cv": False, "cv_file": True}

CLI_T = 500
LIB_TS = (100, 500, 5000)
RMSFE_T = 500
MC_T = 500
SP_T = 100
SP_REPS = 25
CLI_TIMEOUT = 60

# Share of --seconds given to each phase, and the good samples each phase
# needs: three set-up probes, one whole cli session, enough lib rounds for a
# p90 with ten samples beyond it, three mc and three sp rounds.  The shares
# are sized so that each phase has its samples before the deadline at
# --seconds 60 on a 2-core machine where a cli call takes about 2 s, with
# 15-25% to spare; a phase that has not goes on after the deadline, and the
# detail line reports how long.
SHARES = {"setup": 0.12, "cli": 0.45, "lib": 0.24, "mc": 0.13, "sp": 0.06}
SETUP_MIN_PROBES = 3
LIB_MIN_ROUNDS = 100
MC_MIN_ROUNDS = 3
SP_MIN_ROUNDS = 3
# How long phases that still lack samples may run after the deadline.
TAIL_SECONDS = 60.0

ADF_PARAMS = {"deterministic": "drift", "lags": "auto"}
# The two-worker run is there for the gate (its quantiles must equal the
# one-worker run's).  Its throughput is reported by the traced run only, as
# a per-layer figure: it hangs on whether the host gives the second core.
MC_RUNS = (
    # metric suffix, statistic, params, reps, workers, chunk_size
    ("adf", "adf", ADF_PARAMS, 1000, 1, 1000),
    ("qlr", "qlr", {"p": 1, "trim": 0.15}, 1000, 1, 1000),
    ("egadf", "egadf", {"n_regressors": 2}, 1000, 1, 1000),
    ("adf_w2", "adf", ADF_PARAMS, 1000, 2, 500),
)
CHECK_LEVELS = (0.1, 0.05, 0.01)
BAND_SD = 6.0


def sp_specs():
    """The size_power_suite variants: (name, test, null, alternative, params, uses cv file)."""
    walk = RandomWalk()
    return (
        ("adf", "adf", walk, ArProcess(betas=(0.9,)), ADF_PARAMS, False),
        ("egadf", "egadf", {"y": walk, "x": walk}, CointegratedPair(theta=1.0, noise_ar=0.8),
         {"y": "y", "xs": ["x"]}, False),
        ("adf_cvfile", "adf", walk, ArProcess(betas=(0.9,)), ADF_PARAMS, True),
    )


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


# --- inputs --------------------------------------------------------------------


def _ar2(rng, T: int, burn: int = 200) -> np.ndarray:
    b1, b2 = rng.uniform(0.3, 0.6), rng.uniform(-0.3, 0.0)
    e = rng.standard_normal(T + burn)
    y = np.zeros(T + burn)
    for t in range(2, T + burn):
        y[t] = 1.0 + b1 * y[t - 1] + b2 * y[t - 2] + e[t]
    return y[burn:]


def _pair(rng, T: int) -> tuple[np.ndarray, np.ndarray]:
    theta = rng.uniform(1.0, 3.0)
    x = np.cumsum(rng.standard_normal(T))
    e = rng.standard_normal(T)
    z = np.empty(T)
    z[0] = e[0]
    for t in range(1, T):
        z[t] = 0.5 * z[t - 1] + e[t]
    return theta * x + z, x


def _var1(rng, T: int, burn: int = 100) -> np.ndarray:
    A = np.array([[0.5, rng.uniform(0.0, 0.3)], [rng.uniform(0.0, 0.3), 0.4]])
    e = rng.standard_normal((T + burn, 2))
    z = np.zeros((T + burn, 2))
    for t in range(1, T + burn):
        z[t] = A @ z[t - 1] + e[t]
    return z[burn:]


@dataclass
class Dataset:
    """One sample length's worth of library inputs."""

    ar: TimeSeries
    rw: TimeSeries
    y: TimeSeries
    x: TimeSeries
    var: dict


def make_dataset(seed: int, T: int) -> Dataset:
    rng = np.random.default_rng([seed, T])
    y, x = _pair(rng, T)
    z = _var1(rng, T)
    return Dataset(
        ar=TimeSeries(_ar2(rng, T), label="ar"),
        rw=TimeSeries(np.cumsum(rng.standard_normal(T)), label="rw"),
        y=TimeSeries(y, label="y"),
        x=TimeSeries(x, label="x"),
        var={"y1": TimeSeries(z[:, 0], label="y1"), "y2": TimeSeries(z[:, 1], label="y2")},
    )


def _write_csv(path: Path, columns: dict) -> None:
    names = list(columns)
    rows = zip(*(columns[n].values for n in names))
    with open(path, "w") as fh:
        fh.write(",".join(["t", *names]) + "\n")
        for i, row in enumerate(rows):
            fh.write(",".join([str(i), *(repr(float(v)) for v in row)]) + "\n")


def cli_session(workload: str) -> list[list[str]]:
    """The analyst's commands, run with the work directory as current directory."""
    cv = ["--cv-file", "cv.json"] if WORKLOADS[workload] else []
    return [
        ["describe", "series.csv", "--col", "ar"],
        ["select-lag", "series.csv", "--col", "ar", "--p-max", "8"],
        ["fit-ar", "series.csv", "--col", "ar", "--p", "2"],
        ["forecast", "series.csv", "--col", "ar", "--p", "2", "--horizon", "12"],
        ["adf", "series.csv", "--col", "ar", "--det", "drift", "--lags", "auto", *cv],
        ["chow", "series.csv", "--col", "ar", "--p", "1", "--tau", str(CLI_T // 2)],
        ["qlr", "series.csv", "--col", "ar", "--p", "1", "--trim", "0.15", *cv],
        ["coint", "pair.csv", "--y", "y", "--x", "x", *cv],
        ["dols", "pair.csv", "--y", "y", "--x", "x", "--p", "2"],
        ["fit-var", "var.csv", "--p", "2"],
        ["granger", "var.csv", "--cause", "y1", "--effect", "y2", "--p", "2"],
        ["integration-order", "series.csv", "--col", "rw", *cv],
    ]


# --- set-up --------------------------------------------------------------------


@dataclass
class Context:
    workload: str
    seed: int
    src: Path
    workdir: Path
    env: dict
    data: dict  # T -> Dataset
    cv_path: str
    lib_cv: str | None
    mc_seeds: list
    sp_seeds: list
    session: list
    expected: list = field(default_factory=list)  # report text per session command


def setup(workload: str, seed: int, src: Path, workdir: Path, env: dict) -> Context:
    """Generate every input, load the packaged cache and run one warm-up op."""
    workdir.mkdir(parents=True, exist_ok=True)
    data = {T: make_dataset(seed, T) for T in sorted({*LIB_TS, CLI_T, RMSFE_T})}
    cli_data = data[CLI_T]
    _write_csv(workdir / "series.csv", {"ar": cli_data.ar, "rw": cli_data.rw})
    _write_csv(workdir / "pair.csv", {"y": cli_data.y, "x": cli_data.x})
    _write_csv(workdir / "var.csv", cli_data.var)
    packaged = default_cache()
    cv_path = str(workdir / "cv.json")
    CriticalValueCache(packaged.entries.values(), generator=packaged.generator).save(cv_path)
    streams = np.random.SeedSequence(seed).generate_state(64, np.uint32)
    ctx = Context(
        workload=workload,
        seed=seed,
        src=src,
        workdir=workdir,
        env=env,
        data=data,
        cv_path=cv_path,
        lib_cv=cv_path if WORKLOADS[workload] else None,
        mc_seeds=[int(s) for s in streams[:32]],
        sp_seeds=[int(s) for s in streams[32:]],
        session=cli_session(workload),
    )
    lib_pass(ctx, LIB_TS[0])
    return ctx


def expected_reports(ctx: Context) -> list:
    """Each session command's report, produced in-process by tsecon.cli.main."""
    out = []
    here = os.getcwd()
    os.chdir(ctx.workdir)
    try:
        for argv in ctx.session:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = tsecon.cli.main(list(argv))
            if code != 0:
                raise RuntimeError(f"tsecon {' '.join(argv)} exited {code} in-process")
            out.append(buf.getvalue())
    finally:
        os.chdir(here)
    return out


# --- bookkeeping ---------------------------------------------------------------


class Tally:
    """Ops attempted and failed; a failed correctness check is a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {message}", file=sys.stderr)


def _span(rec, name):
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def run_phases(phases: dict, seconds: float, shares: dict = SHARES,
               tail_seconds: float = TAIL_SECONDS) -> tuple[dict, dict]:
    """Interleave the phases' steps for `seconds`; then, for at most
    `tail_seconds`, those of the phases that still lack samples.

    Each step goes to the phase that has used the smallest part of its share
    of the time, so slow and fast stretches of a shared machine fall on every
    metric alike.  Returns every phase's samples, and the seconds each phase
    ran before and after the deadline.
    """
    used = {k: [0.0, 0.0] for k in phases}  # seconds before, after the deadline
    end = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        late = now >= end
        pool = [k for k, p in phases.items() if not (late and p.ready())]
        if not pool or now >= end + tail_seconds:
            break
        key = min(pool, key=lambda k: sum(used[k]) / shares[k])
        phases[key].step()
        used[key][late] += time.perf_counter() - now
    samples = {}
    for p in phases.values():
        p.finish()
        samples.update(p.samples)
    return samples, {k: {"before": round(b, 3), "after": round(a, 3)}
                     for k, (b, a) in used.items()}


# --- set-up phase --------------------------------------------------------------


class SetupPhase:
    """Fresh processes that only set up (run.py --setup-probe), timed from spawn to exit."""

    def __init__(self, ctx: Context, tally: Tally):
        self.ctx, self.tally = ctx, tally
        self.samples = {"setup_s": []}

    def step(self) -> None:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", self.ctx.workload, "--seed", str(self.ctx.seed)]
        self.tally.op()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.ctx.src.parent, env=self.ctx.env,
                                  capture_output=True, timeout=CLI_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.tally.fail(f"set-up did not finish in {CLI_TIMEOUT} s")
            return
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            self.tally.fail(f"set-up exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
            return
        self.samples["setup_s"].append(elapsed)

    def ready(self) -> bool:
        return len(self.samples["setup_s"]) >= SETUP_MIN_PROBES

    def finish(self) -> None:
        pass


# --- cli phase -----------------------------------------------------------------


def cli_command(ctx: Context, argv, spans_path: str | None = None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "tsecon.cli", *argv]
    return [sys.executable, str(HERE / "cli_traced.py"), spans_path, *argv]


def cli_call(ctx: Context, i: int, tally: Tally, validator, spans_path=None):
    """Run session command i in a fresh process; return its wall time or None."""
    argv = ctx.session[i]
    name = f"tsecon {' '.join(argv)}"
    tally.op()
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cli_command(ctx, argv, spans_path), cwd=ctx.workdir, env=ctx.env,
                              capture_output=True, timeout=CLI_TIMEOUT)
    except subprocess.TimeoutExpired:
        tally.fail(f"{name} did not finish in {CLI_TIMEOUT} s")
        return None
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        tally.fail(f"{name} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
        return None
    text = proc.stdout.decode("utf-8")
    if text != ctx.expected[i]:
        tally.fail(f"{name} report differs from the in-process report")
        return None
    errors = sorted(validator.iter_errors(json.loads(text)), key=str)
    if errors:
        tally.fail(f"{name} report violates the schema: {errors[0].message}")
        return None
    return elapsed


class CliPhase:
    """The session's commands in order, one per step; ready after one whole session."""

    def __init__(self, ctx: Context, tally: Tally, validator):
        self.ctx, self.tally, self.validator = ctx, tally, validator
        self.calls = 0
        self.samples = {"cli_call_s": []}

    def step(self) -> None:
        i = self.calls % len(self.ctx.session)
        self.calls += 1
        elapsed = cli_call(self.ctx, i, self.tally, self.validator)
        if elapsed is not None:
            self.samples["cli_call_s"].append(elapsed)

    def ready(self) -> bool:
        return len(self.samples["cli_call_s"]) >= len(self.ctx.session)

    def finish(self) -> None:
        pass


# --- lib phase -----------------------------------------------------------------


def lib_pass(ctx: Context, T: int, rec=None) -> tuple:
    """One pass over the public-call mix; returns every number it produced."""
    d = ctx.data[T]
    cv = ctx.lib_cv
    out = []
    with _span(rec, "lib.adf_auto"):
        r = adf_test(d.ar, AdfSpec(lags="auto", deterministic="drift"), cv_source=cv)
    out += [r.statistic, r.critical_values[0.05]]
    with _span(rec, "lib.adf_trend0"):
        r = adf_test(d.rw, AdfSpec(lags=0, deterministic="trend"), cv_source=cv)
    out += [r.statistic, r.critical_values[0.05]]
    with _span(rec, "lib.qlr"):
        r = qlr_test(d.ar, p=1, cv_source=cv)
    out += [r.statistic, r.critical_values[0.05]]
    with _span(rec, "lib.chow"):
        r = chow_test(d.ar, p=1, tau=T // 2)
    out.append(r.statistic)
    with _span(rec, "lib.eg_adf"):
        r = eg_adf_test(d.y, [d.x], cv_source=cv)
    out += [r.eg_adf.statistic, r.eg_adf.critical_values[0.05], *r.theta]
    with _span(rec, "lib.select_ar_order"):
        r = select_ar_order(d.ar, p_max=8)
    out += [float(r.chosen_p), r.value(r.chosen_p)]
    with _span(rec, "lib.fit_forecast_ar"):
        fc = forecast_ar(fit_ar(d.ar, 2), d.ar, 12)
    out += list(fc.point_forecasts)
    with _span(rec, "lib.granger"):
        r = granger_test(d.var, cause="y1", effect="y2", p=2)
    out.append(r.statistic)
    return tuple(float(v) for v in out)


LIB_OPS_PER_PASS = 8


class LibPhase:
    """One step is a round: a pass at each sample length and one
    pseudo_out_of_sample_rmsfe call.  Every output must be finite and
    bit-identical to the first pass's."""

    def __init__(self, ctx: Context, tally: Tally, rec=None, min_rounds: int = LIB_MIN_ROUNDS):
        self.ctx, self.tally, self.rec, self.min_rounds = ctx, tally, rec, min_rounds
        self.first: dict = {}
        self.samples = {f"lib_pass_ms.T{T}": [] for T in LIB_TS}
        self.samples["lib_rmsfe_ms"] = []

    def _timed(self, key: str, span: str, fn) -> None:
        self.tally.op()
        try:
            with _span(self.rec, span):
                t0 = time.perf_counter()
                result = fn()
                elapsed = (time.perf_counter() - t0) * 1e3
        except Exception as exc:  # a raising public call is a failed op; the run goes on
            self.tally.fail(f"{key}: {exc!r}")
            return
        if not all(math.isfinite(v) for v in result):
            self.tally.fail(f"{key}: non-finite output")
        elif self.first.setdefault(key, result) != result:
            self.tally.fail(f"{key}: output differs from the first pass")
        else:
            self.samples[key].append(elapsed)

    def step(self) -> None:
        for T in LIB_TS:
            self._timed(f"lib_pass_ms.T{T}", f"pass.T{T}", lambda: lib_pass(self.ctx, T, self.rec))
        series = self.ctx.data[RMSFE_T].ar
        self._timed("lib_rmsfe_ms", "lib.rmsfe",
                    lambda: (pseudo_out_of_sample_rmsfe(series, 2, 0.5),))

    def ready(self) -> bool:
        return min(map(len, self.samples.values())) >= self.min_rounds

    def finish(self) -> None:
        pass


# --- mc phase ------------------------------------------------------------------


def band_levels(reps: int) -> dict:
    """For each checked level, the band (lo, hi) of levels 6 binomial sd around it."""
    out = {}
    for lv in CHECK_LEVELS:
        sd = math.sqrt(lv * (1.0 - lv) / reps)
        out[lv] = (round(lv - BAND_SD * sd, 6), round(lv + BAND_SD * sd, 6))
    return out


def mc_levels(reps: int) -> tuple:
    levels = set(CHECK_LEVELS)
    for lo, hi in band_levels(reps).values():
        levels.update(v for v in (lo, hi) if 0.0 < v < 1.0)
    return tuple(sorted(levels))


def check_quantiles(run, reference: dict) -> list[str]:
    """Reference critical values must lie between the simulated quantiles at the band edges.

    The band is distribution-free: the empirical quantile at level lv is
    within Monte Carlo error of the true one when the true one lies between
    the empirical quantiles at lv -/+ 6 binomial standard deviations.
    """
    problems = []
    extreme = run.summary["min"] if run.tail == "left" else run.summary["max"]
    for lv, (lo, hi) in band_levels(run.reps).items():
        a = run.quantiles[lo] if lo > 0 else extreme
        b = run.quantiles[hi]
        ref = reference[f"{lv:g}"]
        if not min(a, b) <= ref <= max(a, b):
            problems.append(f"level {lv:g}: reference {ref} outside [{min(a, b)}, {max(a, b)}]")
    return problems


class McPhase:
    """One step is one mc_critical_values call; a round runs every spec on one seed.

    Quantiles must lie within Monte Carlo error of the reference, and the
    two-worker run must equal the one-worker run of the same seed exactly.
    """

    def __init__(self, ctx: Context, tally: Tally, rec=None, specs=MC_RUNS):
        self.ctx, self.tally, self.rec, self.specs = ctx, tally, rec, specs
        self.reference = load_reference()["mc_quantiles"]
        self.calls = 0
        self.round: dict = {}
        self.samples = {f"mc_reps_per_s.{s[0]}": [] for s in specs}

    def step(self) -> None:
        rounds, i = divmod(self.calls, len(self.specs))
        self.calls += 1
        if i == 0:
            self.round = {}
        key, statistic, params, reps, workers, chunk = self.specs[i]
        seed = self.ctx.mc_seeds[rounds % len(self.ctx.mc_seeds)]
        self.tally.op()
        try:
            with _span(self.rec, f"mc.{key}"):
                t0 = time.perf_counter()
                run = mc_critical_values(statistic, params, MC_T, reps, seed,
                                         levels=mc_levels(reps), workers=workers,
                                         chunk_size=chunk)
                elapsed = time.perf_counter() - t0
        except Exception as exc:
            self.tally.fail(f"mc {key}: {exc!r}")
            return
        problems = check_quantiles(run, self.reference[statistic])
        base, base_workers = self.round.setdefault(statistic, (run, workers))
        if (base.quantiles, base.summary) != (run.quantiles, run.summary):
            problems.append(f"{workers} workers give other quantiles than {base_workers}")
        if problems:
            self.tally.fail(f"mc {key} seed {seed}: " + "; ".join(problems))
            return
        self.samples[f"mc_reps_per_s.{key}"].append((reps, elapsed))

    def ready(self) -> bool:
        return min(map(len, self.samples.values())) >= MC_MIN_ROUNDS

    def finish(self) -> None:
        pass


# --- sp phase ------------------------------------------------------------------


def band(count: int, n: int, rate: float, n_ref: int) -> bool:
    """count of n within 6 binomial sd (+1) of a reference rate measured on n_ref draws."""
    p = min(max(rate, 1.0 / n_ref), 1.0 - 1.0 / n_ref)
    return abs(count - p * n) <= BAND_SD * math.sqrt(n * p * (1.0 - p)) + 1.0


class SpPhase:
    """One step is one size_power_suite call; a round runs every variant on one seed.

    Round 1 repeats round 0's seed: its counts must repeat exactly.  The
    cache-file variant must give the packaged-cache variant's counts.  At
    the end, the counts of the other rounds must lie in a binomial band
    around the rates recorded in reference.json.
    """

    def __init__(self, ctx: Context, tally: Tally, rec=None):
        self.ctx, self.tally, self.rec = ctx, tally, rec
        self.specs = sp_specs()
        self.reference = load_reference()["size_power"]
        self.calls = 0
        self.first: dict = {}
        self.round: dict = {}
        self.totals = {s[0]: [0, 0, 0] for s in self.specs}  # null hits, alt hits, reps
        self.samples = {f"sp_reps_per_s.{s[0]}": [] for s in self.specs}

    def step(self) -> None:
        rounds, i = divmod(self.calls, len(self.specs))
        self.calls += 1
        if i == 0:
            self.round = {}
        key, test, null, alt, params, use_file = self.specs[i]
        seed = self.ctx.sp_seeds[0 if rounds == 1 else rounds % len(self.ctx.sp_seeds)]
        self.tally.op()
        try:
            with _span(self.rec, f"sp.{key}"):
                t0 = time.perf_counter()
                res = size_power_suite(test, null, alt, SP_REPS, T=SP_T, seed=seed,
                                       cv_source=self.ctx.cv_path if use_file else None,
                                       params=params)
                elapsed = time.perf_counter() - t0
        except Exception as exc:
            self.tally.fail(f"sp {key}: {exc!r}")
            return
        pair = (res.null_rejections, res.alt_rejections)
        if rounds == 1 and self.first.get(key) != pair:
            self.tally.fail(f"sp {key}: counts {pair} do not repeat {self.first.get(key)}")
            return
        if use_file and self.round.get(test, pair) != pair:
            self.tally.fail(f"sp {key}: counts {pair} differ from the packaged-cache run")
            return
        self.round.setdefault(test, pair)
        self.first.setdefault(key, pair)
        if rounds != 1:
            t = self.totals[key]
            t[0], t[1], t[2] = t[0] + pair[0], t[1] + pair[1], t[2] + SP_REPS
        self.samples[f"sp_reps_per_s.{key}"].append((SP_REPS, elapsed))

    def ready(self) -> bool:
        return min(map(len, self.samples.values())) >= SP_MIN_ROUNDS

    def finish(self) -> None:
        for key, (null_hits, alt_hits, n) in self.totals.items():
            r = self.reference["adf" if key == "adf_cvfile" else key]
            self.tally.op()
            if n and not (band(null_hits, n, r["null_rate"], r["reps"])
                          and band(alt_hits, n, r["alt_rate"], r["reps"])):
                self.tally.fail(
                    f"sp {key}: {null_hits}/{n} null and {alt_hits}/{n} alternative rejections "
                    f"outside the band around {r['null_rate']}, {r['alt_rate']}")
