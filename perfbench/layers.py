"""The traced run: per-layer metrics from spans and `python -X importtime`.

Each phase runs an untraced and a traced copy, interleaved step by step, and
the ratio of their timings is reported as that phase's tracing overhead.  Spans
come from rebinding library functions where the calling module imported them;
nothing in the library is edited.  The traced run uses one worker.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time

import tsecon.armodel
import tsecon.breaks
import tsecon.cointegration
import tsecon.cvcache
import tsecon.lagselect
import tsecon.montecarlo
import tsecon.ols
import tsecon.unitroot
import tsecon.varmodel

import spans as sp
import workload as wl
from stats import median, throughput

IMPORT_RUNS = 3
CLI_OVERHEAD_COMMANDS = 4
TRACE_LIB_MIN_ROUNDS = 20
# Shares of the traced run's in-process phases, each split between its
# untraced and its traced copy; sized like workload.SHARES.
TRACE_SHARES = {"lib": 0.3, "mc": 0.58, "sp": 0.12}


def _cache_span(args, kwargs) -> str:
    source = args[0] if args else kwargs.get("cv_source")
    return "cvcache.load" if isinstance(source, str) else "cvcache.resolve"


def install(rec: sp.Recorder) -> None:
    mc, ur, ols = tsecon.montecarlo, tsecon.unitroot, tsecon.ols
    rec.wrap(mc, "rng_for", "dgp.rng_for")
    rec.wrap(mc, "sample_values", "dgp.sample_values")
    rec.wrap(mc, "chow_f_scan", "breaks.chow_f_scan")
    rec.wrap(mc, "simulate", "dgp.simulate")
    rec.wrap(mc, "adf_test", "unitroot.adf_test")
    rec.wrap(mc, "eg_adf_test", "cointegration.eg_adf_test")
    for mod in (ur, tsecon.lagselect, ols):
        rec.wrap(mod, "solve_ols", "ols.solve_ols")
    for mod in (ur, ols):
        rec.wrap(mod, "build_design", "ols.build_design")
    rec.wrap(ur, "select_adf_lags", "unitroot.select_adf_lags")
    rec.wrap(tsecon.armodel, "fit_ar", "armodel.fit_ar")
    for mod in (ur, tsecon.breaks, tsecon.cointegration):
        rec.wrap(mod, "default_cache", _cache_span)
    for mod in (ur, tsecon.breaks, tsecon.cointegration, tsecon.varmodel):
        rec.wrap(mod, "make_test_report", "report.make_test_report")
    rec.wrap(tsecon.cvcache.CriticalValueCache, "critical_values", "cvcache.critical_values")


# --- import layer --------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_breakdown(text: str, prefixes) -> dict:
    """Cumulative seconds per prefix, summed over its outermost matching entries.

    `python -X importtime` prints an entry after its children, indented one
    level deeper per nesting level, so an entry's ancestors are the later
    lines with smaller indentation.
    """
    entries = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    totals = {p: 0 for p in prefixes}
    ancestors: list[tuple[int, str]] = []
    for indent, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        for p in prefixes:
            if _matches(name, p) and not any(_matches(a, p) for _, a in ancestors):
                totals[p] += cumulative
        ancestors.append((indent, name))
    return {p: us / 1e6 for p, us in totals.items()}


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def import_layer(ctx: wl.Context, tally: wl.Tally) -> dict:
    prefixes = ("tsecon", "scipy.stats", "scipy.signal")
    runs = []
    for _ in range(IMPORT_RUNS):
        tally.op()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tsecon.cli"],
                              cwd=ctx.workdir, env=ctx.env, capture_output=True, text=True)
        if proc.returncode != 0:
            tally.fail(f"import tsecon.cli exited {proc.returncode}: {proc.stderr[-400:]}")
            continue
        runs.append(import_breakdown(proc.stderr, prefixes))
    return {
        "layer.import.tsecon_s": median([r["tsecon"] for r in runs]),
        "layer.import.scipy_stats_s": median([r["scipy.stats"] for r in runs]),
        "layer.import.scipy_signal_s": median([r["scipy.signal"] for r in runs]),
    }


# --- cli layer -----------------------------------------------------------------


def cli_layer(ctx: wl.Context, tally: wl.Tally, validator) -> dict:
    ingest, main_self, fit_var, traced, untraced = [], [], [], {}, {}
    for i in range(len(ctx.session)):
        if i < CLI_OVERHEAD_COMMANDS:
            elapsed = wl.cli_call(ctx, i, tally, validator)
            if elapsed is not None:
                untraced[i] = elapsed
        path = str(ctx.workdir / f"spans-cli-{i}.json")
        elapsed = wl.cli_call(ctx, i, tally, validator, spans_path=path)
        if elapsed is None:
            continue
        traced[i] = elapsed
        spans = sp.load(path)
        selfs = sp.self_times(spans)
        for s, self_ns in zip(spans, selfs):
            if s.name == "cli.ingest_csv":
                ingest.append((s.end - s.start) / 1e6)
            elif s.name == "cli.main":
                main_self.append(self_ns / 1e6)
            elif s.name == "compute.fit_var":
                fit_var.append((s.end - s.start) / 1e6)
    both = sorted(set(traced) & set(untraced))
    return {
        "layer.cli.ingest_csv_ms": median(ingest),
        "layer.cli.main_self_ms": median(main_self),
        "layer.varmodel.fit_var_ms": median(fit_var),
        "trace.overhead.cli": median([traced[i] for i in both])
        / median([untraced[i] for i in both]),
    }


# --- in-process layers ---------------------------------------------------------


class Tree:
    """Spans grouped under the benchmark's own root spans (one per op)."""

    def __init__(self, spans):
        self.spans = spans
        self.selfs = sp.self_times(spans)
        self.roots = {}  # root index -> list of descendant indices
        for i in range(len(spans)):
            r = sp.root_of(spans, i)
            self.roots.setdefault(r, [])
            if r != i:
                self.roots[r].append(i)

    def roots_named(self, prefix: str) -> list[int]:
        return [r for r in self.roots if _matches(self.spans[r].name, prefix)]

    def under(self, prefix: str, name: str) -> list[int]:
        return [i for r in self.roots_named(prefix) for i in self.roots[r]
                if self.spans[i].name == name]

    def dur(self, idx) -> list[float]:
        return [(self.spans[i].end - self.spans[i].start) / 1e9 for i in idx]

    def self_s(self, idx) -> list[float]:
        return [self.selfs[i] / 1e9 for i in idx]


def _per_krep(seconds: float, reps: int) -> float:
    return seconds / reps * 1000.0


class Traced:
    """A phase whose steps run with the recorder's bindings installed."""

    def __init__(self, phase, rec: sp.Recorder):
        self.phase, self.rec, self.samples = phase, rec, phase.samples

    def step(self) -> None:
        install(self.rec)
        try:
            self.phase.step()
        finally:
            self.rec.unwrap_all()

    def ready(self) -> bool:
        return self.phase.ready()

    def finish(self) -> None:
        self.phase.finish()


def traced_phases(ctx: wl.Context, seconds: float, tally: wl.Tally) -> tuple[dict, dict]:
    """Untraced and traced copies of the lib, mc and sp phases, interleaved step by step.

    Returns the metrics and the seconds each phase ran before and after the deadline.
    """
    rec = sp.Recorder()
    w1 = tuple(s for s in wl.MC_RUNS if s[4] == 1)
    phases = {
        "lib": wl.LibPhase(ctx, tally, min_rounds=TRACE_LIB_MIN_ROUNDS),
        "mc": wl.McPhase(ctx, tally),
        "sp": wl.SpPhase(ctx, tally),
        "lib.traced": Traced(wl.LibPhase(ctx, tally, rec, min_rounds=TRACE_LIB_MIN_ROUNDS), rec),
        "mc.traced": Traced(wl.McPhase(ctx, tally, rec, specs=w1), rec),
        "sp.traced": Traced(wl.SpPhase(ctx, tally, rec), rec),
    }
    _, phase_seconds = wl.run_phases(phases, seconds,
                                     {k: TRACE_SHARES[k.split(".")[0]] for k in phases})
    untraced = {**phases["lib"].samples, **phases["mc"].samples, **phases["sp"].samples}
    traced = {**phases["lib.traced"].samples, **phases["mc.traced"].samples,
              **phases["sp.traced"].samples}
    out = {}
    t = Tree(rec.spans)

    # lib: normalised per round, a round being one pass at each sample length
    passes = t.roots_named("pass")
    rounds = len(t.roots_named(f"pass.T{wl.LIB_TS[0]}"))
    out["layer.ols.solve_ols_calls"] = len(t.under("pass", "ols.solve_ols")) / (
        len(passes) * wl.LIB_OPS_PER_PASS)
    out["layer.ols.solve_ols_s"] = sum(t.dur(t.under("pass", "ols.solve_ols"))) / rounds
    out["layer.ols.build_design_s"] = sum(t.dur(t.under("pass", "ols.build_design"))) / rounds
    out["layer.unitroot.select_adf_lags_self_s"] = sum(
        t.self_s(t.under("pass", "unitroot.select_adf_lags"))) / rounds
    # single calls are timed at T = 500
    out["layer.lagselect.select_ar_order_ms"] = 1e3 * median(
        t.dur(t.under("pass.T500", "lib.select_ar_order")))
    out["layer.cointegration.eg_adf_test_ms"] = 1e3 * median(
        t.dur(t.under("pass.T500", "lib.eg_adf")))
    out["layer.varmodel.granger_test_ms"] = 1e3 * median(
        t.dur(t.under("pass.T500", "lib.granger")))
    rmsfe = t.roots_named("lib.rmsfe")
    out["layer.armodel.fit_ar_calls"] = len(t.under("lib.rmsfe", "armodel.fit_ar")) / len(rmsfe)
    out["layer.armodel.rmsfe_self_ms"] = 1e3 * median(t.self_s(rmsfe))
    out["trace.overhead.lib"] = median(traced["lib_pass_ms.T500"]) / median(
        untraced["lib_pass_ms.T500"])

    # mc: seconds per 1,000 replications
    reps = {s[0]: s[3] for s in wl.MC_RUNS}
    mc_roots = t.roots_named("mc")
    mc_reps = sum(reps[t.spans[r].name[3:]] for r in mc_roots)
    qlr_reps = reps["qlr"] * len(t.roots_named("mc.qlr"))
    out["layer.dgp.rng_for_s"] = _per_krep(sum(t.dur(t.under("mc", "dgp.rng_for"))), mc_reps)
    out["layer.dgp.sample_values_s"] = _per_krep(
        sum(t.dur(t.under("mc", "dgp.sample_values"))), mc_reps)
    out["layer.dgp.rng_for_calls"] = len(t.under("mc", "dgp.rng_for")) / mc_reps
    out["layer.breaks.chow_f_scan_s"] = _per_krep(
        sum(t.dur(t.under("mc.qlr", "breaks.chow_f_scan"))), qlr_reps)
    out["layer.montecarlo.mc_self_s"] = _per_krep(sum(t.self_s(mc_roots)), mc_reps)
    out["layer.montecarlo.w2_reps_per_s"] = throughput(untraced["mc_reps_per_s.adf_w2"])
    out["layer.montecarlo.w2_speedup"] = out["layer.montecarlo.w2_reps_per_s"] / throughput(
        untraced["mc_reps_per_s.adf"])
    out["trace.overhead.mc"] = throughput(untraced["mc_reps_per_s.adf"]) / throughput(
        traced["mc_reps_per_s.adf"])

    # sp: seconds per 1,000 replication pairs
    sp_roots = t.roots_named("sp")
    out["layer.montecarlo.sp_self_s"] = _per_krep(sum(t.self_s(sp_roots)),
                                                  wl.SP_REPS * len(sp_roots))
    out["layer.dgp.simulate_us"] = 1e6 * median(t.dur(t.under("sp", "dgp.simulate")))
    file_roots = t.roots_named("sp.adf_cvfile")
    out["layer.cvcache.load_calls"] = len(t.under("sp.adf_cvfile", "cvcache.load")) / (
        wl.SP_REPS * len(file_roots))
    out["layer.cvcache.load_ms"] = 1e3 * median(t.dur(t.under("sp", "cvcache.load")))
    out["layer.cvcache.critical_values_us"] = 1e6 * median(
        t.dur([i for i, s in enumerate(t.spans) if s.name == "cvcache.critical_values"]))
    out["layer.report.make_test_report_us"] = 1e6 * median(
        t.dur([i for i, s in enumerate(t.spans) if s.name == "report.make_test_report"]))
    out["trace.overhead.sp"] = throughput(untraced["sp_reps_per_s.adf"]) / throughput(
        traced["sp_reps_per_s.adf"])
    return out, phase_seconds


def traced_run(ctx: wl.Context, seconds: float, tally: wl.Tally, validator) -> tuple[dict, dict]:
    """Per-layer metrics, and the seconds each in-process phase ran.

    The import and cli parts run first, one after the other; the in-process
    phases get what is left of `seconds`.  A part whose failed ops leave too
    few samples reports none of its metrics.
    """
    start = time.perf_counter()
    out: dict = {}
    for part in (lambda: import_layer(ctx, tally), lambda: cli_layer(ctx, tally, validator)):
        try:
            out.update(part())
        except (ValueError, ZeroDivisionError):
            pass
    elapsed = time.perf_counter() - start
    phase_seconds = {"import+cli": {"before": round(min(elapsed, seconds), 3),
                                    "after": round(max(elapsed - seconds, 0.0), 3)}}
    try:
        values, in_process = traced_phases(ctx, max(seconds - elapsed, 0.0), tally)
        out.update(values)
        phase_seconds.update(in_process)
    except (ValueError, ZeroDivisionError):
        pass
    return out, phase_seconds
