"""tsecon benchmark: CLI cold start, warm library calls, Monte Carlo and size/power throughput.

Usage, from the repository root:

    python3 perfbench/run.py --workload packaged_cv --seed 1 --seconds 60 --trace 0

The benchmark drives only the public API and the `tsecon` CLI of the library
under ./src.  --trace 0 measures the end-to-end metrics of BENCHMARK.json;
--trace 1 makes a separate traced run and reports the per-layer metrics.
Every run checks the library's outputs.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it records the machine, the seconds each phase ran before and after
the deadline, the sample count behind each metric and the two-worker Monte
Carlo throughput, which has no bound.

BLAS is pinned to one thread, so two Monte Carlo workers use at most two
cores.  Work files go to .bench_work/ and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import sys
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent


def pin_environment(src: Path) -> dict:
    """Pin BLAS threads in this process (before numpy loads) and return the child env."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("TSECON_CV_FILE", None)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def machine_record(seed=None) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas']['version']}",
        "blas_threads": BLAS_THREADS,
        "mp_start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


def end_to_end(samples: dict) -> tuple[dict, dict]:
    """Metric values by name, plus the samples behind each.

    The names cover BENCHMARK.json's end_to_end list and the two-worker
    throughput, which the detail line reports without a bound.  A metric
    whose samples do not suffice (failed ops leave too few) is left out.

    n counts good calls; highest_percentile is the highest percentile with at
    least ten samples beyond it (None below twenty samples).
    """
    from stats import highest_tail, median, tail, throughput

    rules = {"p50": median, "p90": lambda xs: tail(xs, 0.9)}
    values, counts = {}, {}
    for key, xs in samples.items():
        if key.startswith(("mc_", "sp_")):
            names = {key: throughput}
        elif key == "setup_s":
            names = {key: median}
        else:
            kinds = ("p50", "p90") if key.startswith("lib_pass") else ("p50",)
            names = {f"{key}.{q}": rules[q] for q in kinds}
        for name, rule in names.items():
            counts[name] = {"n": len(xs), "highest_percentile": highest_tail(len(xs))}
            try:
                values[name] = rule(xs)
            except ValueError:
                pass
    return values, counts


def result(values: dict, wanted: list, tally) -> dict:
    """The result line.  A run is correct when no op failed and every metric has a value."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: too few good samples for {missing}", file=sys.stderr)
    return {
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("packaged_cv", "cv_file"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "tsecon" / "__init__.py").is_file():
        print("perfbench: src/tsecon not found; run from the repository root", file=sys.stderr)
        return 2
    env = pin_environment(src)

    import tsecon

    if not Path(tsecon.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported tsecon from {tsecon.__file__}, not {src}", file=sys.stderr)
        return 2
    import workload as wl

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        ctx = wl.setup(args.workload, args.seed, src, workdir, env)
        if args.setup_probe:
            return 0
        spec = json.loads((root / "BENCHMARK.json").read_text())
        from jsonschema import Draft202012Validator

        validator = Draft202012Validator(json.loads(
            (src / "tsecon" / "report_schema.json").read_text()))
        ctx.expected = wl.expected_reports(ctx)
        tally = wl.Tally()
        if args.trace:
            import layers

            values, phase_seconds = layers.traced_run(ctx, args.seconds, tally, validator)
            counts: dict = {}
            wanted = spec["per_layer"]
        else:
            samples, phase_seconds = wl.run_phases({
                "setup": wl.SetupPhase(ctx, tally),
                "cli": wl.CliPhase(ctx, tally, validator),
                "lib": wl.LibPhase(ctx, tally),
                "mc": wl.McPhase(ctx, tally),
                "sp": wl.SpPhase(ctx, tally),
            }, args.seconds)
            values, counts = end_to_end(samples)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    names = {m["name"] for m in wanted}
    print(json.dumps({"machine": machine_record(args.seed), "workload": args.workload,
                      "seconds": args.seconds, "phase_seconds": phase_seconds,
                      "samples": counts,
                      "unreported": {k: v for k, v in values.items() if k not in names}}))
    print(json.dumps(result(values, wanted, tally)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
