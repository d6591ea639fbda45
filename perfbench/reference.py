"""Record the reference figures behind the benchmark's correctness gates.

Usage, from the repository root:

    python3 perfbench/reference.py

Writes perfbench/reference.json with

  mc_quantiles  the critical values the mc phase is checked against: the
                packaged T_sim = 500 entries for ADF (drift, auto lags) and
                QLR (p = 1, trim 0.15), and the published EG-ADF table for
                two regressors;
  size_power    null and alternative rejection rates of each size/power
                variant at T = 100, from REPS replications with a pinned
                seed.  These are the library's rates as measured, not the
                nominal 5%: at T = 100 the ADF test over-rejects.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import machine_record, pin_environment

SEED = 20261017
REPS = 20_000


def main() -> int:
    pin_environment(Path.cwd() / "src")

    import workload as wl
    from tsecon import EG_ADF_CRITICAL_VALUES, default_cache, size_power_suite

    cache = default_cache()
    mc = {}
    for _, statistic, params, *_ in wl.MC_RUNS:
        if statistic == "egadf":
            table = EG_ADF_CRITICAL_VALUES[params["n_regressors"]]
        else:
            canon = {k: (f"{v:g}" if isinstance(v, float) else v) for k, v in params.items()}
            table = cache.critical_values(statistic, canon, wl.CHECK_LEVELS)[0]
        mc[statistic] = {f"{lv:g}": float(table[lv]) for lv in wl.CHECK_LEVELS}

    rates = {}
    for key, test, null, alt, params, use_file in wl.sp_specs():
        if use_file:
            continue  # the sp phase checks it matches the packaged-cache run exactly
        res = size_power_suite(test, null, alt, REPS, T=wl.SP_T, seed=SEED,
                               params=params, workers=2)
        rates[key] = {"null_rate": res.size, "alt_rate": res.power, "reps": REPS,
                      "T": wl.SP_T, "seed": SEED}
        print(key, rates[key], file=sys.stderr)

    out = {"mc_quantiles": mc, "size_power": rates, "recorded_on": machine_record(SEED)}
    (wl.HERE / "reference.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
