#!/usr/bin/env python3
"""Regenerate the packaged critical-value file.

Monte Carlo entries (Dickey-Fuller and QLR families) are simulated at
T_sim = 500 with pinned seeds; the EG-ADF entries ship the published
table verbatim with paper_table provenance.  Rebuilding with the same
seeds and reps reproduces the file byte for byte, whatever --workers is:
summary means and standard deviations use exactly rounded sums.  The
statistics come from LAPACK and BLAS calls, so on another BLAS build a
quantile may move in its last bits.

Usage: python3 tools/build_cache.py [--reps N] [--workers N] [--out PATH]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tsecon.cointegration import EG_ADF_CRITICAL_VALUES
from tsecon.cvcache import CriticalValueCache, CvEntry
from tsecon.dgp import GENERATOR_NAME
from tsecon.montecarlo import mc_critical_values

T_SIM = 500

MC_TARGETS = [
    ("adf", {"deterministic": "drift", "lags": "auto"}, 914001),
    ("adf", {"deterministic": "drift", "lags": 0}, 914002),
    ("adf", {"deterministic": "trend", "lags": "auto"}, 914003),
    ("adf", {"deterministic": "trend", "lags": 0}, 914004),
    ("qlr", {"p": 1, "trim": 0.15}, 914005),
    ("qlr", {"p": 2, "trim": 0.15}, 914006),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=100_000,
                    help="replications per Monte Carlo entry (default 100000)")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "src/tsecon/data/critical_values.json"))
    args = ap.parse_args(argv)

    entries = []
    for statistic, params, seed in MC_TARGETS:
        t0 = time.time()
        run = mc_critical_values(statistic, params, T_sim=T_SIM, reps=args.reps,
                                 seed=seed, workers=args.workers)
        entries.append(run.to_entry())
        qs = ", ".join(f"{lv:g}: {cv:.3f}" for lv, cv in run.quantiles.items())
        print(f"{run.statistic} {run.params}  [{qs}]  ({time.time() - t0:.1f}s)")

    for m, quantiles in EG_ADF_CRITICAL_VALUES.items():
        entries.append(CvEntry(
            statistic="egadf",
            params={"n_regressors": m},
            tail="left",
            quantiles=dict(quantiles),
            provenance={"kind": "paper_table", "table": "eg_adf_critical_values"},
            summary={},
        ))
        print(f"egadf {{'n_regressors': {m}}}  [published table]")

    cache = CriticalValueCache(entries=entries, generator=GENERATOR_NAME)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cache.save(str(out))
    print(f"wrote {len(entries)} entries to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
