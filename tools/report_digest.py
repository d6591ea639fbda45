#!/usr/bin/env python3
"""Print the SHA-256 of every report and file a fixed battery of CLI commands makes.

The battery runs every subcommand of `tsecon` in a temporary directory: it
simulates a seeded CSV of every --kind (the VAR once more with every option
set), analyses some of them, writes every --emit-csv table,
and simulates adf, qlr and egadf critical values (1,000 replications each)
into one --out file that a last adf call reads back.  Each line is
"<sha256>  <what>", one per report (stdout, then stderr when a command
fails, with its exit code) and one per file left in the directory.  All
paths are relative, so two checkouts print the same lines exactly when
their reports and files are byte-identical:

    python3 tools/report_digest.py > after.txt
    diff before.txt after.txt

Usage: python3 tools/report_digest.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tsecon.cli import main as cli_main

BATTERY = [
    ["simulate", "--kind", "ar", "--T", "400", "--beta0", "1.0", "--betas", "0.6",
     "--seed", "42", "--out", "ar.csv"],
    ["simulate", "--kind", "cointegrated-pair", "--T", "400", "--theta", "2.0",
     "--seed", "43", "--out", "pair.csv"],
    ["simulate", "--kind", "var", "--T", "500", "--delta", "0.5,0.2",
     "--a-matrices", "[[[0.3, 0.8], [0.0, 0.5]]]", "--seed", "44", "--out", "var.csv"],
    ["simulate", "--kind", "random-walk", "--T", "300", "--seed", "45", "--out", "rw.csv"],
    ["simulate", "--kind", "intercept-break-ar", "--T", "200", "--betas", "0.5",
     "--seed", "46", "--out", "break.csv"],
    ["simulate", "--kind", "white-noise", "--T", "100", "--sigma2", "2.5", "--seed", "47",
     "--out", "wn.csv"],
    ["simulate", "--kind", "ma", "--T", "150", "--alpha0", "0.3", "--alphas", "0.4,0.1",
     "--seed", "48", "--out", "ma.csv"],
    ["simulate", "--kind", "arma", "--T", "150", "--beta0", "-1.0", "--betas", "0.3",
     "--alphas", "0.2,0.1", "--burn-in", "12", "--seed", "49", "--out", "arma.csv"],
    ["simulate", "--kind", "random-walk-drift", "--T", "120", "--drift", "0.4", "--y0", "-2.0",
     "--seed", "50", "--out", "rw_drift.csv"],
    ["simulate", "--kind", "var", "--T", "150", "--delta", "0.5,0.2",
     "--a-matrices", "[[[0.3, 0.1], [0.0, 0.5]], [[0.1, 0.0], [0.05, 0.1]]]",
     "--innovation-cov", "[[1.0, 0.3], [0.3, 2.0]]", "--names", "imp,exp", "--seed", "51",
     "--out", "var_named.csv"],
    ["describe", "ar.csv", "--max-lag", "8", "--emit-csv", "describe.csv"],
    ["fit-ar", "ar.csv", "--p", "2"],
    ["fit-var", "ar.csv", "--p", "2"],
    ["select-lag", "ar.csv", "--p-max", "4"],
    ["select-lag", "var.csv", "--cols", "y1,y2", "--p-max", "3", "--criterion", "aic"],
    ["forecast", "ar.csv", "--p", "1", "--horizon", "6", "--emit-csv", "forecast.csv"],
    ["adf", "rw.csv", "--det", "drift"],
    ["adf", "rw.csv", "--det", "trend", "--lags", "0"],
    ["chow", "break.csv", "--p", "1", "--tau", "100"],
    ["qlr", "break.csv", "--p", "1", "--emit-csv", "qlr.csv"],
    ["fit-var", "var.csv", "--p", "2"],
    ["forecast-var", "var.csv", "--p", "1", "--horizon", "4", "--emit-csv", "forecast_var.csv"],
    ["granger", "var.csv", "--cause", "y2", "--effect", "y1", "--p", "2"],
    ["integration-order", "rw.csv"],
    ["coint", "pair.csv", "--y", "y", "--x", "x"],
    ["dols", "pair.csv", "--y", "y", "--x", "x", "--p", "2"],
    ["dols", "pair.csv", "--y", "y", "--x", "x", "--p", "1", "--level-terms"],
    ["mc-critical", "--statistic", "adf", "--reps", "1000", "--seed", "9", "--out", "cv.json"],
    ["mc-critical", "--statistic", "qlr", "--p", "1", "--reps", "1000", "--seed", "10",
     "--out", "cv.json"],
    ["mc-critical", "--statistic", "egadf", "--m", "1", "--reps", "1000", "--seed", "11",
     "--out", "cv.json"],
    ["adf", "rw.csv", "--cv-file", "cv.json"],
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for argv in BATTERY:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            print(f"{sha256(out.getvalue().encode())}  report {' '.join(argv)}")
            if code:
                print(f"{sha256(err.getvalue().encode())}  exit {code} {' '.join(argv)}")
        for path in sorted(Path(work).iterdir()):
            print(f"{sha256(path.read_bytes())}  file {path.name}")
        os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
