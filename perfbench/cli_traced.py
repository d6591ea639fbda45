"""Run one tsecon CLI command with spans around its layers.

Usage: python3 perfbench/cli_traced.py SPANS_JSON ARG...

Behaves like `python -m tsecon.cli ARG...` (same stdout, same exit code) and
writes spans for the import of tsecon.cli, cli.main, cli.ingest_csv and each
library call the command handler makes.
"""

import sys

from spans import Recorder

# The library functions tsecon.cli imports and calls from its handlers.
COMPUTE = (
    "adf_test", "chow_f_scan", "chow_test", "dols", "eg_adf_test", "fit_ar", "fit_var",
    "forecast_ar", "forecast_var", "granger_test", "integration_order", "is_stationary",
    "qlr_test", "qlr_window", "sample_moments", "select_ar_order", "select_var_order",
    "stability",
)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    with rec.span("import.tsecon.cli"):
        import tsecon.cli as cli
    rec.wrap(cli, "ingest_csv", "cli.ingest_csv")
    for name in COMPUTE:
        rec.wrap(cli, name, f"compute.{name}")
    with rec.span("cli.main"):
        code = cli.main(argv)
    sys.stdout.flush()
    rec.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
