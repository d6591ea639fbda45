"""The traced benchmark rebinds library functions by name; they must all exist.

`perfbench/layers.py` and `perfbench/cli_traced.py` wrap module attributes
with getattr/setattr, so a rename or a moved import in the library breaks
`perfbench/run.py --trace 1` without failing any other test.  These tests
only read `perfbench/`.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("layers", "spans", "workload", "stats")


def test_traced_benchmark_binds_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in BENCH_MODULES:
        if name in sys.modules:
            monkeypatch.delitem(sys.modules, name)
    import layers
    import spans

    rec = spans.Recorder()
    try:
        layers.install(rec)  # raises AttributeError on a missing attribute
        bound = list(rec._bindings)
        assert len(bound) == 21
        assert all(getattr(owner, attr) is not original for owner, attr, original in bound)
    finally:
        rec.unwrap_all()
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
    assert all(getattr(owner, attr) is original for owner, attr, original in bound)


def test_traced_cli_binds_every_library_call(monkeypatch, tmp_path):
    # perfbench/cli_traced.py wraps these attributes of tsecon.cli by name
    import tsecon.cli

    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("cli_traced", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import cli_traced
    import spans

    for name in (*cli_traced.COMPUTE, "ingest_csv"):
        assert callable(getattr(tsecon.cli, name)), name

    csv = tmp_path / "rw.csv"
    walk = np.random.default_rng(1).standard_normal(80).cumsum()
    csv.write_text("y\n" + "".join(f"{v!r}\n" for v in walk.tolist()))
    rec = spans.Recorder()
    try:
        rec.wrap(tsecon.cli, "adf_test", "compute.adf_test")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert tsecon.cli.main(["adf", str(csv)]) == 0
    finally:
        rec.unwrap_all()
    assert [s.name for s in rec.spans] == ["compute.adf_test"]
    assert '"command": "adf"' in out.getvalue()


def test_mc_critical_offers_exactly_the_simulated_statistics():
    import argparse

    import tsecon.cli
    import tsecon.montecarlo

    parser = tsecon.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    statistic = next(a for a in sub.choices["mc-critical"]._actions if a.dest == "statistic")
    assert tuple(statistic.choices) == tsecon.montecarlo._SIMULATED
    with contextlib.redirect_stderr(io.StringIO()) as err:
        with pytest.raises(SystemExit) as exit_:
            tsecon.cli.main(["mc-critical", "--statistic", "chow"])
    assert exit_.value.code == 2
    assert "invalid choice: 'chow'" in err.getvalue()
