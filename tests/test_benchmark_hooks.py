"""The traced benchmark rebinds library functions by name; they must all exist.

`perfbench/layers.py` wraps module attributes with getattr/setattr, so a
rename or a moved import in the library breaks `perfbench/run.py --trace 1`
without failing any other test.  This test only reads `perfbench/`.
"""

import sys
from pathlib import Path

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
