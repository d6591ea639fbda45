"""Tests of the benchmark itself: percentile rule, span arithmetic, gates, smoke runs.

Run from the repository root with `python3 -m pytest perfbench`.  The smoke
runs take a few minutes: each runs a workload at its minimal size.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- percentile rule -----------------------------------------------------------


def test_nearest_rank_percentiles():
    xs = list(range(1, 101))  # 1..100
    assert stats.nearest_rank(xs, 0.5) == 50
    assert stats.nearest_rank(xs, 0.9) == 90
    assert stats.nearest_rank(list(reversed(xs)), 0.9) == 90
    assert stats.nearest_rank([7.0], 0.9) == 7.0


@pytest.mark.parametrize("n, q", [(19, None), (20, 0.5), (39, 0.5), (40, 0.75),
                                  (99, 0.75), (100, 0.9), (199, 0.9), (200, 0.95),
                                  (1000, 0.99), (10_000, 0.999)])
def test_highest_tail_keeps_ten_samples_beyond(n, q):
    assert stats.highest_tail(n) == q
    if q is not None:
        assert stats.beyond(n, q) >= stats.MIN_BEYOND
        higher = [c for c in stats.TAIL_CANDIDATES if c > q]
        assert all(stats.beyond(n, c) < stats.MIN_BEYOND for c in higher)


def test_tail_refuses_a_percentile_with_too_few_samples_beyond():
    assert stats.tail(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError):
        stats.tail(list(range(99)), 0.9)


def test_throughput_is_total_work_over_total_time():
    assert stats.throughput([(100, 1.0), (100, 3.0)]) == 50.0
    with pytest.raises(ValueError):
        stats.throughput([])


# --- spans ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        spans.Span("root", 0, 100, -1),
        spans.Span("a", 10, 30, 0),
        spans.Span("b", 20, 50, 0),  # overlaps a: covered together 10..50
        spans.Span("c", 60, 70, 0),
        spans.Span("a.child", 12, 28, 1),  # a grandchild of root: not subtracted twice
        spans.Span("late", 95, 120, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree) == [100 - 40 - 10 - 5, 20 - 16, 30, 10, 16, 25]
    assert [spans.root_of(tree, i) for i in range(len(tree))] == [0, 0, 0, 0, 0, 0]


def test_wrap_records_parents_and_restores_bindings():
    mod = SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner = mod.inner
    rec = spans.Recorder()
    rec.wrap(mod, "inner", "inner")
    rec.wrap(mod, "outer", lambda args, kwargs: f"outer.{args[0]}")
    with rec.span("op"):
        assert mod.outer(3) == 8
    assert [(s.name, s.parent) for s in rec.spans] == [("op", -1), ("outer.3", 0), ("inner", 1)]
    assert all(s.end >= s.start for s in rec.spans)
    rec.unwrap_all()
    assert mod.inner is original_inner


def test_import_breakdown_sums_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.stats._a",
        "import time:        50 |        150 |     scipy.stats",
        "import time:        30 |         30 |       scipy.signal",
        "import time:        20 |        200 |     tsecon.breaks",
        "import time:        10 |         10 |     scipy.stats._b",
        "import time:         5 |        400 |   tsecon",
        "import time:         1 |        401 | tsecon.cli",
    ])
    got = layers.import_breakdown(text, ("tsecon", "scipy.stats", "scipy.signal"))
    assert got == {"tsecon": 401e-6, "scipy.stats": 160e-6, "scipy.signal": 30e-6}


# --- correctness gates ---------------------------------------------------------


def _fake_run(reference, tail, shift):
    """A run whose quantiles bracket each reference value, all moved by shift."""
    reps, sign, quantiles = 2000, (1 if tail == "left" else -1), {}
    for lv, (lo, hi) in workload.band_levels(reps).items():
        ref = reference[f"{lv:g}"] + shift
        quantiles.update({lo: ref - sign * 0.01, lv: ref, hi: ref + sign * 0.01})
    return SimpleNamespace(reps=reps, tail=tail, quantiles=quantiles,
                           summary={"min": -99.0, "max": 99.0})


@pytest.mark.parametrize("statistic, tail", [("adf", "left"), ("qlr", "right")])
def test_quantile_band(statistic, tail):
    reference = workload.load_reference()["mc_quantiles"][statistic]
    assert workload.check_quantiles(_fake_run(reference, tail, 0.0), reference) == []
    assert workload.check_quantiles(_fake_run(reference, tail, 0.5), reference)


def test_size_power_band_is_centred_on_the_measured_rate():
    ref = workload.load_reference()["size_power"]["adf"]
    n = 400
    expected = round(ref["null_rate"] * n)
    assert workload.band(expected, n, ref["null_rate"], ref["reps"])
    sd = math.sqrt(n * ref["null_rate"] * (1 - ref["null_rate"]))
    assert not workload.band(expected + int(7 * sd) + 2, n, ref["null_rate"], ref["reps"])
    # a rate never seen in the reference draws still allows one stray count
    assert workload.band(n - 1, n, 1.0, ref["reps"])
    assert not workload.band(n - 3, n, 1.0, ref["reps"])


# --- failed ops ----------------------------------------------------------------


def test_lib_phase_is_ready_only_with_enough_good_samples(monkeypatch, capsys):
    calls = []

    def flaky_pass(ctx, T, rec=None):
        calls.append(T)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return (1.0,)

    monkeypatch.setattr(workload, "lib_pass", flaky_pass)
    monkeypatch.setattr(workload, "pseudo_out_of_sample_rmsfe", lambda *args: 2.0)
    ctx = SimpleNamespace(data={workload.RMSFE_T: SimpleNamespace(ar=None)})
    tally = workload.Tally()
    phase = workload.LibPhase(ctx, tally, min_rounds=3)
    for _ in range(3):
        phase.step()
    assert (tally.failed, phase.ready()) == (1, False)
    phase.step()
    assert phase.ready()
    assert "injected" in capsys.readouterr().err


class _Phase:
    def __init__(self, ready_after):
        self.steps, self.ready_after, self.samples = 0, ready_after, {}

    def step(self):
        self.steps += 1
        time.sleep(0.001)

    def ready(self):
        return self.steps >= self.ready_after

    def finish(self):
        pass


def test_run_phases_gives_the_tail_only_to_phases_without_samples():
    done, stuck = _Phase(0), _Phase(10**9)
    _, seconds = workload.run_phases({"done": done, "stuck": stuck}, 0.05,
                                     {"done": 0.5, "stuck": 0.5}, tail_seconds=0.05)
    assert seconds["done"]["after"] == 0.0
    assert seconds["stuck"]["after"] > 0.0
    assert not stuck.ready()


def test_a_run_with_too_few_good_samples_reports_instead_of_raising(capsys):
    samples = {"setup_s": [1.0, 1.1, 1.2], "lib_pass_ms.T100": [1.0] * 99,
               "mc_reps_per_s.adf": []}
    values, _ = run.end_to_end(samples)
    assert set(values) == {"setup_s", "lib_pass_ms.T100.p50"}
    tally = workload.Tally()
    tally.op()
    tally.fail("injected")
    wanted = [{"name": n, "unit": "ms"} for n in
              ("setup_s", "lib_pass_ms.T100.p50", "lib_pass_ms.T100.p90", "mc_reps_per_s.adf")]
    line = run.result(values, wanted, tally)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 1, 1)
    assert set(line["metrics"]) == {"setup_s", "lib_pass_ms.T100.p50"}
    assert "lib_pass_ms.T100.p90" in capsys.readouterr().err


# --- smoke runs ----------------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_emits_the_declared_metrics(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
