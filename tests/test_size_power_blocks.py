"""Size/power studies decide most replications on block statistics.

`size_power_suite` runs the public test on the first replication of each chunk
and branch and decides the others on the registry's block evaluator against
that report's critical value.  These tests hold the block decisions to the
public ones row by row, the counts to a per-replication public loop, and the
number of public calls to one per chunk and branch.
"""

from collections import Counter

import numpy as np
import pytest

import tsecon.montecarlo as montecarlo
from tsecon import (
    AdfSpec,
    ArProcess,
    CointegratedPair,
    DomainError,
    InterceptBreakAr,
    RandomWalk,
    TimeSeries,
    WhiteNoise,
    adf_test,
    eg_adf_test,
    qlr_test,
    simulate,
    size_power_suite,
)
from tsecon.montecarlo import _STATISTICS, _derived_seed, _draw, _rejections
from tsecon.report import decide


def _walk(seed, T, label):
    return TimeSeries(simulate(RandomWalk(seed=seed), T).values, label=label)


def _assert_rows_decide_like_reports(test, args, rows, reports):
    entry = _STATISTICS[test]
    stats = entry.block(*entry.rows(args, rows))
    assert stats.shape == (len(rows),)
    decisions = Counter()
    for stat, report in zip(stats, reports):
        assert stat == pytest.approx(report.statistic, rel=1e-10, abs=1e-12)
        for lv, cv in report.critical_values.items():
            assert decide(stat, cv, report.tail) == report.decision[lv]
            decisions[report.decision[lv]] += 1
    assert set(decisions) == {"reject", "fail_to_reject"}  # both outcomes exercised


@pytest.mark.filterwarnings("ignore:ADF effective sample")
@pytest.mark.parametrize("T", [50, 100, 500])
@pytest.mark.parametrize("lags", [0, "auto"])
@pytest.mark.parametrize("deterministic", ["drift", "trend"])
def test_adf_block_decisions_equal_the_public_test(deterministic, lags, T):
    rows = [simulate(RandomWalk(seed=s), T) for s in range(10)]
    rows += [simulate(ArProcess(betas=(0.8,), seed=s), T) for s in range(10)]
    args = _STATISTICS["adf"].args({"deterministic": deterministic, "lags": lags})
    reports = [adf_test(row, AdfSpec(lags=lags, deterministic=deterministic)) for row in rows]
    _assert_rows_decide_like_reports("adf", args, rows, reports)


@pytest.mark.parametrize("m", [1, 2])
def test_egadf_block_decisions_equal_the_public_test(m):
    T = 120
    xs = [f"x{j}" for j in range(1, m + 1)]
    rows = []
    for s in range(12):
        walks = {nm: _walk(100 * s + j, T, nm) for j, nm in enumerate(xs, 1)}
        if s % 2:  # y cointegrated with the regressors
            noise = simulate(ArProcess(betas=(0.5,), seed=s), T).values
            y = sum(w.values for w in walks.values()) + noise
            rows.append({"y": TimeSeries(y, label="y"), **walks})
        else:
            rows.append({"y": _walk(100 * s, T, "y"), **walks})
    args = _STATISTICS["egadf"].args({"y": "y", "xs": xs})
    reports = [eg_adf_test(row["y"], [row[nm] for nm in xs]).eg_adf for row in rows]
    _assert_rows_decide_like_reports("egadf", args, rows, reports)


@pytest.mark.parametrize("p", [1, 2])
def test_qlr_block_decisions_equal_the_public_test(p):
    T = 150
    rows = [simulate(ArProcess(beta0=1.0, betas=(0.5,), seed=s), T) for s in range(10)]
    rows += [simulate(InterceptBreakAr(beta0_pre=1.0, beta0_post=1.8, betas=(0.5,), seed=s), T)
             for s in range(10)]
    args = _STATISTICS["qlr"].args({"p": p})
    reports = [qlr_test(row, p=p) for row in rows]
    _assert_rows_decide_like_reports("qlr", args, rows, reports)


def test_qlr_block_fails_like_the_public_test():
    good = simulate(WhiteNoise(seed=1), 100)
    for bad in (np.r_[np.zeros(50), np.ones(50)], np.tile([1.0, -1.0], 50), np.arange(100.0)):
        with pytest.raises(DomainError) as public:
            qlr_test(TimeSeries(bad), p=1)
        args = _STATISTICS["qlr"].args({"p": 1})
        with pytest.raises(DomainError) as block:
            _STATISTICS["qlr"].block(*_STATISTICS["qlr"].rows(args, [good, TimeSeries(bad)]))
        assert str(block.value) == str(public.value)


# --- counts against the public test, replication by replication -----------------

_SUITES = {
    "adf_drift_auto": ("adf", RandomWalk(), ArProcess(betas=(0.9,)),
                       {"deterministic": "drift", "lags": "auto"}, 50),
    "adf_trend_0": ("adf", RandomWalk(), ArProcess(betas=(0.8,)),
                    {"deterministic": "trend", "lags": 0}, 100),
    "qlr_p1": ("qlr", ArProcess(beta0=1.0, betas=(0.5,)),
               InterceptBreakAr(beta0_pre=1.0, beta0_post=2.0, betas=(0.5,)), {"p": 1}, 100),
    "egadf_m1": ("egadf", {"y": RandomWalk(), "x": RandomWalk()},
                 CointegratedPair(noise_ar=0.8), {"y": "y", "xs": ["x"]}, 100),
    "egadf_m2": ("egadf", {"y": RandomWalk(), "x1": RandomWalk(), "x2": RandomWalk()},
                 {"y": ArProcess(betas=(0.5,)), "x1": RandomWalk(), "x2": RandomWalk()},
                 {"y": "y", "xs": ["x1", "x2"]}, 100),
}


def _public_counts(test, null_spec, alt_spec, params, T, reps, seed, level=0.05):
    """The rejections of a per-replication loop over the public tests."""
    hits = [0, 0]
    for i in range(reps):
        for branch, spec in enumerate((null_spec, alt_spec)):
            data = _draw(spec, T, seed, branch, i)
            if test == "adf":
                report = adf_test(data, AdfSpec(**params))
            elif test == "qlr":
                report = qlr_test(data, **params)
            else:
                report = eg_adf_test(data[params["y"]], [data[nm] for nm in params["xs"]]).eg_adf
            hits[branch] += report is None or report.decision[level] == "reject"
    return tuple(hits)


@pytest.mark.filterwarnings("ignore:ADF effective sample")
@pytest.mark.parametrize("name", _SUITES)
def test_suite_counts_equal_a_public_loop(name):
    test, null_spec, alt_spec, params, T = _SUITES[name]
    reps = 30
    for seed in (1, 2):
        expected = _public_counts(test, null_spec, alt_spec, params, T, reps, seed)
        for chunk_size in (1, 7, 500):
            out = size_power_suite(test, null_spec, alt_spec, reps, T=T, seed=seed,
                                   params=params, chunk_size=chunk_size)
            assert (out.null_rejections, out.alt_rejections) == expected, (seed, chunk_size)


def test_suite_counts_equal_a_public_loop_on_two_workers():
    test, null_spec, alt_spec, params, T = _SUITES["egadf_m1"]
    out = size_power_suite(test, null_spec, alt_spec, 30, T=T, seed=3, params=params,
                           workers=2, chunk_size=7)
    expected = _public_counts(test, null_spec, alt_spec, params, T, 30, 3)
    assert (out.null_rejections, out.alt_rejections) == expected


# --- exact relations and errors ----------------------------------------------------


def test_exact_relations_count_as_rejections_wherever_they_fall():
    x = _walk(1, 100, "x")
    exact = {"y": TimeSeries(2.0 * x.values, label="y"), "x": x}
    coint = simulate(CointegratedPair(noise_ar=0.5, seed=2), 100)
    walks = {"y": _walk(3, 100, "y"), "x": _walk(4, 100, "x")}
    rows = [exact, exact, walks, coint, exact, walks, coint]
    public = [eg_adf_test(row["y"], [row["x"]]).eg_adf for row in rows]
    assert [r is None for r in public] == [True, True, False, False, True, False, False]
    expected = sum(r is None or r.decision[0.05] == "reject" for r in public)

    calls = Counter()
    original = montecarlo.eg_adf_test

    def counting(*args, **kwargs):
        calls["eg_adf_test"] += 1
        return original(*args, **kwargs)

    entry = _STATISTICS["egadf"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "eg_adf_test", counting)
        got = _rejections(entry, rows, 0.05, None, entry.args({"y": "y", "xs": ["x"]}))
    assert got == expected
    # the two exact first rows, then the first one with a critical value
    assert calls["eg_adf_test"] == 3


def test_an_exact_relation_alternative_rejects_every_replication():
    # the counts this suite gave when every replication ran the public test
    out = size_power_suite("egadf", {"y": RandomWalk(), "x": RandomWalk()},
                           CointegratedPair(sigma2=0.0, drift=1.0), reps=5, T=100, seed=3,
                           params={"y": "y", "xs": ["x"]})
    assert (out.null_rejections, out.alt_rejections) == (1, 5)


@pytest.mark.parametrize("test, null_spec, params, T, error, message", [
    ("qlr", WhiteNoise(sigma2=0.0), {"p": 1}, 100, DomainError,
     "collinear regressors inside the break scan"),
    ("adf", RandomWalk(), {}, 20, DomainError,
     "ADF needs an effective sample of at least 20 observations"),
    ("egadf", {"y": RandomWalk(), **{f"x{j}": RandomWalk() for j in range(1, 6)}},
     {"y": "y", "xs": [f"x{j}" for j in range(1, 6)]}, 100, DomainError,
     "critical values cover 1 to 4 regressors, got 5"),
    ("egadf", {"y": RandomWalk(), "x": RandomWalk()}, {"y": "y", "xs": ["z"]}, 100, DomainError,
     "data is missing series 'z'"),
])
def test_suite_errors_are_the_public_tests(test, null_spec, params, T, error, message):
    with pytest.raises(error) as caught:
        size_power_suite(test, null_spec, RandomWalk(), reps=5, T=T, seed=3, params=params)
    assert type(caught.value) is error
    assert str(caught.value) == message


# --- structure ------------------------------------------------------------------------


def _count_calls(monkeypatch, names):
    calls = Counter()
    seeds = []
    for name in names:
        original = getattr(montecarlo, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            if _name == "simulate":
                seeds.append(args[0].seed)
            return _original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, name, wrapper)
    return calls, seeds


@pytest.mark.parametrize("test, public, null_spec, alt_spec, params", [
    ("adf", "adf_test", RandomWalk(), ArProcess(betas=(0.9,)), {}),
    ("qlr", "qlr_test", WhiteNoise(), InterceptBreakAr(beta0_post=1.0, betas=(0.3,)), {"p": 1}),
    ("egadf", "eg_adf_test", {"y": RandomWalk(), "x": RandomWalk()}, CointegratedPair(),
     {"y": "y", "xs": ["x"]}),
])
def test_public_test_runs_once_per_chunk_and_branch(monkeypatch, test, public, null_spec,
                                                    alt_spec, params):
    kwargs = dict(test=test, null_spec=null_spec, alt_spec=alt_spec, reps=100, T=100,
                  seed=5, params=params, chunk_size=50)
    expected = size_power_suite(**kwargs)
    calls, seeds = _count_calls(monkeypatch, (public, "simulate"))
    assert size_power_suite(**kwargs) == expected
    # every draw keeps its per-replication seed: chunk, then branch, then replication
    keys = [
        (branch, i, j) if isinstance(spec, dict) else (branch, i)
        for start in (0, 50)
        for branch, spec in enumerate((null_spec, alt_spec))
        for i in range(start, start + 50)
        for j in range(len(spec) if isinstance(spec, dict) else 1)
    ]
    assert seeds == [_derived_seed(5, key) for key in keys]
    assert calls == {public: 4, "simulate": len(keys)}


def test_chow_runs_the_public_test_on_every_replication(monkeypatch):
    kwargs = dict(test="chow", null_spec=ArProcess(betas=(0.4,)),
                  alt_spec=InterceptBreakAr(beta0_post=2.0, betas=(0.4,)),
                  reps=20, T=100, seed=33, params={"p": 1, "tau": 50}, chunk_size=7)
    expected = size_power_suite(**kwargs)
    calls, _ = _count_calls(monkeypatch, ("chow_test", "simulate"))
    assert size_power_suite(**kwargs) == expected
    assert calls == {"chow_test": 40, "simulate": 40}


def test_registry_blocks_serve_mc_and_size_power():
    simulated = [name for name, s in _STATISTICS.items() if s.chunk is not None]
    assert simulated == [name for name, s in _STATISTICS.items() if s.block is not None]
    assert all(_STATISTICS[name].rows is not None for name in simulated)
