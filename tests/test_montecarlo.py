import importlib.util
import math
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import tsecon.montecarlo
from tsecon import (
    ArProcess,
    CointegratedPair,
    CriticalValueCache,
    DomainError,
    InterceptBreakAr,
    RandomWalk,
    TimeSeries,
    VarProcess,
    WhiteNoise,
    adf_test,
    eg_adf_test,
    mc_critical_values,
    qlr_test,
    rng_for,
    sample_values,
    simulate,
    size_power_suite,
)
from tsecon.breaks import chow_f_scan, qlr_window
from tsecon.cli import build_parser
from tsecon.cvcache import _params_key, default_cache
from tsecon.montecarlo import _SIMULATED, _STATISTICS, _chunk_bounds, _null_paths
from tsecon.unitroot import adf_block_statistic, adf_statistic


@pytest.mark.parametrize("statistic, params", [
    ("adf", {"deterministic": "drift", "lags": 0}),
    ("qlr", {"p": 2, "trim": 0.15}),
    ("adf", {"deterministic": "drift", "lags": "auto"}),
    ("egadf", {"n_regressors": 2}),
], ids=["adf", "qlr", "adf_auto", "egadf"])
def test_run_is_independent_of_scheduling(statistic, params):
    kwargs = dict(statistic=statistic, params=params, T_sim=60, reps=1_200, seed=5)
    a = mc_critical_values(**kwargs, chunk_size=1_200)
    b = mc_critical_values(**kwargs, chunk_size=171)
    c = mc_critical_values(**kwargs, workers=2, chunk_size=300)
    assert a.quantiles == b.quantiles == c.quantiles
    assert a.summary == b.summary == c.summary


@pytest.mark.parametrize("template", [RandomWalk(), WhiteNoise(),
                                      RandomWalk(drift=0.3, y0=-2.0, sigma2=2.5)],
                         ids=["walk", "noise", "drifting_walk"])
@pytest.mark.parametrize("T", [25, 60, 500])
@pytest.mark.parametrize("columns", [1, 3])
def test_null_paths_are_each_replications_sample_values(template, T, columns):
    # one block, yet row i is replication start + i drawn alone, column by column
    start, stop = 17, 29
    paths = _null_paths(template, T, 8, start, stop, columns)
    assert paths.shape == (stop - start, T, columns)
    for i in range(stop - start):
        rng = rng_for(8, start + i)
        for c in range(columns):
            assert np.array_equal(paths[i, :, c], sample_values(template, T, rng))


def test_several_workers_never_run_as_one_chunk():
    # the default chunk size exceeds these reps: one chunk would leave a worker idle
    assert _chunk_bounds(1_000, 2_000, 2) == [(0, 500), (500, 1_000)]
    assert _chunk_bounds(1_000, 2_000, 1) == [(0, 1_000)]
    assert _chunk_bounds(1_000, 300, 2) == [(0, 300), (300, 600), (600, 900), (900, 1_000)]
    kwargs = dict(statistic="adf", params={"deterministic": "drift", "lags": 0},
                  T_sim=50, reps=1_000, seed=3)
    one = mc_critical_values(**kwargs, workers=1)
    two = mc_critical_values(**kwargs, workers=2)
    assert one.quantiles == two.quantiles
    assert one.summary == two.summary


def test_seed_changes_the_draws():
    kwargs = dict(statistic="adf", params={"deterministic": "drift", "lags": 0},
                  T_sim=50, reps=1_000)
    a = mc_critical_values(**kwargs, seed=1)
    b = mc_critical_values(**kwargs, seed=2)
    assert a.quantiles != b.quantiles


def test_left_tail_quantiles_are_ordered():
    run = mc_critical_values("adf", {"deterministic": "drift", "lags": 0},
                             T_sim=100, reps=4_000, seed=9)
    q = run.quantiles
    assert run.tail == "left"
    assert q[0.01] < q[0.05] < q[0.10] < 0.0


def test_right_tail_quantiles_are_ordered():
    run = mc_critical_values("qlr", {"p": 1, "trim": 0.15},
                             T_sim=80, reps=1_000, seed=3)
    q = run.quantiles
    assert run.tail == "right"
    assert q[0.01] > q[0.05] > q[0.10] > 0.0


def test_dickey_fuller_drift_quantiles_near_literature():
    run = mc_critical_values("adf", {"deterministic": "drift", "lags": 0},
                             T_sim=500, reps=20_000, seed=71)
    assert run.quantiles[0.05] == pytest.approx(-2.86, abs=0.06)
    assert run.quantiles[0.01] == pytest.approx(-3.43, abs=0.10)


def test_batched_adf_agrees_with_public_statistic():
    rng = rng_for(123)
    paths = np.vstack([sample_values(RandomWalk(), 200, rng_for(123, r)) for r in range(40)])
    for det, lags in (("drift", 0), ("drift", 2), ("trend", 1), ("none", 0)):
        batched = adf_block_statistic(paths, det, lags)
        direct = np.array([adf_statistic(p, det, lags)[0] for p in paths])
        assert np.array_equal(batched, direct)
    auto = adf_block_statistic(paths, "drift", "auto")
    direct_auto = np.array([adf_statistic(p, "drift", "auto")[0] for p in paths])
    assert np.array_equal(auto, direct_auto)


def test_batched_qlr_agrees_with_public_statistic():
    paths = np.vstack([sample_values(WhiteNoise(), 150, rng_for(9, r)) for r in range(25)])
    taus = qlr_window(150, 1, 0.15)
    scan_max = chow_f_scan(paths, 1, taus).max(axis=1)
    cache = CriticalValueCache(entries=[
        mc_critical_values("qlr", {"p": 1, "trim": 0.15}, T_sim=80, reps=1_000,
                           seed=1).to_entry()
    ])
    for r in range(0, 25, 6):
        rep = qlr_test(TimeSeries(paths[r]), p=1, cv_source=cache)
        assert rep.statistic == scan_max[r]


def test_summary_sums_are_exactly_rounded(monkeypatch):
    # numpy's pairwise mean of these values depends on its blocking; the
    # exactly rounded one does not
    values = np.array([1e16, 1.0, -1e16, 1.0] * 250)

    def chunk(parsed, T, seed, start, stop):
        return values[start:stop]

    monkeypatch.setitem(_STATISTICS, "adf", replace(_STATISTICS["adf"], chunk=chunk))
    run = mc_critical_values("adf", {}, T_sim=50, reps=values.size, seed=1)
    mean = math.fsum(values) / values.size
    assert run.summary["mean"] == mean == 0.5
    assert run.summary["sd"] == math.sqrt(math.fsum((values - mean) ** 2) / (values.size - 1))


def test_to_entry_round_trips_through_a_cache_file(tmp_path):
    run = mc_critical_values("adf", {"deterministic": "drift", "lags": 0},
                             T_sim=50, reps=1_000, seed=44)
    entry = run.to_entry()
    assert entry.statistic == "adf"
    assert entry.tail == "left"
    assert entry.provenance["kind"] == "monte_carlo"
    assert entry.provenance["seed"] == 44
    assert entry.provenance["reps"] == 1_000
    assert "null_dgp" in entry.provenance
    assert entry.summary["count"] == 1_000

    path = tmp_path / "cv.json"
    cache = CriticalValueCache(entries=[entry], generator=run.generator)
    cache.save(str(path))
    loaded = CriticalValueCache.load(str(path))
    got = loaded.lookup("adf", {"deterministic": "drift", "lags": "0"}, run.levels)
    assert got.quantiles == entry.quantiles


def _walks(seed, *names):
    return [TimeSeries(sample_values(RandomWalk(), 100, rng_for(seed, j)), label=nm)
            for j, nm in enumerate(names)]


@pytest.mark.parametrize("call, name", [
    (lambda cache: adf_test(*_walks(1, "y"), cv_source=cache), "ADF"),
    (lambda cache: qlr_test(TimeSeries(sample_values(WhiteNoise(), 100, rng_for(2))), p=1,
                            cv_source=cache), "QLR"),
    (lambda cache: eg_adf_test(*_walks(3, "y", "x"), cv_source=cache), "EG-ADF"),
])
def test_a_cached_entry_with_the_wrong_tail_is_refused(call, name):
    flip = {"left": "right", "right": "left"}
    packaged = default_cache()
    flipped = CriticalValueCache([replace(e, tail=flip[e.tail]) for e in packaged.entries.values()],
                                 generator=packaged.generator)
    call(packaged)  # the packaged entries pass
    with pytest.raises(DomainError, match=f"^cached {name} entry has the wrong tail direction$"):
        call(flipped)


def test_cache_lookup_errors(tmp_path):
    cache = CriticalValueCache(entries=[])
    with pytest.raises(DomainError, match="no cached critical values"):
        cache.lookup("adf", {"deterministic": "drift", "lags": "auto"}, (0.05,))
    run = mc_critical_values("adf", {"deterministic": "drift", "lags": 0},
                             T_sim=50, reps=1_000, seed=1, levels=(0.1, 0.05))
    cache.put(run.to_entry())
    with pytest.raises(DomainError, match="lacks quantiles"):
        cache.lookup("adf", {"deterministic": "drift", "lags": "0"}, (0.01,))


def test_parameter_validation():
    with pytest.raises(DomainError):
        mc_critical_values("adf", {"deterministic": "drift", "lags": 0},
                           T_sim=50, reps=500, seed=1)  # too few reps
    with pytest.raises(DomainError):
        mc_critical_values("adf", {"deterministic": "drift", "lags": 0},
                           T_sim=10, reps=1_000, seed=1)  # T too small
    with pytest.raises(DomainError):
        mc_critical_values("cusum", {}, T_sim=50, reps=1_000, seed=1)
    with pytest.raises(DomainError):
        mc_critical_values("adf", {"deterministic": "hft", "lags": 0},
                           T_sim=50, reps=1_000, seed=1)
    with pytest.raises(DomainError):
        mc_critical_values("egadf", {"n_regressors": 0}, T_sim=50, reps=1_000, seed=1)
    with pytest.raises(DomainError):
        mc_critical_values("qlr", {"p": 1, "trim": 0.15, "bogus": 1},
                           T_sim=50, reps=1_000, seed=1)


def test_size_power_chow_under_null():
    out = size_power_suite(
        "chow",
        null_spec=ArProcess(betas=(0.5,)),
        alt_spec=InterceptBreakAr(beta0_post=1.5, betas=(0.5,)),
        reps=400,
        T=300,
        seed=10,
        params={"p": 1, "tau": 150},
    )
    assert out.test == "chow"
    assert out.reps == 400
    assert abs(out.size - 0.05) < 0.03
    assert out.power > 0.9
    assert out.null_rejections == round(out.size * 400)


def test_size_power_granger_independence_null():
    causal = VarProcess(
        delta=(0.0, 0.0),
        coeff_matrices=(((0.3, 0.8), (0.0, 0.5)),),
        innovation_cov=((1.0, 0.0), (0.0, 1.0)),
    )
    out = size_power_suite(
        "granger",
        null_spec={"y1": ArProcess(betas=(0.3,)), "y2": ArProcess(betas=(0.5,))},
        alt_spec=causal,
        reps=300,
        T=400,
        seed=21,
        params={"cause": "y2", "effect": "y1", "p": 1},
    )
    assert abs(out.size - 0.05) < 0.035
    assert out.power > 0.95


def test_size_power_is_seed_reproducible():
    kwargs = dict(
        test="chow",
        null_spec=ArProcess(betas=(0.4,)),
        alt_spec=InterceptBreakAr(beta0_post=2.0, betas=(0.4,)),
        reps=120,
        T=200,
        seed=33,
        params={"p": 1, "tau": 100},
    )
    a = size_power_suite(**kwargs)
    b = size_power_suite(**kwargs)
    c = size_power_suite(**kwargs, workers=2, chunk_size=40)
    assert (a.size, a.power) == (b.size, b.power) == (c.size, c.power)


def test_size_power_validates_before_simulating(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("simulated before validating")

    for name in ("simulate", "rng_for", "sample_values"):
        monkeypatch.setattr(tsecon.montecarlo, name, no_draws)
    kwargs = dict(test="chow", null_spec=ArProcess(betas=(0.4,)),
                  alt_spec=InterceptBreakAr(beta0_post=2.0, betas=(0.4,)),
                  reps=10, T=100, params={"p": 1, "tau": 50})
    with pytest.raises(DomainError, match="workers must be a positive integer"):
        size_power_suite(**kwargs, workers=0)
    with pytest.raises(DomainError, match="chunk_size must be a positive integer"):
        size_power_suite(**kwargs, chunk_size=0)
    with pytest.raises(DomainError, match="unknown test 'cusum'; choose from adf, qlr, chow"):
        size_power_suite(**{**kwargs, "test": "cusum"})
    with pytest.raises(DomainError, match=r"level 0.02 not among computed levels"):
        size_power_suite(**kwargs, level=0.02)

    # report params: missing, unknown or not a number of the right kind
    noise = dict(null_spec=WhiteNoise(), alt_spec=WhiteNoise(), reps=1, T=100)
    bad_params = [
        ("qlr", {}, "qlr requires parameter 'p'"),
        ("qlr", {"p": 1, "lags": 2}, r"unknown qlr parameters: \['lags'\]"),
        ("qlr", {"p": "abc"}, "qlr parameter 'p' must be a number"),
        ("chow", {"p": 1}, "chow requires parameter 'tau'"),
        ("chow", {"p": 1, "tau": 50.5}, "chow parameter 'tau' must be an integer"),
        ("granger", {"cause": "x", "effect": "y"}, "granger requires parameter 'p'"),
        ("granger", {"cause": "x", "effect": "y", "p": 1, "q": 2},
         r"unknown granger parameters: \['q'\]"),
        ("adf", {"lags": "x"}, "adf parameter 'lags' must be a number"),
        ("adf", {"deterministic": "none"}, "deterministic must be 'drift' or 'trend'"),
        ("egadf", {"y": "y", "x": ["x"]}, r"unknown egadf parameters: \['x'\]"),
        ("egadf", {"y": "y", "xs": "x1"},
         "egadf parameter 'xs' must be a list of series names, got 'x1'"),
    ]
    for test, params, message in bad_params:
        with pytest.raises(DomainError, match=message):
            size_power_suite(test, params=params, **noise)

    # the same parsers guard mc_critical_values, which draws through rng_for
    bad_mc = [
        ("qlr", {"p": "abc"}, "qlr parameter 'p' must be a number, got 'abc'"),
        ("qlr", {"p": 1, "trim": "wide"}, "qlr parameter 'trim' must be a number"),
        ("adf", {"lags": "x"}, "adf parameter 'lags' must be a number, got 'x'"),
        ("adf", {"lags": 1.5}, "adf parameter 'lags' must be an integer, got 1.5"),
        ("egadf", {"n_regressors": 2.7}, "egadf parameter 'n_regressors' must be an integer"),
        ("egadf", {"n_regressors": None}, "egadf parameter 'n_regressors' must be a number"),
    ]
    for statistic, params, message in bad_mc:
        with pytest.raises(DomainError, match=message):
            mc_critical_values(statistic, params, T_sim=50, reps=1_000, seed=1)

    # integral values keep today's canonical params, and so today's cache keys
    for statistic, a, b, canon in [
        ("qlr", {"p": "2", "trim": "0.2"}, {"p": 2.0, "trim": 0.2}, {"p": 2, "trim": "0.2"}),
        ("adf", {"lags": "3"}, {"lags": np.int64(3)}, {"deterministic": "drift", "lags": 3}),
        ("egadf", {"n_regressors": "3"}, {"n_regressors": 3}, {"n_regressors": 3}),
    ]:
        parse = _STATISTICS[statistic].parse
        assert parse(a)[0] == parse(b)[0] == canon
        assert all(type(v) is type(canon[k]) for k, v in parse(a)[0].items())


def test_size_power_egadf_names_a_missing_series():
    with pytest.raises(DomainError, match="data is missing series 'z'"):
        size_power_suite("egadf", {"y": RandomWalk(), "x": RandomWalk()}, CointegratedPair(),
                         reps=1, T=100, params={"y": "y", "xs": ["z"]})


def _load_build_cache():
    path = Path(__file__).resolve().parents[1] / "tools" / "build_cache.py"
    spec = importlib.util.spec_from_file_location("build_cache", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _walk(seed, label="y"):
    return TimeSeries(simulate(RandomWalk(seed=seed), 120).values, label=label)


# Per simulated statistic: mc_critical_values params and T_sim, the params and
# data of its size/power report call, which must resolve the simulated entry.
_ROUND_TRIPS = {
    "adf": ({"deterministic": "trend", "lags": 1}, 50,
            {"deterministic": "trend", "lags": 1}, lambda: _walk(1)),
    "qlr": ({"p": 2, "trim": 0.2}, 80,
            {"p": 2, "trim": 0.2}, lambda: simulate(WhiteNoise(seed=2), 120)),
    "egadf": ({"n_regressors": 2}, 50,
              {"y": "y", "xs": ["x1", "x2"]},
              lambda: {"y": _walk(3), "x1": _walk(4, "x1"), "x2": _walk(5, "x2")}),
}


@pytest.mark.parametrize("name", _SIMULATED)
def test_registry_entry_is_wired_end_to_end(name):
    stat = _STATISTICS[name]
    assert stat.tail in ("left", "right") and stat.null_dgp

    # simulated quantiles, cached in memory, are what the public test resolves
    mc_params, T_sim, sp_params, data = _ROUND_TRIPS[name]
    run = mc_critical_values(name, mc_params, T_sim=T_sim, reps=1_000, seed=17)
    entry = run.to_entry()
    assert entry.tail == stat.tail
    report = stat.report(data(), CriticalValueCache(entries=[entry]), stat.args(sp_params))
    assert report.tail == stat.tail
    assert report.critical_values == entry.quantiles
    assert report.cv_provenance == entry.provenance

    # the CLI offers exactly the simulated statistics
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    statistic = next(a for a in sub.choices["mc-critical"]._actions if a.dest == "statistic")
    assert tuple(statistic.choices) == _SIMULATED

    # every packaged configuration parses and matches the packaged file
    tool = _load_build_cache()
    assert {row[0] for row in tool.MC_TARGETS} <= set(_SIMULATED)
    ref = resources.files("tsecon").joinpath("data/critical_values.json")
    with resources.as_file(ref) as path:
        packaged = CriticalValueCache.load(str(path))
    for statistic_name, params, seed in tool.MC_TARGETS:
        if statistic_name != name:
            continue
        canon, _ = stat.parse(params)
        cached = packaged.entries[_params_key(name, canon)]
        assert cached.tail == stat.tail
        assert cached.provenance["seed"] == seed
        assert cached.provenance["T_sim"] == tool.T_SIM
        assert cached.provenance["null_dgp"] == stat.null_dgp
