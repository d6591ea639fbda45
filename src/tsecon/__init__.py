"""Time-series econometrics toolkit.

Covers autoregressive and vector autoregressive modeling, information
criterion lag selection, unit-root and structural-break testing, Granger
causality, cointegration (residual-based test and dynamic OLS), and a Monte
Carlo engine that derives critical values and checks test size and power.

Importing the package loads none of its modules: each exported name, and
each submodule, is imported on first access (PEP 562), so a one-shot command
pays only for the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each exported name, by the module that owns it.
_EXPORTS = {
    "armodel": (
        "Ar1Moments", "ArFit", "ForecastResult", "LagPolynomial", "MaMoments",
        "StabilityReport", "ar1_moments", "companion_matrix", "fit_ar", "forecast_ar",
        "is_stationary", "ma_moments", "pseudo_out_of_sample_rmsfe", "stability",
    ),
    "breaks": ("chow_f_scan", "chow_test", "qlr_test", "qlr_window"),
    "cointegration": (
        "EG_ADF_CRITICAL_VALUES", "CointFit", "DolsFit", "IntegrationReport", "dols",
        "eg_adf_test", "integration_order",
    ),
    "cvcache": ("CriticalValueCache", "CvEntry", "default_cache"),
    "dgp": (
        "ArmaProcess", "ArProcess", "CointegratedPair", "InterceptBreakAr", "MaProcess",
        "RandomWalk", "VarProcess", "WhiteNoise", "rng_for", "sample_values", "simulate",
    ),
    "errors": ("CollinearityError", "DomainError"),
    "lagselect": ("CriterionTable", "select_ar_order", "select_var_order"),
    "montecarlo": ("McRun", "SizePower", "mc_critical_values", "size_power_suite"),
    "ols": (
        "Design", "DesignSpec", "FTest", "OlsFit", "build_design", "f_statistic",
        "fit_design", "solve_ols",
    ),
    "report": ("DEFAULT_LEVELS", "TestReport"),
    "series": ("SampleMoments", "TimeSeries", "difference", "lag", "sample_moments"),
    "unitroot": ("AdfSpec", "adf_test"),
    "varmodel": (
        "VarFit", "fit_var", "forecast_var", "granger_test", "var_autocovariances", "var_mean",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
