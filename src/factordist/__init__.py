"""Distance-based comparison of asset-pricing factor models.

Fits time-series factor regressions on cross sections of test portfolios
and compares models through the quadratic Wasserstein distance between
Gaussian pricing-error distributions (total, average, and per-asset
marginal distance), alongside the GRS statistic and alpha-based statistics.
Includes the conjugate Bayesian posterior for any prior mispricing
uncertainty and a solver for distance-equivalent priors.
"""

__version__ = "0.1.0"

import importlib

# Each public name and the module that defines it. Names resolve on first
# access (PEP 562), so a command imports only the modules it uses.
_MODULE_OF = {
    **dict.fromkeys(["GaussianDist", "PosteriorFamily", "posterior_alpha_dogmatic",
                     "posterior_alpha_skeptic", "sigma_annual_to_monthly",
                     "skeptic_moments"], "bayes"),
    **dict.fromkeys(["Dataset", "ModelSpec", "ReturnsPanel", "build_dataset",
                     "concat_panels", "load_models", "load_panel"], "dataio"),
    **dict.fromkeys(["EquivResult", "SweepRow", "solve_equiv", "sweep"], "equiv"),
    **dict.fromkeys(["f_cdf_upper", "spd_sqrt", "symmetrize"], "linalg"),
    **dict.fromkeys(["MetricsReport", "alpha_stats", "build_report",
                     "rank_models"], "metrics"),
    **dict.fromkeys(["RegressionFit", "fit_ols", "grs_test", "sharpe_sq"],
                    "regression"),
    **dict.fromkeys(["RNG_ALGORITHM", "SynthConfig", "generate", "power_scenario"],
                    "synth"),
    **dict.fromkeys(["DistanceBreakdown", "distance_breakdown", "transport_map",
                     "wd2_components", "wd2_gaussian"], "transport"),
}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


__all__ = ["__version__", *_MODULE_OF]
