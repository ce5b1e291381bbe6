"""Distance-based comparison of asset-pricing factor models.

Fits time-series factor regressions on cross sections of test portfolios
and compares models through the quadratic Wasserstein distance between
Gaussian pricing-error distributions (total, average, and per-asset
marginal distance), alongside the GRS statistic and alpha-based statistics.
Includes the conjugate Bayesian posterior for any prior mispricing
uncertainty and a solver for distance-equivalent priors.
"""

__version__ = "0.1.0"

from .bayes import (
    GaussianDist,
    PosteriorFamily,
    posterior_alpha_dogmatic,
    posterior_alpha_skeptic,
    sigma_annual_to_monthly,
    skeptic_moments,
)
from .dataio import (
    Dataset,
    ModelSpec,
    ReturnsPanel,
    build_dataset,
    concat_panels,
    load_models,
    load_panel,
)
from .equiv import EquivResult, SweepRow, solve_equiv, sweep
from .linalg import f_cdf_upper, spd_sqrt, symmetrize
from .metrics import (
    MetricsReport,
    alpha_stats,
    build_report,
    rank_models,
)
from .regression import RegressionFit, fit_ols, grs_test, sharpe_sq
from .synth import RNG_ALGORITHM, SynthConfig, generate, power_scenario
from .transport import (
    DistanceBreakdown,
    distance_breakdown,
    transport_map,
    wd2_components,
    wd2_gaussian,
)

__all__ = [
    "__version__",
    "ReturnsPanel", "ModelSpec", "Dataset",
    "load_panel", "load_models", "build_dataset", "concat_panels",
    "RegressionFit", "fit_ols", "sharpe_sq", "grs_test",
    "GaussianDist", "PosteriorFamily",
    "posterior_alpha_dogmatic", "posterior_alpha_skeptic", "skeptic_moments",
    "sigma_annual_to_monthly",
    "wd2_gaussian", "wd2_components", "transport_map",
    "DistanceBreakdown", "distance_breakdown",
    "MetricsReport", "alpha_stats", "build_report", "rank_models",
    "SweepRow", "EquivResult", "sweep", "solve_equiv",
    "SynthConfig", "generate", "power_scenario", "RNG_ALGORITHM",
    "spd_sqrt", "f_cdf_upper", "symmetrize",
]
