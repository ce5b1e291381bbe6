"""Per-model metric reports, alpha statistics, and ranking.

A report is one table row per model on a fixed cross section: the distance
metrics alongside the GRS statistic and the classic alpha-based statistics.
Models are ranked by ascending average distance; GRS and mean absolute
alpha are reported but never used for ordering. GRS is missing (``None``)
where the joint test is undefined, while the distance is still reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regression import RegressionFit
from .transport import DistanceBreakdown


@dataclass(frozen=True)
class MetricsReport:
    """One model's metric row.

    Distance fields are copied from the breakdown, never recomputed.
    ``mae_over_ar`` is the mean absolute alpha over the mean absolute
    deviation of asset means from their cross-sectional average (infinite
    for a flat cross section). ``grs`` and ``grs_pvalue`` are ``None`` where
    the joint test is undefined.
    """

    model_name: str
    n: int
    T: int
    k: int
    td: float
    ad: float
    rmse_alpha: float
    rmse_sigma: float
    ratio_var: float
    grs: float | None
    grs_pvalue: float | None
    mae: float
    mae_over_ar: float
    mean_r2: float
    marginal: np.ndarray


def alpha_stats(fit: RegressionFit) -> tuple[float, float, float]:
    """Mean absolute OLS alpha, its share of unexplained returns, and mean R^2.

    The share divides by the mean absolute deviation of asset mean returns
    from their cross-sectional average; a flat cross section yields an
    infinite share.
    """
    mae = float(np.abs(fit.alpha_hat).mean())
    deviations = fit.asset_mean - fit.asset_mean.mean()
    denom = float(np.abs(deviations).mean())
    mae_over_ar = mae / denom if denom > 0.0 else math.inf
    return mae, mae_over_ar, float(fit.r2.mean())


def build_report(fit: RegressionFit, breakdown: DistanceBreakdown,
                 grs: tuple[float, float] | None) -> MetricsReport:
    """Assemble one model's report row from same-model pieces; ``grs`` is
    the GRS statistic and p-value, or ``None`` where the test is undefined."""
    mae, mae_over_ar, mean_r2 = alpha_stats(fit)
    grs_stat, grs_pvalue = (None, None) if grs is None else grs
    return MetricsReport(model_name=fit.model.name, n=fit.n, T=fit.T, k=fit.k,
                         grs=grs_stat, grs_pvalue=grs_pvalue, mae=mae,
                         mae_over_ar=mae_over_ar, mean_r2=mean_r2, **vars(breakdown))


def rank_models(reports: list[MetricsReport]) -> list[MetricsReport]:
    """The reports ranked by ascending average distance; ties broken by TD,
    then name."""
    if not reports:
        raise ValueError("no reports to rank")
    return sorted(reports, key=lambda r: (r.ad, r.td, r.model_name))
