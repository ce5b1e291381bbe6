"""Per-model metric reports, alpha statistics, ranking, and annual savings.

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

from .errors import InconsistentInputsError, MixedCrossSectionsError
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
    first_date: int
    last_date: int

    @property
    def fingerprint(self) -> tuple[int, int, int, int]:
        return (self.n, self.T, self.first_date, self.last_date)


@dataclass(frozen=True)
class RankTable:
    """Reports in input order plus the ranking permutation (ascending AD)."""

    rows: tuple[MetricsReport, ...]
    order: tuple[int, ...]

    def ranked(self) -> list[MetricsReport]:
        return [self.rows[i] for i in self.order]


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
    the GRS statistic and p-value, or ``None`` where the test is undefined.

    Raises
    ------
    InconsistentInputsError
        Dimension mismatch between the inputs, or a breakdown that cannot
        have come from the given fit (mean absolute alpha exceeding its
        root-mean-square).
    """
    if breakdown.n != fit.n:
        raise InconsistentInputsError(
            f"dimensions disagree: fit n={fit.n}, breakdown {breakdown.n}"
        )
    mae, mae_over_ar, mean_r2 = alpha_stats(fit)
    if mae > breakdown.rmse_alpha + 1e-12:
        raise InconsistentInputsError(
            f"MAE {mae:.6e} exceeds RMSE {breakdown.rmse_alpha:.6e}; "
            "fit and breakdown are not from the same model"
        )
    grs_stat, grs_pvalue = (None, None) if grs is None else grs
    return MetricsReport(
        model_name=fit.model.name,
        n=fit.n,
        T=fit.T,
        k=fit.k,
        td=breakdown.td,
        ad=breakdown.ad,
        rmse_alpha=breakdown.rmse_alpha,
        rmse_sigma=breakdown.rmse_sigma,
        ratio_var=breakdown.ratio_var,
        grs=grs_stat,
        grs_pvalue=grs_pvalue,
        mae=mae,
        mae_over_ar=mae_over_ar,
        mean_r2=mean_r2,
        marginal=breakdown.marginal,
        first_date=fit.first_date,
        last_date=fit.last_date,
    )


def _check_same_cross_section(reports: list[MetricsReport] | tuple[MetricsReport, ...]) -> None:
    first = reports[0].fingerprint
    for r in reports[1:]:
        if r.fingerprint != first:
            raise MixedCrossSectionsError(
                f"{reports[0].model_name} on {first} vs "
                f"{r.model_name} on {r.fingerprint}"
            )


def rank_models(reports: list[MetricsReport]) -> RankTable:
    """Rank by ascending average distance; ties broken by TD, then name.

    Raises
    ------
    MixedCrossSectionsError
        Reports come from different cross sections.
    """
    if not reports:
        raise ValueError("no reports to rank")
    _check_same_cross_section(reports)
    order = sorted(range(len(reports)),
                   key=lambda i: (reports[i].ad, reports[i].td,
                                  reports[i].model_name))
    return RankTable(rows=tuple(reports), order=tuple(order))


def annual_savings(report_a: MetricsReport, report_b: MetricsReport) -> float:
    """Annualized transport-cost saving of model B over model A.

    ``(td_a - td_b) * 12`` in percent per annum; positive when B is the
    cheaper model to believe dogmatically.
    """
    _check_same_cross_section([report_a, report_b])
    return (report_a.td - report_b.td) * 12.0
