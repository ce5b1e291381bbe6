"""Per-model metric reports, alpha statistics, ranking and the GRS test.

A report is one table row per model on a fixed cross section: the distance
metrics alongside the GRS statistic and the classic alpha-based statistics.
Models are ranked by ascending average distance; GRS and mean absolute
alpha are reported but never used for ordering. GRS is missing (``None``)
where the joint test is undefined, while the distance is still reported.

The GRS test of Gibbons, Ross & Shanken (1989), with its F upper tail, lives
here because only ``rank`` reads it: ``cli.cmd_rank`` imports this module,
and a model's deferred GRS from ``regression._fit_models`` imports it when
first called, so ``sweep`` and ``equiv`` load no GRS code.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bayes import DistanceBreakdown
from .errors import (
    DegenerateDoFError,
    InvalidDoFError,
    NoConvergenceError,
    NotPDError,
    SingularResidualCovError,
)
from .linalg import cholesky_spd, solve_lower, symmetrize
from .regression import RegressionFit, sharpe_sq

# Step cap and relative step tolerance of the incomplete-beta continued fraction.
BETA_CF_MAX_ITER = 200
BETA_CF_EPS = 1e-12
# What grs_test raises where the test is undefined.
GRS_UNDEFINED = (DegenerateDoFError, SingularResidualCovError)


class MetricsReport(NamedTuple):
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
                         mae_over_ar=mae_over_ar, mean_r2=mean_r2, **breakdown._asdict())


def rank_models(reports: list[MetricsReport]) -> list[MetricsReport]:
    """The reports ranked by ascending average distance; ties broken by TD,
    then name."""
    if not reports:
        raise ValueError("no reports to rank")
    return sorted(reports, key=lambda r: (r.ad, r.td, r.model_name))


def grs_test(fit: RegressionFit) -> tuple[float, float]:
    """Finite-sample joint F test that all alphas are zero.

    Returns the statistic
    ``(T - n - k) / n * (1 + Sh^2)^{-1} * a' Sigma^{-1} a`` and its p-value
    from the F(n, T - n - k) upper tail, after ``symmetrize`` checks Sigma.

    Raises
    ------
    DegenerateDoFError
        If T - n - k < 1.
    SingularResidualCovError
        If the residual covariance cannot be inverted.
    """
    dof2 = _grs_dof(fit)
    try:
        lower = cholesky_spd(symmetrize(fit.sigma_mle))
    except NotPDError as exc:
        raise SingularResidualCovError(
            f"residual covariance singular (n={fit.n}, T={fit.T}): {exc}"
        ) from None
    # a' Sigma^{-1} a = |L^{-1} a|^2 with Sigma = L L'.
    return _grs(fit, dof2, solve_lower(lower, fit.alpha_hat), np.empty((fit.n, 0)))


def _grs_dof(fit: RegressionFit) -> int:
    """The GRS denominator degrees of freedom T - n - k; DegenerateDoFError below 1."""
    dof2 = fit.T - fit.n - fit.k
    if dof2 < 1:
        raise DegenerateDoFError(
            f"T - n - k = {fit.T} - {fit.n} - {fit.k} = {dof2} < 1"
        )
    return dof2


def _grs(fit: RegressionFit, dof2: int, y: np.ndarray,
         w: np.ndarray) -> tuple[float, float]:
    """GRS statistic and p-value from a' Sigma^{-1} a = y'(I + W W')^{-1} y,
    taken as |y - Q Q'y|^2 + z'(I + R R')^{-1} z with W = QR and z = Q'y: two
    non-negative terms, no cancellation (|y|^2 for an empty W; y and W from
    ``regression._fit_models``' union basis or :func:`grs_test`). The Woodbury
    form y'y - ... cancels: with dropped loadings 1000 times larger it lost up
    to 4e-8 relative, the projection form 7e-12 against a 50-digit reference."""
    q, r = np.linalg.qr(w)
    z = q.T @ y
    perp = y - q @ z
    quad = float(perp @ perp) + float(z @ np.linalg.solve(np.eye(len(z)) + r @ r.T, z))
    stat = dof2 / fit.n * quad / (1.0 + sharpe_sq(fit))
    return stat, f_cdf_upper(stat, fit.n, dof2)


def f_cdf_upper(x: float, d1: int, d2: int) -> float:
    """Upper-tail probability P(F_{d1,d2} > x) of the F distribution.

    Evaluated through the regularized incomplete beta function,
    P(F > x) = I_{d2/(d2 + d1 x)}(d2/2, d1/2), with the continued fraction
    computed by the modified Lentz iteration.

    Raises
    ------
    InvalidDoFError
        If either degrees-of-freedom argument is below one.
    ValueError
        If x is negative or NaN.
    """
    if d1 < 1 or d2 < 1:
        raise InvalidDoFError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    x = float(x)
    if not x >= 0.0:
        raise ValueError(f"F statistic must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    xb = d2 / (d2 + d1 * x)
    return _reg_inc_beta(d2 / 2.0, d1 / 2.0, xb)


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        + math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        value = front * _beta_cont_frac(a, b, x) / a
    else:
        value = 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b
    return min(max(value, 0.0), 1.0)


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz method)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        # One Lentz step for the even numerator, one for the odd.
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                    -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + num * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + num / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < BETA_CF_EPS:
            return h
    raise NoConvergenceError(
        f"incomplete beta continued fraction: no convergence in {BETA_CF_MAX_ITER} steps"
    )
