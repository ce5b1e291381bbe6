"""Quadratic Wasserstein distance between Gaussians and the distance metrics.

For Gaussians N(m1, V1) and N(m2, V2) the squared distance is

    WD2^2 = ||m2 - m1||^2 + Tr(V1 + V2 - 2 (V1^{1/2} V2 V1^{1/2})^{1/2})

and the optimal map from the first onto the second (V1 positive definite) is

    T = V1^{-1/2} (V1^{1/2} V2 V1^{1/2})^{1/2} V1^{-1/2},

which pushes V1 forward onto V2: T V1 T' = V2.

Measuring from the point mass at zero to a posterior N(a, V), the trace term
degenerates to Tr(V) and the distance splits asset by asset, giving the
total distance sqrt(sum a_i^2 + sum v_ii), its per-asset average, and the
marginal contribution sqrt(a_i^2 + v_ii) of each asset. That distance
therefore takes only the mean a and the variances v_ii, which
``bayes.skeptic_moments`` gives in O(n) for the skeptic posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import GaussianDist
from .errors import DimMismatchError, NonFiniteError, SingularSourceError
from .linalg import TRACE_SNAP_REL, spd_sqrt, symmetrize

# Relative eigenvalue threshold below which a source covariance cannot be mapped.
SOURCE_RANK_REL = 1e-12


def wd2_components(p1: GaussianDist, p2: GaussianDist) -> tuple[float, float]:
    """Squared mean-shift and covariance trace terms of the distance.

    ``wd2_gaussian(p1, p2) == sqrt(sum(wd2_components(p1, p2)))``. The split
    backs the component columns of the sigma-alpha sweeps.
    """
    if p1.dim != p2.dim:
        raise DimMismatchError(f"dimensions differ: {p1.dim} vs {p2.dim}")
    shift = p2.mean - p1.mean
    mean_sq = float(shift @ shift)
    root1 = spd_sqrt(p1.cov)
    cross = spd_sqrt(root1 @ p2.cov @ root1)
    total_trace = float(np.trace(p1.cov) + np.trace(p2.cov))
    trace_term = total_trace - 2.0 * float(np.trace(cross))
    if trace_term <= TRACE_SNAP_REL * total_trace:
        trace_term = 0.0
    return mean_sq, trace_term


def wd2_gaussian(p1: GaussianDist, p2: GaussianDist) -> float:
    """Quadratic Wasserstein distance between two Gaussians.

    Symmetric in its arguments, non-negative, and zero exactly when the
    distributions coincide. Either covariance may be singular or zero.

    Raises
    ------
    DimMismatchError
        If the distributions have different dimensions.
    """
    mean_sq, trace_term = wd2_components(p1, p2)
    return math.sqrt(mean_sq + trace_term)


def transport_map(p1: GaussianDist, p2: GaussianDist) -> np.ndarray:
    """Optimal linear map carrying the first Gaussian onto the second.

    Requires a positive-definite source covariance. In one dimension the
    map is the scalar sigma2 / sigma1; the converse map is the inverse.

    Raises
    ------
    SingularSourceError
        If the source covariance is not positive definite.
    DimMismatchError
        If the distributions have different dimensions.
    """
    if p1.dim != p2.dim:
        raise DimMismatchError(f"dimensions differ: {p1.dim} vs {p2.dim}")
    w, v = np.linalg.eigh(p1.cov)
    if float(w.min()) <= SOURCE_RANK_REL * float(np.abs(w).max()):
        raise SingularSourceError(
            f"source covariance has eigenvalue {w.min():.3e}; map undefined"
        )
    root1 = (v * np.sqrt(w)) @ v.T
    root1_inv = (v / np.sqrt(w)) @ v.T
    cross = spd_sqrt(root1 @ p2.cov @ root1)
    return symmetrize(root1_inv @ cross @ root1_inv)


@dataclass(frozen=True)
class DistanceBreakdown:
    """Distance metrics of one posterior against the point mass at zero.

    All fields are in percent per month except the dimensionless
    ``ratio_var``, the variance share sum(v_ii) / sum(a_i^2) (infinite when
    every alpha is zero).
    """

    td: float
    ad: float
    rmse_alpha: float
    rmse_sigma: float
    marginal: np.ndarray
    ratio_var: float


def distance_metrics(mean_sq: float, trace_term: float,
                     n: int) -> tuple[float, float, float, float, float]:
    """TD, AD, RMSE_alpha, RMSE_sigma and ratio_var on n assets from the
    squared mean shift and the trace term: the one formula behind
    :func:`distance_breakdown` and every sweep row."""
    td = math.sqrt(mean_sq + trace_term)
    return (td, td / math.sqrt(n), math.sqrt(mean_sq / n), math.sqrt(trace_term / n),
            trace_term / mean_sq if mean_sq > 0.0 else math.inf)


def distance_breakdown(alpha: np.ndarray, var: np.ndarray) -> DistanceBreakdown:
    """Per-asset decomposition of the distance from dogmatic belief to a
    posterior with mean ``alpha`` and non-negative variances ``var``.

    The trace is basis-free, so the diagonal gives the full-matrix distance
    from the zero point mass. Raises NonFiniteError where that overflows.
    """
    with np.errstate(over="ignore"):
        mean_sq, var_sum = float(alpha @ alpha), float(var.sum())
    if not math.isfinite(mean_sq + var_sum):
        raise NonFiniteError("returns too large: the distance overflows")
    td, ad, rmse_alpha, rmse_sigma, ratio_var = distance_metrics(
        mean_sq, var_sum, alpha.shape[0])
    return DistanceBreakdown(td, ad, rmse_alpha, rmse_sigma,
                             np.sqrt(alpha**2 + var), ratio_var)
