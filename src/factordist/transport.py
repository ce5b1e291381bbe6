"""Dense Gaussian forms: posteriors as distributions, and the quadratic
Wasserstein distance and optimal map between Gaussians.

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
``bayes.skeptic_moments`` gives in O(n) for the skeptic posterior and
``bayes.distance_breakdown`` turns into the reported metrics.

The n x n forms here are the paper's definitions: :class:`GaussianDist`,
the dogmatic and skeptic posteriors and the closed form between them
(``bayes.PosteriorFamily.at``), :func:`spd_sqrt`, and the distance and map
between two Gaussians. No command imports this module: ``rank``, ``sweep``
and ``equiv`` take the same distances from ``bayes``' O(n) moments and
quadrature tables, which the tests hold to these forms.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bayes import _scale, _skeptic_parts
from .dataio import _Checked
from .errors import DimMismatchError, NotPSDError, SingularSourceError
from .linalg import symmetrize
from .regression import RegressionFit

# Eigenvalues in [-PSD_CLAMP_REL * ||M||_2, 0) are treated as roundoff.
PSD_CLAMP_REL = 1e-10
# wd2_components: trace residues below this fraction of the total trace are
# cancellation noise; they must collapse to exactly zero or the square root
# inflates them (sqrt(1e-15) is a visible 3e-8).
TRACE_SNAP_REL = 1e-13
# Relative eigenvalue threshold below which a source covariance cannot be mapped.
SOURCE_RANK_REL = 1e-12


class _GaussianFields(NamedTuple):
    mean: np.ndarray
    cov: np.ndarray


class GaussianDist(_Checked, _GaussianFields):
    """Gaussian distribution of pricing errors: mean vector plus covariance.

    The degenerate point mass at zero is represented by a zero mean and a
    zero covariance matrix.
    """

    __slots__ = ()

    def __new__(cls, mean, cov):
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = symmetrize(cov)
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean has {mean.shape[0]} entries but cov is {cov.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("distribution moments must be finite")
        return super().__new__(cls, mean, cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def spd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root S of a symmetric PSD matrix, S @ S == M.

    Computed by eigendecomposition of the symmetrized input. Eigenvalues
    within roundoff below zero (at least -PSD_CLAMP_REL times the spectral
    norm) are clamped to zero, so exactly singular and zero matrices are
    accepted.

    Raises
    ------
    NotSymmetricError
        If the input is materially asymmetric.
    NotPSDError
        If an eigenvalue lies below the clamping band.
    """
    a = symmetrize(m)
    w, v = np.linalg.eigh(a)
    spectral = float(np.abs(w).max())
    if float(w.min()) < -PSD_CLAMP_REL * spectral:
        raise NotPSDError(
            f"eigenvalue {w.min():.3e} below -{PSD_CLAMP_REL:g} * ||M|| = "
            f"{-PSD_CLAMP_REL * spectral:.3e}"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def posterior_alpha_dogmatic(n: int) -> GaussianDist:
    """Point mass at zero: the posterior under a dogmatic (sigma = 0) prior."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return GaussianDist(np.zeros(n), np.zeros((n, n)))


def posterior_alpha_skeptic(fit: RegressionFit) -> GaussianDist:
    """Data-based posterior at sigma = inf, from a fit's sufficient statistics.

    Mean equals the OLS alphas exactly; covariance is
    ``(1 + Sh^2) / T * (s^2 I + S) / (T + 1)`` with S the residual
    cross-product matrix.
    """
    return _closed_form(fit, 0.0, *_skeptic_parts(fit))


def _closed_form(fit: RegressionFit, lam: float, s2: float, u0: float) -> GaussianDist:
    """Posterior at finite prior precision lam: N(c alpha_hat, u0 c / (T + 1)
    (A + lam c alpha_hat alpha_hat')) with c = 1 / (1 + lam u0); lam = 0 is the
    skeptic. s2 and u0 are ``bayes._skeptic_parts`` of the fit.
    """
    cov = _scale(fit, s2)
    c = 1.0 / (1.0 + lam * u0)
    alpha = fit.alpha_hat
    if lam != 0.0:
        cov += lam * c * np.outer(alpha, alpha)
    cov *= u0 * c / (fit.T + 1)
    return GaussianDist(c * alpha, cov)


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
