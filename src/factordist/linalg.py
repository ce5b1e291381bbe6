"""Dense symmetric-matrix kernels and the F-distribution upper tail.

Everything operates on plain float64 numpy arrays. Symmetric inputs are
validated and re-symmetrized on entry so downstream factorizations see
exactly symmetric data. All functions are pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidDoFError,
    NoConvergenceError,
    NotPDError,
    NotPSDError,
    NotSymmetricError,
)

# Relative asymmetry accepted before a matrix is rejected.
SYMMETRY_TOL = 1e-12
# Eigenvalues in [-PSD_CLAMP_REL * ||M||_2, 0) are treated as roundoff.
PSD_CLAMP_REL = 1e-10
# Transport trace residues below this fraction of the total trace are
# cancellation noise; they must collapse to exactly zero or the square root
# inflates them (sqrt(1e-15) is a visible 3e-8).
TRACE_SNAP_REL = 1e-13
# Cholesky pivots at or below CHOL_PIVOT_REL * trace(M) / dim reject the matrix.
CHOL_PIVOT_REL = 1e-14


def symmetrize(m: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Return (M + M') / 2 after checking M is square and symmetric.

    The asymmetry tolerance is relative to max(1, max|entry|).

    Raises
    ------
    NotSymmetricError
        If M is not square or max|M - M'| exceeds the tolerance.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise NotSymmetricError("empty matrix")
    scale = max(1.0, float(np.abs(a).max()))
    gap = float(np.abs(a - a.T).max())
    if gap > tol * scale:
        raise NotSymmetricError(
            f"asymmetry {gap:.3e} exceeds tolerance {tol * scale:.3e}"
        )
    return (a + a.T) / 2.0


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


def cholesky_spd(m: np.ndarray, pivot_tol_factor: float = CHOL_PIVOT_REL) -> np.ndarray:
    """Lower-triangular Cholesky factor with an explicit pivot threshold.

    A pivot at or below ``pivot_tol_factor * trace(M) / dim`` raises
    NotPDError, which callers use both to reject singular covariance
    matrices and to detect rank deficiency (with a looser factor).
    """
    a = symmetrize(m)
    n = a.shape[0]
    tol = pivot_tol_factor * max(float(np.trace(a)), 0.0) / n
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - float(lower[j, :j] @ lower[j, :j])
        if pivot <= tol:
            raise NotPDError(f"pivot {pivot:.3e} at column {j} is <= {tol:.3e}")
        ljj = math.sqrt(pivot)
        lower[j, j] = ljj
        if j + 1 < n:
            lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / ljj
    return lower


def chol_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M @ Z = B for symmetric positive-definite M via Cholesky.

    Parameters
    ----------
    m : (d, d) symmetric positive-definite matrix
    b : (d,) vector or (d, p) matrix of right-hand sides

    Raises
    ------
    NotPDError
        If a Cholesky pivot falls at or below the threshold.
    """
    lower = cholesky_spd(m)
    b = np.asarray(b, dtype=float)
    y = np.linalg.solve(lower, b)
    return np.linalg.solve(lower.T, y)


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
        If x is negative.
    """
    if d1 < 1 or d2 < 1:
        raise InvalidDoFError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    x = float(x)
    if x < 0.0:
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


def _beta_cont_frac(a: float, b: float, x: float, max_iter: int = 200,
                    eps: float = 1e-12) -> float:
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
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise NoConvergenceError(
        f"incomplete beta continued fraction: no convergence in {max_iter} steps"
    )
