"""Dense symmetric-matrix kernels, the rank-one square-root trace and the
F-distribution upper tail.

Everything operates on plain float64 numpy arrays. Symmetric inputs are
validated and re-symmetrized on entry so downstream factorizations see
exactly symmetric data. All functions are pure, and a RankOneQuadrature
table does not change once built.
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
# transport.wd2_components: trace residues below this fraction of the total
# trace are cancellation noise; they must collapse to exactly zero or the
# square root inflates them (sqrt(1e-15) is a visible 3e-8).
TRACE_SNAP_REL = 1e-13
# Cholesky pivots at or below CHOL_PIVOT_REL * trace(M) / dim reject the matrix.
CHOL_PIVOT_REL = 1e-14
# Trapezoidal step in u = log t for RankOneQuadrature: the integrand is
# analytic in the strip |Im u| < pi / 2, so the error is ~exp(-pi^2 / h) = 7e-18.
QUAD_STEP = 0.25
# Margins (in u) past the smallest and largest spectral scale: the integrand
# falls as e^{3u} below the first and as e^{-u} above the second, so both
# truncations are below e^{-39}.
QUAD_LO_MARGIN = 13.0
QUAD_HI_MARGIN = 39.0
# Step cap and relative step tolerance of the incomplete-beta continued fraction.
BETA_CF_MAX_ITER = 200
BETA_CF_EPS = 1e-12


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M') / 2 after checking M is square and symmetric.

    The asymmetry tolerance SYMMETRY_TOL is relative to max(1, max|entry|).

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
    if gap > SYMMETRY_TOL * scale:
        raise NotSymmetricError(
            f"asymmetry {gap:.3e} exceeds tolerance {SYMMETRY_TOL * scale:.3e}"
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

    The factor is LAPACK's (``np.linalg.cholesky``). A matrix LAPACK rejects,
    or a pivot (squared diagonal entry) at or below ``pivot_tol_factor *
    trace(M) / dim``, raises NotPDError, which callers use both to reject
    singular covariance matrices and to detect rank deficiency.
    """
    a = symmetrize(m)
    tol = pivot_tol_factor * max(float(np.trace(a)), 0.0) / a.shape[0]
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPDError("matrix is not positive definite") from None
    pivots = np.diag(lower) ** 2
    bad = np.flatnonzero(pivots <= tol)
    if bad.size:
        raise NotPDError(f"pivot {pivots[bad[0]]:.3e} at column {bad[0]} is <= {tol:.3e}")
    return lower


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L @ w = b for a lower-triangular L by forward substitution, O(n^2).

    ``b`` is a vector; no check is made that L is triangular or nonsingular.
    """
    w = np.empty(lower.shape[0])
    for i in range(w.shape[0]):
        w[i] = (b[i] - lower[i, :i] @ w[:i]) / lower[i, i]
    return w


class RankOneQuadrature:
    """Delta(g) = tr sqrt(D^2 + g gamma gamma') - tr D for D = diag(d) >= 0 and
    every g in [0, g_max], and its second-order remainder R(g), from one table.

    Only the squares d^2 and gamma^2 enter. Sherman-Morrison turns Delta into
    (2/pi) int_0^inf t^2 g S2(t) / (1 + g S1(t)) dt with
    S_p(t) = sum_i gamma_i^2 / (d_i^2 + t^2)^p. As (2/pi) int t^2 S2 dt =
    sum gamma_i^2 / (2 d_i), the remainder R(g) = g sum(gamma_i^2 / d_i) / 2 -
    Delta(g) is (2/pi) int t^2 g^2 S1 S2 / (1 + g S1) dt, a sum of positive
    terms. Both integrals use the trapezoidal rule in u = log t (step
    QUAD_STEP) from log(min d) - QUAD_LO_MARGIN to
    log(sqrt(max d^2 + g_max sum gamma^2)) + QUAD_HI_MARGIN, after scaling d^2
    and gamma^2 by max d^2. The poles of the integrand sit on |Im u| = pi / 2
    for every g, so one grid serves all g <= g_max: building it costs O(q n)
    for q (a few hundred) nodes, and each g then costs O(q). Terms with
    gamma_i = 0 contribute nothing and are dropped.

    Raises
    ------
    ValueError
        If some d_i = 0 has gamma_i != 0.
    """

    def __init__(self, d_sq: np.ndarray, gamma_sq: np.ndarray, g_max: float):
        self._factor = 0.0
        self._t3_s2 = self._s1 = np.zeros(0)
        active = gamma_sq > 0.0
        if g_max == 0.0 or not active.any():
            return
        d_sq = d_sq[active]
        scale = float(d_sq.max())
        if not float(d_sq.min()) > 0.0:
            raise ValueError("d must be positive wherever gamma is non-zero")
        d_sq = d_sq / scale
        w = gamma_sq[active] / scale
        lo = 0.5 * math.log(float(d_sq.min())) - QUAD_LO_MARGIN
        hi = 0.5 * math.log1p(g_max * float(w.sum())) + QUAD_HI_MARGIN
        t = np.exp(lo + QUAD_STEP * np.arange(math.ceil((hi - lo) / QUAD_STEP) + 1))
        r = np.add.outer(t * t, d_sq)
        np.reciprocal(r, out=r)
        self._s1 = r @ w
        r *= r
        self._t3_s2 = t ** 3 * (r @ w)
        self._factor = math.sqrt(scale) * 2.0 / math.pi * QUAD_STEP

    def delta(self, g: float) -> float:
        """tr sqrt(D^2 + g gamma gamma') - tr D, O(q)."""
        return self._factor * g * float((self._t3_s2 / (1.0 + g * self._s1)).sum())

    def remainder(self, g: float) -> float:
        """g sum(gamma_i^2 / d_i) / 2 - Delta(g) >= 0, without cancellation, O(q)."""
        gs1 = g * self._s1
        return self._factor * g * float((self._t3_s2 * gs1 / (1.0 + gs1)).sum())


def sqrt_trace_rank_one(d_sq: np.ndarray, gamma_sq: np.ndarray, g: float) -> float:
    """Delta = tr sqrt(D^2 + g gamma gamma') - tr D for D = diag(d) >= 0, g >= 0.

    The one-shot form of :class:`RankOneQuadrature`: build the table for
    g_max = g and evaluate it once, O(q n).

    Raises
    ------
    ValueError
        If some d_i = 0 has gamma_i != 0.
    """
    return RankOneQuadrature(d_sq, gamma_sq, g).delta(g)


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
        if abs(delta - 1.0) < BETA_CF_EPS:
            return h
    raise NoConvergenceError(
        f"incomplete beta continued fraction: no convergence in {BETA_CF_MAX_ITER} steps"
    )
