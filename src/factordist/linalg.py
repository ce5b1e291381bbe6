"""Dense symmetric-matrix kernels, the rank-one square-root trace and the
Lanczos Gauss rule that feeds it.

Everything operates on plain float64 numpy arrays. :func:`cholesky_spd`
takes the exactly symmetric matrices the package builds as given, and
:func:`symmetrize` checks one from outside. All functions are pure, and a
RankOneQuadrature table does not change once built.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NotPDError, NotSymmetricError

# Relative asymmetry accepted before a matrix is rejected.
SYMMETRY_TOL = 1e-12
# Default rel of chol_pivot_floor.
CHOL_PIVOT_REL = 1e-14
# Trapezoidal step in u = log t for RankOneQuadrature: the integrand is
# analytic in the strip |Im u| < pi / 2, so the error is ~exp(-pi^2 / h) = 7e-18.
QUAD_STEP = 0.25
# Margins (in u) past the smallest and largest spectral scale: the integrand
# falls as e^{3u} below the first and as e^{-u} above the second, so both
# truncations are below e^{-39}.
QUAD_LO_MARGIN = 13.0
QUAD_HI_MARGIN = 39.0
# gauss_rule: below this dimension the rule comes from one eigh, cheaper there
# than Lanczos; gauss_rule is the one place this is read. Measured
# in-process with one BLAS thread on one CPU of a 2-vCPU Xeon, median over the
# six nested models of benchmark-style panels (T = 600): n = 112 eigh 1.3-1.5 ms
# against Lanczos 1.4-1.7 ms; n = 128 eigh 1.8-2.1 ms against 1.4-1.7 ms. At
# n = 25 eigh takes 0.1 ms and Lanczos 1 ms.
GAUSS_RULE_MIN_N = 128
# gauss_rule: Lanczos steps between two checks of the stop rule.
LANCZOS_BLOCK = 8
# gauss_rule: probes g / g_max of the stop rule, spanning the range of g.
LANCZOS_PROBES = np.array([1.0, 1e-3, 1e-6, 1e-9])
# gauss_rule: stop once R at every probe moved by at most this relative amount
# over one block. Lanczos's own roundoff leaves R about 1e-14 (n = 300) to
# 1e-13 (n = 800, cond(A) ~ 3e4) off the eigh table however long it runs, and
# there the change per block stalls at 1e-13 to 6e-13: a 1e-13 stop ran one
# n = 800 model to 200 steps where 56 gave the same 9e-14 error. The eigh
# table is no better on hard spectra: an orthogonal change of basis of A and
# v moves its R by up to 5e-13 at cond(A) ~ 1e6.
LANCZOS_STOP_REL = 1e-12
# gauss_rule: step cap as a share of n, past which eigh takes over. A step is
# O(n^2) and eigh O(n^3), so the cap grows with n. Benchmark-style panels stop
# well within it from the crossover on (32 steps at n = 128, 40 at n = 300 and
# 56-64 at n = 800), where Lanczos takes 1.4, 2.9 and 23 ms against 2.0, 10.8
# and 133 ms for eigh. A panel that reaches the cap pays about one eigh more:
# at n = 300 with residual variances over six decades, 18 ms against 9.4 ms.
LANCZOS_MAX_STEPS_REL = 0.25


def square(x: float) -> float:
    """x ** 2, and inf where Python's ``**`` raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M') / 2, a new array, after checking M is square and
    symmetric to SYMMETRY_TOL relative to max(1, max|entry|): the check of
    outside input (``synth``'s configs, ``transport``'s dense forms, the fits
    given to ``metrics.grs_test`` and ``sharpe_sq``).

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
    # One n x n temporary: the gap, then the result in its place.
    scale = max(1.0, float(a.max()), -float(a.min()))
    d = a - a.T
    gap = float(np.abs(d, out=d).max())
    if gap > SYMMETRY_TOL * scale:
        raise NotSymmetricError(
            f"asymmetry {gap:.3e} exceeds tolerance {SYMMETRY_TOL * scale:.3e}"
        )
    np.add(a, a.T, out=d)
    d /= 2.0
    return d


def chol_pivot_floor(trace: float, dim: int, rel: float = CHOL_PIVOT_REL) -> float:
    """The pivot floor rel * max(trace, 0) / dim of :func:`cholesky_spd`, for
    the trace of one dim x dim matrix."""
    return rel * max(trace, 0.0) / dim


def cholesky_spd(m: np.ndarray, pivot_tol_factor: float = CHOL_PIVOT_REL) -> np.ndarray:
    """Lower-triangular Cholesky factor with an explicit pivot threshold.

    M is factored as given (LAPACK's ``np.linalg.cholesky`` reads its lower
    triangle), so its caller owns its exact symmetry. A matrix LAPACK rejects,
    or a pivot (squared diagonal entry) at or below
    ``chol_pivot_floor(trace(M), dim, pivot_tol_factor)``, raises NotPDError,
    which callers use both to reject singular covariance matrices and to
    detect rank deficiency.
    """
    with np.errstate(over="ignore"):  # an overflowing trace: an infinite floor
        tol = chol_pivot_floor(float(np.trace(m)), m.shape[0], pivot_tol_factor)
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPDError("matrix is not positive definite") from None
    pivots = np.diag(lower) ** 2
    bad = np.flatnonzero(pivots <= tol)
    if bad.size:
        raise NotPDError(f"pivot {pivots[bad[0]]:.3e} at column {bad[0]} is <= {tol:.3e}")
    return lower


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L @ w = b for a lower-triangular L by forward substitution,
    O(n^2 p) for p right-hand sides.

    ``b`` is an (n,) vector or an (n, p) matrix, and ``w`` has its shape; no
    check is made that L is triangular or nonsingular.
    """
    w = np.empty(np.shape(b))
    for i in range(w.shape[0]):
        w[i] = (b[i] - lower[i, :i] @ w[:i]) / lower[i, i]
    return w


class RankOneQuadrature:
    """The second-order remainder R(g) = g sum(gamma_i^2 / d_i) / 2 - Delta(g)
    of Delta(g) = tr sqrt(D^2 + g gamma gamma') - tr D, for D = diag(d) >= 0
    and every g in [0, g_max], from one table that :func:`gauss_rule` builds
    from its rule (theta, w): d^2 = theta^2 and gamma^2 = theta w,
    node times weight standing in for the square of gamma = D^{1/2} Q'v.

    Only the squares d^2 and gamma^2 enter. Sherman-Morrison turns Delta into
    (2/pi) int_0^inf t^2 g S2(t) / (1 + g S1(t)) dt with
    S_p(t) = sum_i gamma_i^2 / (d_i^2 + t^2)^p. As (2/pi) int t^2 S2 dt =
    sum gamma_i^2 / (2 d_i), R(g) is (2/pi) int t^2 g^2 S1 S2 / (1 + g S1) dt,
    a sum of positive terms. The integral uses the trapezoidal rule in
    u = log t (step QUAD_STEP) from log(min d) - QUAD_LO_MARGIN to
    log(sqrt(max d^2 + g_max sum gamma^2)) + QUAD_HI_MARGIN, after scaling d^2
    and gamma^2 by max d^2. The poles of the integrand sit on |Im u| = pi / 2
    for every g, so one grid serves all g <= g_max: building it costs O(q n)
    for q (a few hundred) nodes, and each g then costs O(q). Terms with
    gamma_i^2 <= 0, a zero node among them, contribute nothing and are dropped.
    A table is only built here; :class:`QuadratureStack` evaluates it.
    """

    def __init__(self, theta: np.ndarray, w: np.ndarray, g_max: float):
        self._factor = 0.0
        self._t3_s2 = self._s1 = np.zeros(0)
        gamma_sq = theta * w
        active = gamma_sq > 0.0
        if g_max == 0.0 or not active.any():
            return
        d_sq = np.square(theta[active])
        scale = float(d_sq.max())
        d_sq = d_sq / scale
        gamma_sq = gamma_sq[active] / scale
        lo = 0.5 * math.log(float(d_sq.min())) - QUAD_LO_MARGIN
        hi = 0.5 * math.log1p(g_max * float(gamma_sq.sum())) + QUAD_HI_MARGIN
        t = np.exp(lo + QUAD_STEP * np.arange(math.ceil((hi - lo) / QUAD_STEP) + 1))
        r = np.add.outer(t * t, d_sq)
        np.reciprocal(r, out=r)
        self._s1 = r @ gamma_sq
        r *= r
        self._t3_s2 = t ** 3 * (r @ gamma_sq)
        self._factor = math.sqrt(scale) * 2.0 / math.pi * QUAD_STEP


class QuadratureStack:
    """Several :class:`RankOneQuadrature` tables evaluated together, each at
    its own g, in one numpy pass per table length: the one evaluation of the
    remainder.

    The tables of one length are held as the rows of 2-D arrays, and each
    row's terms are summed along the row, in the order its own 1-D sum would
    add them. A row zero-padded to a common length, or a segmented
    ``np.add.reduceat``, adds in another order and changes the last bits.
    """

    def __init__(self, tables: Sequence[RankOneQuadrature]):
        by_length: dict[int, list[int]] = {}
        for j, t in enumerate(tables):
            by_length.setdefault(t._s1.shape[0], []).append(j)
        # Per length: the row indices, the factors, and S1 and t^3 S2 as the
        # rows of two (tables x length) arrays.
        self._blocks = [(np.array(rows), np.array([tables[j]._factor for j in rows]),
                         np.array([tables[j]._s1 for j in rows]),
                         np.array([tables[j]._t3_s2 for j in rows]))
                        for rows in by_length.values()]

    def remainder(self, g: np.ndarray) -> np.ndarray:
        """The remainder R(g[j]) >= 0 of table j, for every j: without
        cancellation, O(q) per table."""
        out = np.empty(g.shape)
        for rows, factor, s1, t3_s2 in self._blocks:
            g_rows = g[rows]
            gs1 = g_rows[:, None] * s1
            out[rows] = factor * g_rows * (t3_s2 * gs1 / (1.0 + gs1)).sum(axis=1)
        return out


def gauss_rule(a: np.ndarray, v: np.ndarray, g_max: float) -> RankOneQuadrature:
    """The :class:`RankOneQuadrature` table, for g in [0, g_max], of a
    quadrature rule (nodes theta, weights w) for the spectral measure
    sum_i (Q'v)_i^2 delta(d_i) of a symmetric positive-definite A = Q D Q':
    the table that stands in for the one of D and gamma = D^{1/2} Q'v.

    This is the one place the rule is chosen. From n = GAUSS_RULE_MIN_N on,
    and for v != 0, Lanczos on A from v, with two-pass full
    reorthogonalisation, gives the m-node Gauss rule (Golub & Welsch 1969):
    the eigenvalues of the m x m Lanczos tridiagonal and |v|^2 times the
    squared first components of its eigenvectors, at O(m n^2). Every
    LANCZOS_BLOCK steps the rule's table is evaluated at
    g = g_max * LANCZOS_PROBES, and Lanczos stops once no value moved by more
    than LANCZOS_STOP_REL, returning the table of that check, or at once when
    the Krylov space is exhausted (the rule is then exact). Below
    GAUSS_RULE_MIN_N, for v = 0 and past LANCZOS_MAX_STEPS_REL * n steps the
    rule is the measure itself: nodes d and weights (Q'v)^2 from one
    ``eigh(A)``.
    """
    n = a.shape[0]
    if n >= GAUSS_RULE_MIN_N and v.any():
        table = _lanczos_rule(a, v, g_max, int(LANCZOS_MAX_STEPS_REL * n))
        if table is not None:
            return table
    d, q = np.linalg.eigh(a)
    return RankOneQuadrature(d, (q.T @ v) ** 2, g_max)


def _lanczos_rule(a: np.ndarray, v: np.ndarray, g_max: float,
                  max_steps: int) -> RankOneQuadrature | None:
    """gauss_rule's Lanczos iteration and the table of its last stop check;
    None once max_steps pass unconverged."""
    norm_sq = float(v @ v)
    basis = np.empty((max_steps + 1, v.shape[0]))
    basis[0] = v / math.sqrt(norm_sq)
    diag = np.empty(max_steps)
    off = np.empty(max_steps)
    probes = g_max * LANCZOS_PROBES
    ulps = v.shape[0] * np.finfo(float).eps
    last = None
    top = 0.0
    for m in range(1, max_steps + 1):
        done = basis[:m]
        w = a @ basis[m - 1]
        h = done @ w
        w -= h @ done
        h2 = done @ w
        w -= h2 @ done
        diag[m - 1] = alpha = float(h[m - 1] + h2[m - 1])
        off[m - 1] = beta = math.sqrt(float(w @ w))
        top = max(top, abs(alpha))
        # A residual within n ulps of the largest Rayleigh quotient is roundoff
        # of A: the invariant subspace through v is spanned and the rule is
        # exact up to O(beta^2).
        exhausted = beta <= ulps * top
        if m % LANCZOS_BLOCK == 0 or exhausted:
            tri = np.zeros((m, m))
            tri.flat[::m + 1] = diag[:m]
            tri.flat[m::m + 1] = off[:m - 1]
            theta, s = np.linalg.eigh(tri)
            table = RankOneQuadrature(theta, norm_sq * s[0] ** 2, g_max)
            if exhausted:
                return table
            r = QuadratureStack([table] * probes.size).remainder(probes)
            if last is not None and np.all(np.abs(r - last) <= LANCZOS_STOP_REL * r):
                return table
            last = r
        np.divide(w, beta, out=basis[m])
    return None
