"""Dense symmetric-matrix kernels, the rank-one square-root trace and the
Lanczos Gauss rule that feeds it.

Everything operates on plain float64 numpy arrays. Symmetric inputs are
validated and re-symmetrized on entry so downstream factorizations see
exactly symmetric data. All functions are pure, and a RankOneQuadrature
table does not change once built.
"""

from __future__ import annotations

import itertools
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
# bayes.PosteriorFamily: below this dimension a family's rule comes from one
# eigh (eigh_rule), cheaper there than Lanczos (gauss_rule). Measured
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
# symmetrize: entries below this cannot overflow M + M'.
_HALF_MAX = float(np.finfo(float).max) / 2.0


def square(x: float) -> float:
    """x ** 2, and inf where Python's ``**`` raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M') / 2 after checking M is square and symmetric.

    The asymmetry tolerance SYMMETRY_TOL is relative to max(1, max|entry|).
    An M that is bitwise symmetric, finite and below half the largest float
    comes back as it is (for a float64 array, the same object), which is
    (M + M') / 2 bit for bit; a caller that keeps the result copies it.

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
    top = float(np.abs(a).max())
    # There M + M' is 2M exactly; NaN fails the bound.
    if top < _HALF_MAX and np.array_equal(a.view(np.int64), a.T.view(np.int64)):
        return a
    scale = max(1.0, top)
    gap = float(np.abs(a - a.T).max())
    if gap > SYMMETRY_TOL * scale:
        raise NotSymmetricError(
            f"asymmetry {gap:.3e} exceeds tolerance {SYMMETRY_TOL * scale:.3e}"
        )
    return (a + a.T) / 2.0


def chol_pivot_floor(trace, dim: int, rel: float = CHOL_PIVOT_REL):
    """The pivot floor rel * max(trace, 0) / dim of :func:`cholesky_spd`,
    elementwise over an array of traces."""
    return rel * np.maximum(trace, 0.0) / dim


def cholesky_spd(m: np.ndarray, pivot_tol_factor: float = CHOL_PIVOT_REL) -> np.ndarray:
    """Lower-triangular Cholesky factor with an explicit pivot threshold.

    The factor is LAPACK's (``np.linalg.cholesky``). A matrix LAPACK rejects,
    or a pivot (squared diagonal entry) at or below
    ``chol_pivot_floor(trace(M), dim, pivot_tol_factor)``, raises NotPDError,
    which callers use both to reject singular covariance matrices and to
    detect rank deficiency.
    """
    a = symmetrize(m)
    tol = chol_pivot_floor(float(np.trace(a)), a.shape[0], pivot_tol_factor)
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
    and every g in [0, g_max], from one table built from the Gauss rule
    (theta, w) of :func:`gauss_rule`: d^2 = theta^2 and gamma^2 = theta w,
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
    its own g, in one numpy pass: the one evaluation of the remainder.

    The tables are laid end to end, shortest first. The terms of every table
    are formed in one elementwise pass, and the tables of one length are then
    summed as the rows of one 2-D view, which adds each row in the order its
    own 1-D sum would. A row zero-padded to a common length, or a segmented
    ``np.add.reduceat``, adds in another order and changes the last bits.
    """

    def __init__(self, tables: Sequence[RankOneQuadrature]):
        lengths = np.array([t._s1.shape[0] for t in tables], dtype=np.intp)
        self._order = np.argsort(lengths, kind="stable")
        ordered = [tables[i] for i in self._order.tolist()]
        self._lengths = lengths[self._order]
        self._factor = np.array([t._factor for t in ordered])
        self._s1 = np.concatenate([t._s1 for t in ordered] or [np.zeros(0)])
        self._t3_s2 = np.concatenate([t._t3_s2 for t in ordered] or [np.zeros(0)])
        # Runs of equal length: rows [first, last) of the sorted tables, whose
        # terms start at entry ``start``.
        self._runs = []
        first = start = 0
        for length, run in itertools.groupby(self._lengths.tolist()):
            last = first + len(list(run))
            self._runs.append((first, last, start, length))
            first, start = last, start + (last - first) * length

    def remainder(self, g: np.ndarray) -> np.ndarray:
        """The remainder R(g[j]) >= 0 of table j, for every j: without
        cancellation, O(q) per table."""
        g = g[self._order]
        gs1 = np.repeat(g, self._lengths) * self._s1
        terms = self._t3_s2 * gs1 / (1.0 + gs1)
        sums = np.empty(g.shape)
        for first, last, start, length in self._runs:
            block = terms[start:start + (last - first) * length]
            sums[first:last] = block.reshape(last - first, length).sum(axis=1)
        out = np.empty(g.shape)
        out[self._order] = self._factor * g * sums
        return out


def gauss_rule(a: np.ndarray, v: np.ndarray,
               g_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes theta and weights w of a quadrature rule for the spectral measure
    sum_i (Q'v)_i^2 delta(d_i) of a symmetric positive-definite A = Q D Q'.

    ``RankOneQuadrature(theta, w, g_max)``, the table's one constructor, builds
    from the rule a table that stands in for the one of D and gamma = D^{1/2}
    Q'v. Lanczos on A from v, with two-pass full reorthogonalisation, gives
    the m-node Gauss rule (Golub & Welsch 1969): the eigenvalues of the m x m
    Lanczos tridiagonal and |v|^2 times the squared first components of its
    eigenvectors, at O(m n^2). Every LANCZOS_BLOCK steps the rule's table is
    evaluated at g = g_max * LANCZOS_PROBES, and Lanczos stops once no value
    moved by more than LANCZOS_STOP_REL, or at once when the Krylov space is
    exhausted (the rule is then exact). For v = 0 and past
    LANCZOS_MAX_STEPS_REL * n steps the rule is the measure itself,
    :func:`eigh_rule`. The caller takes ``eigh_rule`` below GAUSS_RULE_MIN_N.
    """
    if v.any():
        rule = _lanczos_rule(a, v, g_max, int(LANCZOS_MAX_STEPS_REL * a.shape[0]))
        if rule is not None:
            return rule
    return eigh_rule(a, v)


def eigh_rule(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The measure itself as :func:`gauss_rule`'s rule: nodes d and weights
    (Q'v)^2 of A = Q D Q', from one ``eigh(A)``."""
    d, q = np.linalg.eigh(a)
    return d, (q.T @ v) ** 2


def _lanczos_rule(a: np.ndarray, v: np.ndarray, g_max: float,
                  max_steps: int) -> tuple[np.ndarray, np.ndarray] | None:
    """gauss_rule's Lanczos iteration; None once max_steps pass unconverged."""
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
            rule = theta, norm_sq * s[0] ** 2
            if exhausted:
                return rule
            r = QuadratureStack([RankOneQuadrature(*rule, g_max)] * probes.size
                                ).remainder(probes)
            if last is not None and np.all(np.abs(r - last) <= LANCZOS_STOP_REL * r):
                return rule
            last = r
        np.divide(w, beta, out=basis[m])
    return None
