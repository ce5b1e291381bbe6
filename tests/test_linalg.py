import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from factordist import metrics
from factordist.errors import (
    InvalidDoFError,
    NoConvergenceError,
    NotPDError,
    NotPSDError,
    NotSymmetricError,
)
from factordist.linalg import (
    CHOL_PIVOT_REL,
    GAUSS_RULE_MIN_N,
    SYMMETRY_TOL,
    QuadratureStack,
    RankOneQuadrature,
    chol_pivot_floor,
    cholesky_spd,
    gauss_rule,
    solve_lower,
    symmetrize,
)
from factordist.metrics import f_cdf_upper
from factordist.regression import RANK_PIVOT_REL
from factordist.transport import spd_sqrt

from conftest import random_spd, remainder


def reference_cholesky(m, pivot_tol_factor=CHOL_PIVOT_REL):
    """Column-by-column Cholesky that stops at the first pivot at or below
    ``pivot_tol_factor * trace / dim``. Oracle for :func:`cholesky_spd`."""
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


def _wishart(seed, n):
    g = np.random.default_rng(seed).normal(size=(2 * n + 5, n))
    return g.T @ g / g.shape[0]


def _chol_outcome(factor, m, pivot_tol_factor):
    """The factor, or the column named by a rejection (None if unnamed)."""
    try:
        return factor(m, pivot_tol_factor)
    except NotPDError as exc:
        column = re.search(r"at column (\d+)", str(exc))
        return column and int(column.group(1))


class TestSpdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(spd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(spd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_random_spd_reconstruction(self, rng):
        a = rng.normal(size=(5, 5))
        m = a @ a.T + np.eye(5)
        s = spd_sqrt(m)
        err = np.linalg.norm(s @ s - m)
        assert err <= 1e-10 * max(1.0, np.linalg.norm(m))
        np.testing.assert_allclose(s, s.T, atol=1e-14)

    def test_idempotence(self, rng):
        for _ in range(20):
            s = spd_sqrt(random_spd(rng, 4))
            np.testing.assert_allclose(spd_sqrt(s @ s), s, atol=1e-8)

    def test_orthogonal_conjugation(self, rng):
        m = random_spd(rng, 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lhs = spd_sqrt(q.T @ m @ q)
        rhs = q.T @ spd_sqrt(m) @ q
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_matches_schur_algorithm(self, rng):
        # Independent route: scipy's sqrtm uses the blocked Schur algorithm.
        for _ in range(10):
            m = random_spd(rng, 5)
            np.testing.assert_allclose(spd_sqrt(m), scipy.linalg.sqrtm(m),
                                       atol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            spd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            spd_sqrt(np.diag([1.0, -1.0]))

    def test_clamps_roundoff_negative_eigenvalue(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = q @ np.diag([2.0, 1.0, -1e-14]) @ q.T
        s = spd_sqrt(m)
        assert np.all(np.linalg.eigvalsh(s) >= -1e-12)


class TestCholSolve:
    def test_pivot_threshold_scales_with_trace(self):
        # Pivot threshold is 1e-14 * trace / dim; a 1e-20 pivot next to a
        # unit pivot must be rejected rather than propagated.
        with pytest.raises(NotPDError, match="at column 1 "):
            cholesky_spd(np.diag([1.0, 1e-20]))

    @pytest.mark.parametrize("rel", [CHOL_PIVOT_REL, RANK_PIVOT_REL])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_pivot_floor_is_rel_trace_over_dim(self, rel, dim):
        # Unit pivots and one last pivot 1% below or above rel * trace / dim.
        floor = rel * (dim - 1) / dim
        for scale in (0.99, 1.01):
            m = np.diag([1.0] * (dim - 1) + [scale * floor])
            assert chol_pivot_floor(float(np.trace(m)), dim, rel) == pytest.approx(
                floor, rel=1e-12)
            if scale < 1.0:
                with pytest.raises(NotPDError, match=f"at column {dim - 1} "):
                    cholesky_spd(m, pivot_tol_factor=rel)
            else:
                assert cholesky_spd(m, pivot_tol_factor=rel)[-1, -1] > 0.0

    def test_pivot_floor_of_negative_trace_is_zero(self):
        assert chol_pivot_floor(-2.0, 3) == 0.0


class TestCholeskyOracle:
    """cholesky_spd against the column-by-column reference factorization."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           scale=st.floats(1e-3, 1e3))
    def test_factor_matches_reference(self, seed, n, scale):
        m = scale * _wishart(seed, n)
        got, want = cholesky_spd(m), reference_cholesky(m)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           data=st.data(), shrink=st.sampled_from([1e-20, 1e-30, 1e-6, 1e-3]),
           tol=st.sampled_from([CHOL_PIVOT_REL, RANK_PIVOT_REL]))
    def test_pivot_decision_matches_reference(self, seed, n, data, shrink, tol):
        # Scaling row and column j by sqrt(shrink) scales pivot j by shrink:
        # 1e-20 and below sit far under either threshold, 1e-6 and up far over.
        d = np.ones(n)
        d[data.draw(st.integers(0, n - 1))] = math.sqrt(shrink)
        m = d[:, None] * _wishart(seed, n) * d[None, :]
        got = _chol_outcome(cholesky_spd, m, tol)
        want = _chol_outcome(reference_cholesky, m, tol)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        else:
            assert got == want


class TestSolveLower:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200))
    def test_matches_dense_solve(self, seed, n):
        lower = cholesky_spd(_wishart(seed, n))
        b = np.random.default_rng(seed).normal(size=n)
        want = np.linalg.solve(lower, b)
        assert np.linalg.norm(solve_lower(lower, b) - want) <= 1e-12 * np.linalg.norm(want)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120),
           p=st.integers(0, 8), matrix=st.booleans())
    def test_vector_and_matrix_rhs_match_scipy(self, seed, n, p, matrix):
        lower = cholesky_spd(_wishart(seed, n))
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(n, p)) if matrix else rng.normal(size=n)
        got = solve_lower(lower, b)
        want = scipy.linalg.solve_triangular(lower, b, lower=True)
        assert got.shape == b.shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * max(np.abs(want).max(initial=0), 1e-300))
        if matrix:
            # Each column is the vector solve of its right-hand side.
            for j in range(p):
                column = solve_lower(lower, b[:, j])
                np.testing.assert_allclose(got[:, j], column, rtol=0,
                                           atol=1e-13 * np.abs(column).max())


def quadrature_delta(quad, g):
    """Delta(g) = tr sqrt(D^2 + g gamma gamma') - tr D from the table of a
    :class:`RankOneQuadrature`, whose remainder is g sum(gamma_i^2 / d_i) / 2
    minus this, O(q)."""
    return quad._factor * g * float((quad._t3_s2 / (1.0 + g * quad._s1)).sum())


def rule_of(d_sq, gamma_sq):
    """The rule (theta, w) whose table is that of D^2 and gamma^2: theta = d
    and w = gamma^2 / d, 0 where gamma^2 = 0."""
    theta = np.sqrt(d_sq)
    return theta, np.divide(gamma_sq, theta, out=np.zeros_like(theta),
                            where=gamma_sq != 0.0)


def sqrt_trace_rank_one(d_sq, gamma_sq, g):
    """Delta = tr sqrt(D^2 + g gamma gamma') - tr D for D = diag(d) >= 0,
    g >= 0: a :class:`RankOneQuadrature` table built for g_max = g and
    evaluated once."""
    return quadrature_delta(RankOneQuadrature(*rule_of(d_sq, gamma_sq), g), g)


def reference_root_sum(d_sq, gamma_sq, g):
    """tr sqrt(D^2 + g gamma gamma') from a dense ``eigvalsh``, the per-sigma
    formula of ``bayes._wd2_to_skeptic`` before the quadrature.
    Oracle for :func:`sqrt_trace_rank_one`."""
    gamma = np.sqrt(gamma_sq)
    eig = np.linalg.eigvalsh(np.diag(d_sq) + g * np.outer(gamma, gamma))
    return float(np.sqrt(np.clip(eig, 0.0, None)).sum())


def _two_by_two_delta(d1, d2, w1, w2):
    """Exact Delta for n = 2 with weights w_i = g gamma_i^2, from
    sqrt(l1) + sqrt(l2) = sqrt(tr + 2 sqrt(det)), rearranged so nothing cancels."""
    det = (d1 * d2) ** 2 + w1 * d2 * d2 + w2 * d1 * d1
    root = math.sqrt(det)
    num = w1 + w2 + 2.0 * (w1 * d2 * d2 + w2 * d1 * d1) / (root + d1 * d2)
    return num / (math.sqrt(d1 * d1 + d2 * d2 + w1 + w2 + 2.0 * root) + d1 + d2)


D_SPAN = np.logspace(-6, 6, 13)
G_SPAN = np.logspace(-12, 12, 25)


class TestSqrtTraceRankOne:
    """Delta = tr sqrt(D^2 + g gamma gamma') - tr D by quadrature."""

    def test_one_hot_exact(self):
        # Only eigenvalue j moves, to d_j^2 + g gamma_j^2.
        for d in D_SPAN:
            for g in G_SPAN:
                want = g * 3.0 / (math.sqrt(d * d + g * 3.0) + d)
                got = sqrt_trace_rank_one(np.array([0.25, d * d, 9.0]),
                                          np.array([0.0, 3.0, 0.0]), g)
                assert abs(got - want) <= 1e-13 * want, (d, g)

    def test_two_by_two_exact(self):
        for d1 in D_SPAN:
            for d2 in D_SPAN[::2]:
                for g in G_SPAN:
                    want = _two_by_two_delta(d1, d2, g * 0.7, g * 2.5)
                    got = sqrt_trace_rank_one(np.array([d1 * d1, d2 * d2]),
                                              np.array([0.7, 2.5]), g)
                    assert abs(got - want) <= 1e-13 * want, (d1, d2, g)

    @pytest.mark.parametrize("factor", [1e150, 1e-150])
    def test_scale_invariance(self, rng, factor):
        # Scaling d and gamma by f scales the matrix by f^2 and Delta by f.
        d = rng.uniform(0.1, 3.0, 50)
        gamma_sq = rng.uniform(0.0, 2.0, 50)
        base = sqrt_trace_rank_one(d * d, gamma_sq, 0.7)
        scaled = sqrt_trace_rank_one((factor * d) ** 2, factor**2 * gamma_sq, 0.7)
        assert scaled / factor == pytest.approx(base, rel=1e-14)

    def test_zero_update(self):
        d_sq = np.array([1.0, 0.0, 4.0])
        assert sqrt_trace_rank_one(d_sq, np.array([2.0, 0.0, 1.0]), 0.0) == 0.0
        assert sqrt_trace_rank_one(d_sq, np.zeros(3), 5.0) == 0.0
        # A zero d_i with zero gamma_i drops out.
        assert sqrt_trace_rank_one(d_sq, np.array([0.0, 0.0, 5.0]), 1.0) == \
            pytest.approx(3.0 - 2.0, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           d_decades=st.floats(0.0, 6.0), log_g=st.floats(-12.0, 12.0),
           zero_share=st.sampled_from([0.0, 0.5]))
    def test_matches_dense_eigvalsh(self, seed, n, d_decades, log_g, zero_share):
        rng = np.random.default_rng(seed)
        d = 10.0 ** rng.uniform(-d_decades / 2, d_decades / 2, n)
        gamma_sq = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) >= zero_share)
        g = 10.0**log_g
        got = d.sum() + sqrt_trace_rank_one(d * d, gamma_sq, g)
        # eigvalsh moves each eigenvalue by about n eps ||M|| at most, and
        # eigenvalue i is at least the i-th smallest d^2, so its square root
        # moves by at most that over d_(i).
        norm = float((d * d).max() + g * gamma_sq.sum())
        tol = 4.0 * n * np.finfo(float).eps * norm * float((1.0 / d).sum())
        assert abs(got - reference_root_sum(d * d, gamma_sq, g)) <= tol


class TestRankOneQuadrature:
    """One table serves every g <= g_max, as PosteriorFamily uses it with
    g_max = 1 / u0 for all sigma > 0."""

    def test_remainder_one_hot_exact(self):
        # g gamma^2 / (2 d) - Delta for one moving eigenvalue, without cancellation.
        for d in D_SPAN:
            quad = RankOneQuadrature(*rule_of(np.array([0.25, d * d, 9.0]),
                                              np.array([0.0, 3.0, 0.0])), G_SPAN[-1])
            for g in G_SPAN:
                w = g * 3.0
                want = w * w / (2.0 * d * (math.sqrt(d * d + w) + d) ** 2)
                assert abs(remainder(quad, g) - want) <= 1e-13 * want, (d, g)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           d_decades=st.floats(0.0, 6.0), log_g_max=st.floats(-2.0, 6.0),
           log_fraction=st.floats(-12.0, 0.0),
           zero_share=st.sampled_from([0.0, 0.5]))
    def test_table_matches_one_shot(self, seed, n, d_decades, log_g_max,
                                    log_fraction, zero_share):
        rng = np.random.default_rng(seed)
        d = 10.0 ** rng.uniform(-d_decades / 2, d_decades / 2, n)
        gamma_sq = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) >= zero_share)
        g_max = 10.0**log_g_max
        g = g_max * 10.0**log_fraction * (1.0 - 1e-12)
        quad = RankOneQuadrature(*rule_of(d * d, gamma_sq), g_max)
        want = sqrt_trace_rank_one(d * d, gamma_sq, g)
        assert abs(quadrature_delta(quad, g) - want) <= 1e-14 * want


class TestQuadratureStack:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_row_is_its_own_1d_sum(self, seed):
        # Every other test of the stack compares it with itself; this one
        # compares it with a plain 1-D sum per table, bit for bit.
        rng = np.random.default_rng(seed)
        tables, g_max = [], []
        for _ in range(60):
            n = int(rng.integers(1, 12))
            d = 10.0 ** rng.uniform(-rng.uniform(0.0, 3.0), 0.0, n)
            g_max.append(10.0 ** rng.uniform(-2.0, 6.0))
            tables.append(RankOneQuadrature(*rule_of(d * d, rng.uniform(size=n)),
                                            g_max[-1]))
        # One table twice, and an empty one (all weights 0).
        tables += [tables[0], RankOneQuadrature(np.ones(3), np.zeros(3), 1.0)]
        g_max += [g_max[0], 1.0]
        order = rng.permutation(len(tables))
        tables = [tables[j] for j in order]
        g = np.array(g_max)[order] * 10.0 ** rng.uniform(-12.0, 0.0, len(tables))
        lengths = [t._s1.shape[0] for t in tables]
        # Past 128 terms numpy's pairwise sum splits, and some length holds
        # two distinct tables.
        assert 0 in lengths and max(lengths) > 128
        assert any(len({id(t) for t, q in zip(tables, lengths) if q == length}) > 1
                   for length in set(lengths) - {0})
        want = []
        for t, x in zip(tables, g.tolist()):
            gs1 = x * t._s1
            want.append(float(t._factor * x * np.sum(t._t3_s2 * gs1 / (1.0 + gs1))))
        got = QuadratureStack(tables).remainder(g).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in want]


def _three_level_spd(rng, n, levels=(0.5, 3.0, 40.0)):
    """Random rotation of a diagonal matrix with three distinct eigenvalues,
    and the eigenvalue index of each column of the rotation."""
    group = np.arange(n) % 3
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    a = (q * np.asarray(levels)[group]) @ q.T
    return (a + a.T) / 2.0, q, group


class TestGaussRule:
    """gauss_rule on matrices built by hand; PosteriorFamily's panels, and its
    eigh rule below GAUSS_RULE_MIN_N, are in tests/test_bayes.py."""

    def test_zero_vector_is_the_eigh_measure(self, rng, built_tables):
        a = random_spd(rng, GAUSS_RULE_MIN_N)
        table = gauss_rule(a, np.zeros(GAUSS_RULE_MIN_N), 1.0)
        assert built_tables == [table]
        nodes, weights = table.rule
        np.testing.assert_array_equal(nodes, np.linalg.eigh(a)[0])
        assert not weights.any()

    def test_exhausted_krylov_space_gives_the_exact_measure(self, rng, built_tables):
        # Three distinct eigenvalues: Lanczos spans the Krylov space in three
        # steps, before its first stop check, and the one table built is that
        # of the three-node rule, the measure itself.
        n = 2 * GAUSS_RULE_MIN_N
        a, q, group = _three_level_spd(rng, n)
        v = rng.normal(size=n)
        table = gauss_rule(a, v, 10.0)
        assert built_tables == [table]
        nodes, weights = table.rule
        np.testing.assert_allclose(nodes, [0.5, 3.0, 40.0], rtol=1e-12)
        np.testing.assert_allclose(weights, np.bincount(group, weights=(q.T @ v) ** 2),
                                   rtol=1e-11)


class TestSymmetrize:
    def test_averages_roundoff(self):
        m = np.array([[1.0, 1.0 + 1e-14], [1.0, 2.0]])
        out = symmetrize(m)
        np.testing.assert_allclose(out, out.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(NotSymmetricError):
            symmetrize(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(NotSymmetricError, match="^empty matrix$"):
            symmetrize(np.zeros((0, 0)))

    def test_exactly_symmetric_returned_as_is(self, rng):
        b = rng.standard_normal((40, 40))
        m = b + b.T
        # (M + M') / 2 has M's bits.
        np.testing.assert_array_equal(symmetrize(m).view(np.int64), m.view(np.int64))
        np.testing.assert_array_equal(m, (m + m.T) / 2.0)

    @pytest.mark.parametrize("m", [
        [[1.0, -0.0], [0.0, 1.0]],        # equal, but not bit for bit
        [[1e308, 1.0], [1.0, 1.0]],       # M + M' overflows
        [[np.nan, 1.0], [1.0, 1.0]],
    ], ids=["signed_zero", "huge", "nan"])
    def test_other_matrices_get_the_mean(self, m):
        m = np.array(m)
        with np.errstate(over="ignore", invalid="ignore"):
            out = symmetrize(m)
            expected = (m + m.T) / 2.0
        assert not np.shares_memory(out, m)
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
               hnp.arrays(np.float64, (n, n), elements=st.floats(width=64)),
               hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))),
           st.sampled_from([0.0, 1e-13, 4e-13, 6e-13, 1e-12, 1e-11]))
    @example((np.array([[2.0, 1.0 + 1e-12], [1.0, 3.0]]), np.zeros((2, 2))), 0.0)
    def test_matches_the_plain_forms(self, pair, tilt):
        # Symmetric, off by a skew part near the tolerance, or anything at all:
        # the check takes the plain forms' scale and gap, the result has the
        # bits of (M + M') / 2, and M is left as it was.
        b, c = pair
        with np.errstate(all="ignore"):
            m = b + b.T if tilt else b.copy()
            if tilt:
                m += tilt * max(1.0, float(np.abs(m).max())) * (c - c.T)
            before = m.copy()
            scale = max(1.0, float(np.abs(m).max()))
            too_far = float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale
            expected = (m + m.T) / 2.0
            if too_far:
                with pytest.raises(NotSymmetricError):
                    symmetrize(m)
            else:
                out = symmetrize(m)
                np.testing.assert_array_equal(out.view(np.int64),
                                              expected.view(np.int64))
        np.testing.assert_array_equal(m.view(np.int64), before.view(np.int64))


def _mp_f_cdf_upper(x, d1, d2):
    """P(F_{d1,d2} > x) = I_z(d2/2, d1/2) at z = d2 / (d2 + d1 x), to 60 digits.

    The series of ``mpmath.betainc(a, b, 0, z, regularized=True)``,
    z^a 2F1(a, 1 - b; a + 1; z) / (a B(a, b)), with its term and precision
    caps raised: at the defaults it gives up from d of a few thousand on.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a, b = mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2
        z = d2 / (d2 + d1 * mpmath.mpf(x))
        series = mpmath.hyp2f1(a, 1 - b, a + 1, z, maxterms=10**7, maxprec=10**5)
        return float(z**a * series / (a * mpmath.beta(a, b)))


class TestFCdfUpper:
    def test_at_zero(self):
        assert f_cdf_upper(0.0, 3, 7) == 1.0

    def test_limit_large_x(self):
        assert f_cdf_upper(np.inf, 5, 100) == 0.0
        assert f_cdf_upper(1e12, 5, 100) < 1e-12

    def test_t_squared_relation(self):
        # Two-sided 5% t critical value with 10 dof is 2.228; its square is
        # the F(1, 10) critical value at the same level.
        t = 2.228
        p = f_cdf_upper(t * t, 1, 10)
        assert abs(p - 0.05) <= 5e-4
        expected = 2.0 * scipy.stats.t.sf(t, 10)
        assert p == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("d1,d2", [(1, 1), (1, 10), (3, 7), (5, 100),
                                       (25, 574), (196, 398)])
    def test_matches_scipy(self, d1, d2):
        for x in (0.01, 0.5, 1.0, 1.7, 3.0, 10.0, 50.0):
            expected = scipy.stats.f.sf(x, d1, d2)
            assert f_cdf_upper(x, d1, d2) == pytest.approx(expected, rel=1e-8,
                                                           abs=1e-300)

    @settings(max_examples=300, deadline=None)
    @given(d1=st.integers(1, 100_000), d2=st.integers(1, 100_000),
           log10_x=st.floats(-3.0, 3.0))
    # scipy is 1.0e-8 from a 60-digit reference here, f_cdf_upper 2.5e-12.
    @example(d1=76, d2=2756, log10_x=1.375)
    def test_matches_scipy_over_wide_dof(self, d1, d2, log10_x):
        # scipy is the oracle; where it and f_cdf_upper disagree beyond the
        # bound, a 60-digit incomplete beta function decides.
        x = 10.0**log10_x
        expected = scipy.stats.f.sf(x, d1, d2)
        got = f_cdf_upper(x, d1, d2)
        if got != pytest.approx(expected, rel=1e-8, abs=1e-300):
            expected = _mp_f_cdf_upper(x, d1, d2)
        assert got == pytest.approx(expected, rel=1e-8, abs=1e-300)

    def test_monotone_decreasing_and_bounded(self):
        xs = np.linspace(0.0, 20.0, 200)
        vals = [f_cdf_upper(x, 4, 30) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid_dof(self):
        with pytest.raises(InvalidDoFError):
            f_cdf_upper(1.0, 0, 10)
        with pytest.raises(InvalidDoFError):
            f_cdf_upper(1.0, 3, 0)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            f_cdf_upper(-0.1, 2, 5)
        # So is NaN, at once, not after the continued fraction's 200 steps.
        with pytest.raises(ValueError, match="must be non-negative, got nan"):
            f_cdf_upper(float("nan"), 3, 10)

    @pytest.mark.parametrize("d1,d2", [(2, 2), (5, 100), (25, 574)])
    def test_extreme_x_end_at_the_incomplete_beta_bounds(self, d1, d2):
        # At x = 1e308, d1 x overflows and the argument d2 / (d2 + d1 x) is 0;
        # at x = 1e-300 it rounds to 1. Both return before the continued fraction.
        for x in (1e308, 1e-300):
            assert f_cdf_upper(x, d1, d2) == pytest.approx(
                scipy.stats.f.sf(x, d1, d2), rel=1e-8, abs=1e-300)

    def test_continued_fraction_step_cap(self, monkeypatch):
        monkeypatch.setattr(metrics, "BETA_CF_MAX_ITER", 1)
        with pytest.raises(NoConvergenceError, match="no convergence in 1 steps$"):
            f_cdf_upper(1.0, 10, 50)
