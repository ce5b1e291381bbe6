import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from factordist.errors import (
    InvalidDoFError,
    NotPDError,
    NotPSDError,
    NotSymmetricError,
)
from factordist.linalg import (
    CHOL_PIVOT_REL,
    chol_solve,
    cholesky_spd,
    f_cdf_upper,
    spd_sqrt,
    symmetrize,
)
from factordist.regression import RANK_PIVOT_REL

from conftest import random_spd


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
    def test_identity(self):
        b = np.array([[3.0], [4.0]])
        np.testing.assert_allclose(chol_solve(np.eye(2), b), b, atol=1e-14)

    def test_diagonal(self):
        z = chol_solve(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
        np.testing.assert_allclose(z, np.array([[1.0], [2.0]]), atol=1e-14)

    def test_random_residual(self, rng):
        for _ in range(20):
            m = random_spd(rng, 6)
            b = rng.normal(size=(6, 3))
            z = chol_solve(m, b)
            resid = np.linalg.norm(m @ z - b) / np.linalg.norm(b)
            assert resid <= 1e-9

    def test_vector_rhs(self, rng):
        m = random_spd(rng, 4)
        b = rng.normal(size=4)
        z = chol_solve(m, b)
        np.testing.assert_allclose(m @ z, b, atol=1e-9)

    def test_not_pd(self):
        with pytest.raises(NotPDError):
            chol_solve(np.diag([1.0, 0.0]), np.ones(2))
        with pytest.raises(NotPDError):
            chol_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))

    def test_pivot_threshold_scales_with_trace(self):
        # Pivot threshold is 1e-14 * trace / dim; a 1e-20 pivot next to a
        # unit pivot must be rejected rather than propagated.
        with pytest.raises(NotPDError, match="at column 1 "):
            cholesky_spd(np.diag([1.0, 1e-20]))


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


class TestSymmetrize:
    def test_averages_roundoff(self):
        m = np.array([[1.0, 1.0 + 1e-14], [1.0, 2.0]])
        out = symmetrize(m)
        np.testing.assert_allclose(out, out.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(NotSymmetricError):
            symmetrize(np.ones((2, 3)))


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
