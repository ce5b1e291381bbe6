import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factordist import (
    GaussianDist,
    distance_breakdown,
    fit_ols,
    posterior_alpha_dogmatic,
    posterior_alpha_skeptic,
    skeptic_moments,
    transport_map,
    wd2_between_posteriors,
    wd2_components,
    wd2_gaussian,
)
from factordist.bayes import PosteriorFamily
from factordist.errors import DimMismatchError, SingularSourceError

from conftest import random_fit_inputs, random_spd


def random_gaussian(rng, dim, zero_cov=False):
    mean = rng.normal(0.0, 1.0, dim)
    cov = np.zeros((dim, dim)) if zero_cov else random_spd(rng, dim)
    return GaussianDist(mean, cov)


class TestWd2:
    def test_identical_distributions(self, rng):
        for dim in (1, 3, 5):
            p = random_gaussian(rng, dim)
            assert wd2_gaussian(p, p) == pytest.approx(0.0, abs=1e-9)

    def test_univariate_example(self):
        p1 = GaussianDist(np.array([0.0]), np.array([[1.0]]))
        p2 = GaussianDist(np.array([1.0]), np.array([[4.0]]))
        # Mean gap 1, std gap (2 - 1): distance sqrt(2).
        assert wd2_gaussian(p1, p2) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_univariate_closed_form(self, rng):
        for _ in range(50):
            m1, m2 = rng.normal(size=2)
            s1, s2 = rng.uniform(0.1, 3.0, size=2)
            p1 = GaussianDist(np.array([m1]), np.array([[s1**2]]))
            p2 = GaussianDist(np.array([m2]), np.array([[s2**2]]))
            expected = math.sqrt((m2 - m1) ** 2 + (s2 - s1) ** 2)
            assert wd2_gaussian(p1, p2) == pytest.approx(expected, abs=1e-12)

    def test_argument_swap(self, rng):
        for _ in range(20):
            p1 = random_gaussian(rng, 4)
            p2 = random_gaussian(rng, 4)
            assert wd2_gaussian(p1, p2) == pytest.approx(wd2_gaussian(p2, p1),
                                                         abs=1e-9)

    def test_metric_axioms(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            a = random_gaussian(rng, dim)
            b = random_gaussian(rng, dim)
            c = random_gaussian(rng, dim)
            dab, dba = wd2_gaussian(a, b), wd2_gaussian(b, a)
            assert dab >= 0.0
            assert abs(dab - dba) <= 1e-10 * max(1.0, dab)
            assert wd2_gaussian(a, c) <= wd2_gaussian(a, b) + wd2_gaussian(b, c) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8),
           zero_cov=st.lists(st.booleans(), min_size=3, max_size=3),
           log10_scale=st.floats(-3.0, 3.0))
    def test_metric_axioms_random_gaussians(self, seed, dim, zero_cov, log10_scale):
        rng = np.random.default_rng(seed)
        scale = 10.0**log10_scale
        a, b, c = (GaussianDist(scale * p.mean, scale**2 * p.cov) for p in
                   (random_gaussian(rng, dim, z) for z in zero_cov))
        # Trace residues of roundoff size snap to zero, so identity is exact.
        assert wd2_gaussian(a, a) == 0.0
        dab, dba = wd2_gaussian(a, b), wd2_gaussian(b, a)
        assert dab > 0.0
        assert abs(dab - dba) <= 1e-10 * dab
        assert wd2_gaussian(a, c) <= (dab + wd2_gaussian(b, c)) * (1.0 + 1e-10)

    def test_zero_covariances_allowed(self, rng):
        a = random_gaussian(rng, 3, zero_cov=True)
        b = random_gaussian(rng, 3)
        assert wd2_gaussian(a, b) > 0.0
        point1 = GaussianDist(np.zeros(2), np.zeros((2, 2)))
        point2 = GaussianDist(np.array([3.0, 4.0]), np.zeros((2, 2)))
        assert wd2_gaussian(point1, point2) == pytest.approx(5.0, abs=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatchError):
            wd2_gaussian(random_gaussian(rng, 2), random_gaussian(rng, 3))

    def test_components_sum_to_squared_distance(self, rng):
        p1, p2 = random_gaussian(rng, 4), random_gaussian(rng, 4)
        mean_sq, trace_term = wd2_components(p1, p2)
        assert mean_sq >= 0.0 and trace_term >= 0.0
        assert wd2_gaussian(p1, p2) == pytest.approx(
            math.sqrt(mean_sq + trace_term), abs=1e-14)


class TestTransportMap:
    def test_equal_covariances_give_identity(self, rng):
        cov = random_spd(rng, 3)
        p1 = GaussianDist(np.zeros(3), cov)
        p2 = GaussianDist(np.ones(3), cov.copy())
        np.testing.assert_allclose(transport_map(p1, p2), np.eye(3), atol=1e-9)

    def test_scalar_map_is_std_ratio(self):
        p1 = GaussianDist(np.array([0.0]), np.array([[1.0]]))
        p2 = GaussianDist(np.array([0.0]), np.array([[4.0]]))
        assert transport_map(p1, p2)[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_pushforward_and_inverse(self, rng):
        for _ in range(20):
            v1 = random_spd(rng, 3)
            v2 = random_spd(rng, 3)
            p1 = GaussianDist(np.zeros(3), v1)
            p2 = GaussianDist(np.zeros(3), v2)
            t12 = transport_map(p1, p2)
            np.testing.assert_allclose(t12 @ v1 @ t12.T, v2, atol=1e-9)
            t21 = transport_map(p2, p1)
            np.testing.assert_allclose(t21, np.linalg.inv(t12), atol=1e-8)

    def test_singular_source_rejected(self, rng):
        point = GaussianDist(np.zeros(2), np.zeros((2, 2)))
        target = random_gaussian(rng, 2)
        with pytest.raises(SingularSourceError):
            transport_map(point, target)


class TestDistanceBreakdown:
    def test_zero_posterior(self):
        bd = distance_breakdown(np.zeros(4), np.zeros(4))
        assert bd.td == 0.0 and bd.ad == 0.0
        assert bd.rmse_alpha == 0.0 and bd.rmse_sigma == 0.0
        np.testing.assert_array_equal(bd.marginal, np.zeros(4))
        assert math.isinf(bd.ratio_var)

    def test_pythagorean_case(self):
        bd = distance_breakdown(np.array([0.3, 0.4]), np.zeros(2))
        assert bd.td == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(bd.marginal, [0.3, 0.4], atol=1e-12)
        assert bd.ratio_var == 0.0

    def test_field_identities(self, rng):
        post = random_gaussian(rng, 5)
        bd = distance_breakdown(post.mean, np.diag(post.cov))
        assert bd.td == pytest.approx(bd.ad * math.sqrt(5), abs=1e-10)
        assert bd.ad**2 == pytest.approx(bd.rmse_alpha**2 + bd.rmse_sigma**2,
                                         abs=1e-10)
        # Total distance additivity over marginal contributions, exactly.
        assert bd.td**2 == pytest.approx(float(bd.marginal @ bd.marginal),
                                         rel=1e-14)

    def test_matches_full_transport_distance(self, rng):
        # Dual route: the per-asset decomposition against the point mass
        # coincides with the full matrix machinery because the trace is
        # basis-free.
        for _ in range(20):
            dataset, model = random_fit_inputs(rng)
            fit = fit_ols(dataset, model)
            bd = distance_breakdown(*skeptic_moments(fit))
            full = wd2_gaussian(posterior_alpha_dogmatic(fit.n),
                                posterior_alpha_skeptic(fit))
            assert abs(bd.td - full) <= 1e-12 * max(1.0, bd.td)

    def test_table_aggregate_consistency(self):
        # Aggregates reported for a six-factor model on 25 portfolios:
        # component 0.114 and 0.068 recombine to the printed 0.133, and
        # scaling the printed average by sqrt(25) gives the printed 0.665.
        ad = math.sqrt(0.114**2 + 0.068**2)
        assert abs(ad - 0.133) <= 5e-4
        assert abs(math.sqrt(25) * 0.133 - 0.665) <= 5e-4

    def test_variance_scaling_hits_ratio_and_monotone_td(self):
        alpha = np.array([0.2, -0.1, 0.15])
        base_cov = np.diag([0.01, 0.02, 0.015])
        tds = []
        for scale in (0.5, 1.0, 2.0, 4.0):
            bd = distance_breakdown(alpha, np.diag(scale * base_cov))
            tds.append(bd.td)
            assert bd.ratio_var == pytest.approx(
                scale * base_cov.trace() / float(alpha @ alpha), rel=1e-12)
        assert all(a < b for a, b in zip(tds, tds[1:]))


class TestBetweenPosteriors:
    def test_identical(self, rng):
        p = random_gaussian(rng, 4)
        td, ad = wd2_between_posteriors(p, p, 4)
        assert td == pytest.approx(0.0, abs=1e-9)
        assert ad == pytest.approx(0.0, abs=1e-9)

    def test_dogmatic_vs_skeptic_equals_breakdown(self, base_dataset):
        dataset, model = base_dataset
        fit = fit_ols(dataset, model)
        skeptic = posterior_alpha_skeptic(fit)
        bd = distance_breakdown(*skeptic_moments(fit))
        td, ad = wd2_between_posteriors(posterior_alpha_dogmatic(skeptic.dim),
                                        skeptic, skeptic.dim)
        assert td == pytest.approx(bd.td, abs=1e-12)
        assert ad == pytest.approx(bd.ad, abs=1e-12)

    def test_interior_point_is_closer(self, base_dataset):
        dataset, model = base_dataset
        family = PosteriorFamily(dataset, model)
        skeptic = family.skeptic()
        n = family.fit.n
        dogmatic_td, _ = wd2_between_posteriors(family.at(0.0), skeptic, n)
        interior_td, _ = wd2_between_posteriors(family.at(2.0), skeptic, n)
        assert interior_td < dogmatic_td

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatchError):
            wd2_between_posteriors(random_gaussian(rng, 3),
                                   random_gaussian(rng, 3), 4)
