import math

import numpy as np
import pytest

from factordist import (
    distance_breakdown,
    equiv,
    fit_ols,
    skeptic_moments,
    solve_equiv,
    sweep,
)
from factordist.equiv import AD_TOL, MAX_BISECTIONS, SIGMA_TOL
from factordist.errors import BadConfigError, NotBracketedError, NumericalError

from conftest import make_dataset


@pytest.fixture
def fit(base_dataset):
    return fit_ols(*base_dataset)


class TestSweep:
    def test_zero_row_equals_dogmatic_breakdown(self, fit):
        row = sweep(fit, [0.0])[0]
        bd = distance_breakdown(*skeptic_moments(fit))
        # One owner of the dogmatic distance: the fields agree exactly.
        assert row.ad == bd.ad
        assert row.rmse_alpha == bd.rmse_alpha
        assert row.rmse_sigma == bd.rmse_sigma
        assert row.ratio_var == bd.ratio_var

    def test_strictly_decreasing_on_default_grid(self, fit):
        rows = sweep(fit, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
        ads = [r.ad for r in rows]
        assert all(a > b for a, b in zip(ads, ads[1:]))

    def test_component_identity(self, fit):
        for row in sweep(fit, [0.0, 1.0, 3.0, 9.0]):
            assert row.ad**2 == pytest.approx(
                row.rmse_alpha**2 + row.rmse_sigma**2, abs=1e-12)
            if np.isfinite(row.ratio_var) and row.rmse_alpha > 0:
                assert row.ratio_var == pytest.approx(
                    (row.rmse_sigma / row.rmse_alpha) ** 2, rel=1e-9)

    def test_distance_vanishes_at_extreme_skepticism(self, fit):
        rows = sweep(fit, [0.0, 1e4])
        assert rows[1].ad <= 1e-3 * rows[0].ad

    @pytest.mark.parametrize("rise, fails", [(1e-6, True), (1e-12, False)])
    def test_rising_distance_fails_past_the_slack(self, monkeypatch, fit, rise, fails):
        # A family whose AD grows by the factor 1 + rise from one grid point
        # to the next, all in the mean term: AD = (1 + rise)^sigma.
        class Rising:
            def __init__(self, fit):
                self.fit = fit

            def wd2_to_skeptic(self, sigma):
                return self.fit.n * (1.0 + rise) ** (2.0 * sigma), 0.0

        monkeypatch.setattr(equiv, "PosteriorFamily", Rising)
        if fails:
            with pytest.raises(NumericalError, match="increased along the grid"):
                sweep(fit, [0.0, 1.0, 2.0])
        else:
            ads = [r.ad for r in sweep(fit, [0.0, 1.0, 2.0])]
            assert ads[0] < ads[1] < ads[2]  # a rise within the slack

    @pytest.mark.parametrize("grid", [[], [-1.0, 2.0], [4.0, 2.0], [math.nan],
                                      [0.0, math.nan], [math.nan, 2.0]])
    def test_bad_grids_rejected(self, grid, fit):
        with pytest.raises(BadConfigError):
            sweep(fit, grid)


class TestSolveEquiv:
    def test_boundary_target(self, fit):
        target = sweep(fit, [0.0])[0].ad
        res = solve_equiv(fit, target)
        assert res.sigma_star_annual == 0.0
        assert res.iterations == 0

    def test_round_trip(self, fit):
        planted = 3.0
        target = sweep(fit, [planted])[0].ad
        res = solve_equiv(fit, target)
        assert abs(res.sigma_star_annual - planted) <= 1e-4
        assert abs(res.ad_at_star - target) <= 1e-6

    def test_round_trip_lands_on_grid_point(self, fit):
        grid = [0.0, 2.0, 4.0, 6.0]
        rows = sweep(fit, grid)
        res = solve_equiv(fit, rows[2].ad)
        assert abs(res.sigma_star_annual - 4.0) <= 1e-4

    @pytest.mark.parametrize("hi", [math.nan, math.inf, -5.0, 0.0, 1.7e54, 1e60, 1e300])
    def test_bad_bracket_hi_rejected(self, hi, fit):
        target = sweep(fit, [2.0])[0].ad
        with pytest.raises(BadConfigError):
            solve_equiv(fit, target, bracket_hi=hi)

    @pytest.mark.parametrize("scale", [1.5e54 / (SIGMA_TOL * 2**MAX_BISECTIONS), 1 - 1e-6])
    def test_bracket_just_inside_the_bound_converges(self, scale, fit):
        # MAX_BISECTIONS halvings narrow SIGMA_TOL * 2**MAX_BISECTIONS to
        # SIGMA_TOL, up to the rounding of each midpoint; a wider bracket is
        # rejected above.
        hi = scale * SIGMA_TOL * 2**MAX_BISECTIONS
        target = sweep(fit, [2.0])[0].ad
        res = solve_equiv(fit, target, bracket_hi=hi)
        assert res.iterations <= MAX_BISECTIONS
        assert abs(res.ad_at_star - target) <= AD_TOL
        assert abs(res.sigma_star_annual - 2.0) <= 1e-4

    def test_target_above_dogmatic_not_bracketed(self, fit):
        dogmatic_ad = sweep(fit, [0.0])[0].ad
        with pytest.raises(NotBracketedError):
            solve_equiv(fit, 2.0 * dogmatic_ad)

    def test_target_below_bracket_not_bracketed(self, fit):
        unreachable = sweep(fit, [50.0])[0].ad
        with pytest.raises(NotBracketedError):
            solve_equiv(fit, unreachable, bracket_hi=5.0)

    def test_monotone_twenty_point_grid(self):
        grid = list(np.linspace(0.0, 12.0, 20))
        ads = [r.ad for r in sweep(fit_ols(*make_dataset(seed=9, alpha=0.2)), grid)]
        assert all(a > b for a, b in zip(ads, ads[1:]))

    def test_result_invariant(self, fit):
        target = sweep(fit, [1.5])[0].ad
        res = solve_equiv(fit, target)
        assert abs(res.ad_at_star - target) <= 1e-6
