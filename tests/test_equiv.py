import math

import numpy as np
import pytest

from factordist import (
    distance_breakdown,
    fit_ols,
    skeptic_moments,
    solve_equiv,
    sweep,
)
from factordist.errors import BadConfigError, NotBracketedError

from conftest import make_dataset


class TestSweep:
    def test_zero_row_equals_dogmatic_breakdown(self, base_dataset):
        dataset, model = base_dataset
        row = sweep(dataset, model, [0.0])[0]
        bd = distance_breakdown(*skeptic_moments(fit_ols(dataset, model)))
        # One owner of the dogmatic distance: the fields agree exactly.
        assert row.ad == bd.ad
        assert row.rmse_alpha == bd.rmse_alpha
        assert row.rmse_sigma == bd.rmse_sigma
        assert row.ratio_var == bd.ratio_var

    def test_strictly_decreasing_on_default_grid(self, base_dataset):
        dataset, model = base_dataset
        rows = sweep(dataset, model, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])
        ads = [r.ad for r in rows]
        assert all(a > b for a, b in zip(ads, ads[1:]))

    def test_component_identity(self, base_dataset):
        dataset, model = base_dataset
        for row in sweep(dataset, model, [0.0, 1.0, 3.0, 9.0]):
            assert row.ad**2 == pytest.approx(
                row.rmse_alpha**2 + row.rmse_sigma**2, abs=1e-12)
            if np.isfinite(row.ratio_var) and row.rmse_alpha > 0:
                assert row.ratio_var == pytest.approx(
                    (row.rmse_sigma / row.rmse_alpha) ** 2, rel=1e-9)

    def test_distance_vanishes_at_extreme_skepticism(self, base_dataset):
        dataset, model = base_dataset
        rows = sweep(dataset, model, [0.0, 1e4])
        assert rows[1].ad <= 1e-3 * rows[0].ad

    @pytest.mark.parametrize("grid", [[], [-1.0, 2.0], [4.0, 2.0], [math.nan],
                                      [0.0, math.nan], [math.nan, 2.0]])
    def test_bad_grids_rejected(self, grid, base_dataset):
        dataset, model = base_dataset
        with pytest.raises(BadConfigError):
            sweep(dataset, model, grid)


class TestSolveEquiv:
    def test_boundary_target(self, base_dataset):
        dataset, model = base_dataset
        target = sweep(dataset, model, [0.0])[0].ad
        res = solve_equiv(dataset, model, target)
        assert res.converged
        assert res.sigma_star_annual == 0.0
        assert res.iterations == 0

    def test_round_trip(self, base_dataset):
        dataset, model = base_dataset
        planted = 3.0
        target = sweep(dataset, model, [planted])[0].ad
        res = solve_equiv(dataset, model, target, benchmark_name="SELF")
        assert res.converged
        assert res.benchmark_model == "SELF"
        assert abs(res.sigma_star_annual - planted) <= 1e-4
        assert abs(res.ad_at_star - target) <= 1e-6

    def test_round_trip_lands_on_grid_point(self, base_dataset):
        dataset, model = base_dataset
        grid = [0.0, 2.0, 4.0, 6.0]
        rows = sweep(dataset, model, grid)
        res = solve_equiv(dataset, model, rows[2].ad)
        assert abs(res.sigma_star_annual - 4.0) <= 1e-4

    @pytest.mark.parametrize("hi", [math.nan, math.inf, -5.0, 0.0])
    def test_bad_bracket_hi_rejected(self, hi, base_dataset):
        dataset, model = base_dataset
        target = sweep(dataset, model, [2.0])[0].ad
        with pytest.raises(BadConfigError):
            solve_equiv(dataset, model, target, bracket_hi=hi)

    def test_target_above_dogmatic_not_bracketed(self, base_dataset):
        dataset, model = base_dataset
        dogmatic_ad = sweep(dataset, model, [0.0])[0].ad
        with pytest.raises(NotBracketedError):
            solve_equiv(dataset, model, 2.0 * dogmatic_ad)

    def test_target_below_bracket_not_bracketed(self, base_dataset):
        dataset, model = base_dataset
        unreachable = sweep(dataset, model, [50.0])[0].ad
        with pytest.raises(NotBracketedError):
            solve_equiv(dataset, model, unreachable, bracket_hi=5.0)

    def test_monotone_twenty_point_grid(self):
        dataset, model = make_dataset(seed=9, alpha=0.2)
        grid = list(np.linspace(0.0, 12.0, 20))
        ads = [r.ad for r in sweep(dataset, model, grid)]
        assert all(a > b for a, b in zip(ads, ads[1:]))

    def test_result_invariant(self, base_dataset):
        dataset, model = base_dataset
        target = sweep(dataset, model, [1.5])[0].ad
        res = solve_equiv(dataset, model, target)
        if res.converged:
            assert abs(res.ad_at_star - target) <= 1e-6
