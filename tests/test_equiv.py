import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factordist import (
    Dataset,
    EquivResult,
    ModelSpec,
    PosteriorFamily,
    ReturnsPanel,
    distance_breakdown,
    equiv,
    fit_ols,
    skeptic_moments,
    solve_equiv,
    sweep,
)
from factordist.equiv import AD_TOL, MAX_BISECTIONS, SIGMA_TOL, solve_equivs
from factordist.errors import (
    BadConfigError,
    NoConvergenceError,
    NotBracketedError,
    NumericalError,
)
from factordist.linalg import QuadratureStack
from factordist.transport import distance_metrics

from conftest import make_dataset, random_fit_inputs


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

            def wd2_to_skeptic(self, sigma):  # elementwise over sigma
                return self.fit.n * (1.0 + rise) ** (2.0 * sigma), 0.0 * sigma

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

    def test_bracket_that_cannot_be_halved_converges_where_ad_is_close(self):
        # Above sigma ~ 8.6e9 no two floats are SIGMA_TOL apart, so the bracket
        # never narrows to SIGMA_TOL; the bisection ends where the midpoint
        # equals an end of the bracket, and the AD there is on target.
        fit = fit_ols(*make_dataset(seed=42))
        target = sweep(fit, [2e10])[0].ad
        res = solve_equiv(fit, target, bracket_hi=1e11)
        assert abs(res.ad_at_star - target) <= AD_TOL
        assert res.sigma_star_annual > 8.6e9
        assert res.iterations < MAX_BISECTIONS

    def test_bracket_that_cannot_be_halved_off_target_fails_at_once(self):
        # Returns scaled by 1e12 make the AD change by more than AD_TOL from
        # one float sigma to the next near 2e10.
        fit = fit_ols(*make_dataset(seed=42, alpha=0.15e12, resid_vol=2e12))
        target = sweep(fit, [2e10])[0].ad
        with pytest.raises(NoConvergenceError, match="float spacing"):
            solve_equiv(fit, target, bracket_hi=1e14)


def _scalar_bisection(family, target, bracket_hi):
    """One alternative's bisection in Python floats, one sigma at a time: the
    reference that the lockstep solver must equal bit for bit."""
    name = family.fit.model.name

    def ad_at(sigma):
        return float(distance_metrics(*family.wd2_to_skeptic(sigma), family.fit.n)[1])

    ad_lo = ad_at(0.0)
    if abs(ad_lo - target) <= AD_TOL:
        return EquivResult(name, 0.0, ad_lo, 0)
    if target > ad_lo:
        return NotBracketedError(f"target AD {target:.6g} exceeds the dogmatic "
                                 f"AD {ad_lo:.6g} of model {name!r}")
    ad_hi = ad_at(bracket_hi)
    if target < ad_hi:
        return NotBracketedError(f"target AD {target:.6g} below the AD "
                                 f"{ad_hi:.6g} at sigma = {bracket_hi}%")
    lo, hi = 0.0, bracket_hi
    for iteration in range(1, MAX_BISECTIONS + 1):
        mid = 0.5 * (lo + hi)
        ad = ad_at(mid)
        stuck = mid in (lo, hi)
        if ad > target:
            lo = mid
        else:
            hi = mid
        if abs(ad - target) <= AD_TOL and (hi - lo <= SIGMA_TOL or stuck):
            return EquivResult(name, mid, ad, iteration)
        if stuck:
            return NoConvergenceError("float spacing")
    return NoConvergenceError("iteration cap")


def _subset_families(seed, T, n, k, spreads=(0.0,)):
    """A family for every non-empty factor subset of one random panel and of
    copies of it whose asset j is scaled by 10^(spread (2j / (n - 1) - 1)),
    for each spread in turn. Spreads give the quadrature tables a range of
    lengths. The full model of the first panel comes first: it is the
    benchmark, so its sigma* is 0."""
    dataset, _ = random_fit_inputs(np.random.default_rng(seed), T=T, n=n, k=k)
    panel, factors = dataset.portfolios, dataset.factors
    subsets = [c for size in range(k, 0, -1)
               for c in itertools.combinations(factors.names, size)]
    families = []
    for spread in spreads:
        scale = 10.0 ** (spread * np.linspace(-1.0, 1.0, n))
        scaled = Dataset(ReturnsPanel(panel.dates, panel.names, panel.values * scale),
                         factors)
        families += [PosteriorFamily(fit_ols(scaled, ModelSpec("S" + "".join(c), c)))
                     for c in subsets]
    return families


def _bits(result):
    if isinstance(result, EquivResult):
        return (result.alt_model, result.sigma_star_annual.hex(),
                result.ad_at_star.hex(), result.iterations)
    return type(result).__name__, str(result)


class TestLockstep:
    """``solve_equivs`` bisects all alternatives at once; each must come out as
    its own scalar bisection would leave it."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), T=st.integers(24, 120),
           n=st.integers(2, 8), k=st.integers(2, 3),
           spreads=st.lists(st.floats(0.0, 1.5), max_size=2),
           log10_hi=st.floats(-1.0, 3.0), drop=st.integers(0, 3))
    @example(seed=6, T=60, n=6, k=3, spreads=[], log10_hi=0.5, drop=0)
    @example(seed=1, T=60, n=6, k=3, spreads=[0.5, 1.0], log10_hi=1.0, drop=0)
    def test_equals_scalar_bisection(self, seed, T, n, k, spreads, log10_hi, drop):
        families = _subset_families(seed, T, n, k, (0.0, *spreads))
        target = float(distance_breakdown(*skeptic_moments(families[0].fit)).ad)
        # Rotate the benchmark away from the front, and repeat one alternative.
        families = families[drop:] + families[:drop] + families[1:2]
        # Stacked, in any order, each table sums as it does alone. Where
        # lengths differ this catches a sum that reorders terms, which the
        # rounded AD mostly hides.
        tables = [f._quad for f in families[::-1]]
        u0 = np.array([f._u0 for f in families[::-1]])
        for gu0 in (1e-6, 1e-3, 0.1, 0.5, 0.9):
            g = gu0 / u0
            assert [x.hex() for x in QuadratureStack(tables).remainder(g).tolist()] == [
                float(t.remainder(x)).hex() for t, x in zip(tables, g.tolist())]
        bracket_hi = 10.0**log10_hi
        want = [_scalar_bisection(f, target, bracket_hi) for f in families]
        failures = [w for w in want if isinstance(w, NoConvergenceError)]
        if failures:
            with pytest.raises(NoConvergenceError):
                solve_equivs(families, target, bracket_hi)
            return
        got = solve_equivs(families, target, bracket_hi)
        assert [_bits(r) for r in got] == [_bits(w) for w in want]

    def test_oracle_panels_cover_every_outcome(self):
        # The example pinned above has a sigma* = 0, solved alternatives and
        # both kinds of NotBracketedError.
        families = _subset_families(seed=6, T=60, n=6, k=3)
        target = float(distance_breakdown(*skeptic_moments(families[0].fit)).ad)
        outcomes = {str(r).split(" ")[3] if isinstance(r, NotBracketedError)
                    else r.iterations > 0
                    for r in solve_equivs(families, target, 10.0**0.5)}
        assert outcomes == {False, True, "exceeds", "below"}

    def test_first_failure_in_order_is_raised(self, monkeypatch):
        # With no AD within the tolerance every bracketed alternative runs to
        # the cap: the earlier one's error comes out, as one alternative at a
        # time would give.
        dataset, _ = make_dataset(seed=42, k=2)
        families = [PosteriorFamily(fit_ols(dataset, ModelSpec(name, ("F1",))))
                    for name in ("EARLY", "LATE")]
        target = sweep(families[0].fit, [3.0])[0].ad
        monkeypatch.setattr(equiv, "AD_TOL", -1.0)
        with pytest.raises(NoConvergenceError, match="^model 'EARLY': "):
            solve_equivs(families, target)
        with pytest.raises(NoConvergenceError, match="^model 'LATE': "):
            solve_equivs(families[::-1], target)
