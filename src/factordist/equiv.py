"""Mispricing-uncertainty sweeps and the distance-equivalence solver.

A sweep evaluates one model's average distance to its own data-based
posterior across a grid of prior mispricing stds; the distance is the full
Gaussian transport distance divided by sqrt(n), so the sigma = 0 row equals
the model's dogmatic average distance. The solver inverts the monotone map
sigma -> AD by bisection to find the sigma at which a skeptical view of the
alternative model matches a benchmark's distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bayes import PosteriorFamily
from .errors import BadConfigError, NoConvergenceError, NotBracketedError, NumericalError
from .regression import RegressionFit
from .transport import distance_metrics

AD_TOL = 1e-6
# The bracket must also collapse before convergence is declared; on flat
# stretches of the AD curve the distance tolerance alone pins sigma poorly.
SIGMA_TOL = 1e-6
MAX_BISECTIONS = 200
DEFAULT_BRACKET_HI = 100.0
# Slack for the non-increasing AD assertion across a sweep grid.
MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class SweepRow:
    """Distance metrics at one prior mispricing std (annualized percent).

    ``rmse_alpha`` is the mean-shift contribution and ``rmse_sigma`` the
    covariance trace contribution, each per asset, so that
    ``ad**2 == rmse_alpha**2 + rmse_sigma**2``; ``ratio_var`` is their
    squared ratio (infinite when the mean shift vanishes).
    """

    sigma_alpha_annual: float
    ad: float
    rmse_alpha: float
    rmse_sigma: float
    ratio_var: float


@dataclass(frozen=True)
class EquivResult:
    """Solved prior mispricing std making two models distance equivalent."""

    alt_model: str
    sigma_star_annual: float
    ad_at_star: float
    iterations: int


def _row_at(family: PosteriorFamily, sigma_annual: float) -> SweepRow:
    _, ad, rmse_alpha, rmse_sigma, ratio_var = distance_metrics(
        *family.wd2_to_skeptic(sigma_annual), family.fit.n)
    return SweepRow(sigma_annual, ad, rmse_alpha, rmse_sigma, ratio_var)


def check_grid(grid: Sequence[float]) -> list[float]:
    """The grid as floats; BadConfigError unless it is non-empty, free of
    negative and NaN values and sorted (``inf`` is the skeptic row)."""
    grid = [float(g) for g in grid]
    if not grid:
        raise BadConfigError("sigma grid is empty")
    if not all(g >= 0.0 for g in grid):
        raise BadConfigError("sigma grid values must be non-negative numbers")
    if sorted(grid) != grid:
        raise BadConfigError("sigma grid must be sorted ascending")
    return grid


def sweep(fit: RegressionFit, grid: Sequence[float]) -> list[SweepRow]:
    """Evaluate a fitted model's distance metrics over a sorted sigma grid.

    Raises
    ------
    BadConfigError
        A grid that :func:`check_grid` rejects.
    NumericalError
        If the average distance fails to be non-increasing along the grid.
    """
    grid = check_grid(grid)
    family = PosteriorFamily(fit)
    rows = [_row_at(family, g) for g in grid]
    for prev, cur in zip(rows, rows[1:]):
        if cur.ad > prev.ad + MONOTONE_SLACK * max(1.0, prev.ad):
            raise NumericalError(
                f"average distance increased along the grid: "
                f"{prev.ad:.6e} at {prev.sigma_alpha_annual} -> "
                f"{cur.ad:.6e} at {cur.sigma_alpha_annual}"
            )
    return rows


def check_bracket_hi(bracket_hi: float) -> None:
    """Raise BadConfigError unless 0 < bracket_hi <= SIGMA_TOL * 2**MAX_BISECTIONS."""
    top = SIGMA_TOL * 2**MAX_BISECTIONS
    if not 0.0 < bracket_hi <= top:
        raise BadConfigError(f"bracket_hi must be finite and positive, at most "
                             f"{top:.6g}, got {bracket_hi}")


def solve_equiv(fit: RegressionFit, benchmark_ad: float,
                bracket_hi: float = DEFAULT_BRACKET_HI) -> EquivResult:
    """Find sigma such that the fitted alternative model's AD equals the target.

    Bisects the monotone-decreasing map sigma -> AD on [0, bracket_hi]
    until the distance matches within 1e-6 and the bracket is at most SIGMA_TOL wide.

    Raises
    ------
    BadConfigError
        ``bracket_hi`` is not positive or above SIGMA_TOL * 2**MAX_BISECTIONS
        (about 1.6e54), past which MAX_BISECTIONS halvings leave it too wide.
    NotBracketedError
        Target above the dogmatic AD or below the AD at ``bracket_hi``.
    NoConvergenceError
        Iteration cap reached (the map would have to be pathologically
        steep).
    """
    check_bracket_hi(bracket_hi)
    target = float(benchmark_ad)
    family = PosteriorFamily(fit)

    def ad_at(sigma: float) -> float:
        return _row_at(family, sigma).ad

    ad_lo = ad_at(0.0)
    if abs(ad_lo - target) <= AD_TOL:
        return EquivResult(fit.model.name, 0.0, ad_lo, 0)
    if target > ad_lo:
        raise NotBracketedError(
            f"target AD {target:.6g} exceeds the dogmatic AD {ad_lo:.6g} "
            f"of model {fit.model.name!r}"
        )
    ad_hi = ad_at(bracket_hi)
    if target < ad_hi:
        raise NotBracketedError(
            f"target AD {target:.6g} below the AD {ad_hi:.6g} at "
            f"sigma = {bracket_hi}%"
        )
    lo, hi = 0.0, float(bracket_hi)
    for iteration in range(1, MAX_BISECTIONS + 1):
        mid = 0.5 * (lo + hi)
        ad_mid = ad_at(mid)
        if ad_mid > target:
            lo = mid
        else:
            hi = mid
        if abs(ad_mid - target) <= AD_TOL and hi - lo <= SIGMA_TOL:
            return EquivResult(fit.model.name, mid, ad_mid, iteration)
    raise NoConvergenceError(
        f"bisection did not reach |AD - target| <= {AD_TOL} in "
        f"{MAX_BISECTIONS} iterations"
    )
