"""Mispricing-uncertainty sweeps and the distance-equivalence solver.

A sweep evaluates one model's average distance to its own data-based
posterior across a grid of prior mispricing stds; the distance is the full
Gaussian transport distance divided by sqrt(n), so the sigma = 0 row equals
the model's dogmatic average distance. The solver inverts the monotone map
sigma -> AD by bisection to find the sigma at which a skeptical view of the
alternative model matches a benchmark's distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bayes import PosteriorFamily
from .dataio import Dataset, ModelSpec
from .errors import BadConfigError, NoConvergenceError, NotBracketedError, NumericalError

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
    benchmark_model: str
    sigma_star_annual: float
    ad_at_star: float
    iterations: int
    converged: bool


def _row_at(family: PosteriorFamily, sigma_annual: float) -> SweepRow:
    mean_sq, trace_term = family.wd2_to_skeptic(sigma_annual)
    n = family.fit.n
    return SweepRow(
        sigma_alpha_annual=sigma_annual,
        # As in transport.distance_breakdown, so sigma = 0 gives its AD exactly.
        ad=math.sqrt(mean_sq + trace_term) / math.sqrt(n),
        rmse_alpha=math.sqrt(mean_sq / n),
        rmse_sigma=math.sqrt(trace_term / n),
        ratio_var=trace_term / mean_sq if mean_sq > 0.0 else math.inf,
    )


def sweep(dataset: Dataset, model: ModelSpec,
          grid: Sequence[float]) -> list[SweepRow]:
    """Evaluate the distance metrics over a sorted grid of sigma values.

    Raises
    ------
    BadConfigError
        Empty, negative, NaN or unsorted grid (``inf`` is the skeptic row).
    NumericalError
        If the average distance fails to be non-increasing along the grid.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise BadConfigError("sigma grid is empty")
    if not all(g >= 0.0 for g in grid):
        raise BadConfigError("sigma grid values must be non-negative numbers")
    if sorted(grid) != grid:
        raise BadConfigError("sigma grid must be sorted ascending")
    family = PosteriorFamily(dataset, model)
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
    """Raise BadConfigError unless the bisection bracket is finite and positive."""
    if not 0.0 < bracket_hi < math.inf:
        raise BadConfigError(f"bracket_hi must be finite and positive, got {bracket_hi}")


def solve_equiv(dataset: Dataset, alt: ModelSpec, benchmark_ad: float,
                bracket_hi: float = DEFAULT_BRACKET_HI,
                benchmark_name: str = "") -> EquivResult:
    """Find sigma such that the alternative model's AD equals the target.

    Bisects the monotone-decreasing map sigma -> AD on [0, bracket_hi]
    until the distance matches within 1e-6.

    Raises
    ------
    BadConfigError
        ``bracket_hi`` is not finite and positive.
    NotBracketedError
        Target above the dogmatic AD or below the AD at ``bracket_hi``.
    NoConvergenceError
        Iteration cap reached (the map would have to be pathologically
        steep).
    """
    check_bracket_hi(bracket_hi)
    target = float(benchmark_ad)
    family = PosteriorFamily(dataset, alt)

    def ad_at(sigma: float) -> float:
        return _row_at(family, sigma).ad

    ad_lo = ad_at(0.0)
    if abs(ad_lo - target) <= AD_TOL:
        return EquivResult(alt.name, benchmark_name, 0.0, ad_lo, 0, True)
    if target > ad_lo:
        raise NotBracketedError(
            f"target AD {target:.6g} exceeds the dogmatic AD {ad_lo:.6g} "
            f"of model {alt.name!r}"
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
            return EquivResult(alt.name, benchmark_name, mid, ad_mid,
                               iteration, True)
    raise NoConvergenceError(
        f"bisection did not reach |AD - target| <= {AD_TOL} in "
        f"{MAX_BISECTIONS} iterations"
    )
