"""Mispricing-uncertainty sweeps and the distance-equivalence solver.

A sweep evaluates one model's average distance to its own data-based
posterior across a grid of prior mispricing stds; the distance is the full
Gaussian transport distance divided by sqrt(n), so the sigma = 0 row equals
the model's dogmatic average distance, and the whole grid is one numpy pass.
The solver inverts the monotone map sigma -> AD by bisection to find the
sigma at which a skeptical view of the alternative model matches a
benchmark's distance. It bisects all alternatives in lockstep: one step
evaluates the AD of every alternative still in the bisection in one numpy
pass, and each alternative leaves at the step where its own stop rule fires,
with the result it would reach alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bayes import FamilyStack, PosteriorFamily
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
    _, ad, rmse_alpha, rmse_sigma, ratio_var = distance_metrics(
        *family.wd2_to_skeptic(np.array(grid)), fit.n)
    rows = [SweepRow(*row) for row in zip(grid, ad.tolist(), rmse_alpha.tolist(),
                                          rmse_sigma.tolist(), ratio_var.tolist())]
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
    """Find sigma such that the fitted alternative model's AD equals the target:
    :func:`solve_equivs` for one family.

    ``AD_TOL`` and ``SIGMA_TOL`` are absolute values in the package's percent
    units (AD in percent per month, sigma in annualized percent) and do not
    scale with the returns: with returns scaled by 1e-4, sigma* scaled back
    moves in its 4th significant digit.

    Raises
    ------
    BadConfigError
        ``bracket_hi`` is not positive or above SIGMA_TOL * 2**MAX_BISECTIONS
        (about 1.6e54), past which MAX_BISECTIONS halvings leave it too wide.
    NotBracketedError
        Target above the dogmatic AD or below the AD at ``bracket_hi``.
    NoConvergenceError
        Iteration cap reached, or the bracket can no longer be halved at
        sigma's float spacing while the AD is still off the target.
    """
    check_bracket_hi(bracket_hi)
    result = solve_equivs([PosteriorFamily(fit)], benchmark_ad, bracket_hi)[0]
    if isinstance(result, NotBracketedError):
        raise result
    return result


def solve_equivs(families: Sequence[PosteriorFamily], benchmark_ad: float,
                 bracket_hi: float = DEFAULT_BRACKET_HI
                 ) -> list[EquivResult | NotBracketedError]:
    """Bisect every family's monotone-decreasing map sigma -> AD on
    [0, bracket_hi] in lockstep, one :class:`FamilyStack` evaluation per step
    for every family still in the bisection.

    A family leaves with its result at sigma = 0 when its dogmatic AD is
    within AD_TOL of the target, and with a NotBracketedError, returned in its
    place, when the target lies above its dogmatic AD or below its AD at
    ``bracket_hi``. The rest take bisection steps until the AD at the
    midpoint is within AD_TOL of the target and the bracket is at most
    SIGMA_TOL wide, or until the midpoint equals an end of the bracket, which
    then cannot be halved: that midpoint is the result if its AD is within
    AD_TOL, and a NoConvergenceError otherwise.

    Raises
    ------
    BadConfigError
        ``bracket_hi`` outside what :func:`check_bracket_hi` accepts.
    NoConvergenceError
        The first, in family order, that fails to converge.
    """
    check_bracket_hi(bracket_hi)
    target = float(benchmark_ad)
    names = [f.fit.model.name for f in families]
    results: list = [None] * len(names)

    def unsolved() -> tuple[np.ndarray, FamilyStack]:
        live = [i for i, r in enumerate(results) if r is None]
        return np.array(live, dtype=np.intp), FamilyStack([families[i] for i in live])

    def ad_at(stack: FamilyStack, sigma: np.ndarray) -> np.ndarray:
        return distance_metrics(*stack.wd2_to_skeptic(sigma), stack.n)[1]

    live, stack = unsolved()
    for i, ad in zip(live.tolist(), ad_at(stack, np.zeros(live.shape)).tolist()):
        if abs(ad - target) <= AD_TOL:
            results[i] = EquivResult(names[i], 0.0, ad, 0)
        elif target > ad:
            results[i] = NotBracketedError(
                f"target AD {target:.6g} exceeds the dogmatic AD {ad:.6g} "
                f"of model {names[i]!r}")
    live, stack = unsolved()
    ad_hi = ad_at(stack, np.full(live.shape, float(bracket_hi)))
    for i, ad in zip(live.tolist(), ad_hi.tolist()):
        if target < ad:
            results[i] = NotBracketedError(
                f"target AD {target:.6g} below the AD {ad:.6g} at "
                f"sigma = {bracket_hi}%")
    live, stack = unsolved()
    lo, hi = np.zeros(live.shape), np.full(live.shape, float(bracket_hi))
    for iteration in range(1, MAX_BISECTIONS + 1):
        if not live.size:
            break
        mid = 0.5 * (lo + hi)
        ad = ad_at(stack, mid)
        stuck = (mid == lo) | (mid == hi)
        above = ad > target
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        close = np.abs(ad - target) <= AD_TOL
        done = close & ((hi - lo <= SIGMA_TOL) | stuck)
        for i, sigma, ad_i in zip(live[done].tolist(), mid[done].tolist(),
                                  ad[done].tolist()):
            results[i] = EquivResult(names[i], sigma, ad_i, iteration)
        failed = stuck & ~close
        for i, sigma, ad_i in zip(live[failed].tolist(), mid[failed].tolist(),
                                  ad[failed].tolist()):
            results[i] = NoConvergenceError(
                f"model {names[i]!r}: bisection stopped at sigma = {sigma:.6g}% with "
                f"|AD - target| = {abs(ad_i - target):.3g} > {AD_TOL}: "
                f"sigma's float spacing there leaves no midpoint inside the bracket")
        keep = ~(done | stuck)
        if not keep.all():
            lo, hi = lo[keep], hi[keep]
            live, stack = unsolved()
    for i in live.tolist():
        results[i] = NoConvergenceError(
            f"model {names[i]!r}: bisection did not reach |AD - target| <= {AD_TOL} in "
            f"{MAX_BISECTIONS} iterations")
    for result in results:
        if isinstance(result, NoConvergenceError):
            raise result
    return results
