"""Mispricing-uncertainty sweeps and the distance-equivalence solver.

A sweep evaluates one model's average distance to its own data-based
posterior across a grid of prior mispricing stds; the distance is the full
Gaussian transport distance divided by sqrt(n), so the sigma = 0 row equals
the model's dogmatic average distance, and the whole grid is one numpy pass.
The solver inverts the monotone map sigma -> AD by bisection to find the
sigma at which a skeptical view of the alternative model matches a
benchmark's distance. It bisects all alternatives in lockstep: one step
evaluates the AD of every alternative in one numpy pass, and each
alternative leaves at the step where its own stop rule fires, with the
result it would reach alone. Both take families built by
``bayes.PosteriorFamily(fit)`` and evaluate them through
``bayes.FamilyStack``, whose evaluation is elementwise: a family's AD does
not depend on the families stacked with it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .bayes import FamilyStack, PosteriorFamily, distance_metrics
from .errors import BadConfigError, NoConvergenceError, NotBracketedError, NumericalError

AD_TOL = 1e-6
# The bracket must also collapse before convergence is declared; on flat
# stretches of the AD curve the distance tolerance alone pins sigma poorly.
SIGMA_TOL = 1e-6
MAX_BISECTIONS = 200
DEFAULT_BRACKET_HI = 100.0
# Slack for the non-increasing AD assertion across a sweep grid.
MONOTONE_SLACK = 1e-10


class SweepRow(NamedTuple):
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


class EquivResult(NamedTuple):
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


def sweep(family: PosteriorFamily, grid: Sequence[float]) -> list[SweepRow]:
    """Evaluate a built family's distance metrics over a sorted sigma grid.

    Raises
    ------
    BadConfigError
        A grid that :func:`check_grid` rejects.
    NumericalError
        If the average distance fails to be non-increasing along the grid.
    """
    grid = check_grid(grid)
    stack = FamilyStack([family] * len(grid))
    _, ad, rmse_alpha, rmse_sigma, ratio_var = distance_metrics(
        *stack.wd2_to_skeptic(np.array(grid)), family.fit.n)
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


def solve_equivs(families: Sequence[PosteriorFamily], benchmark_ad: float,
                 bracket_hi: float = DEFAULT_BRACKET_HI
                 ) -> list[EquivResult | NotBracketedError]:
    """Bisect every family's monotone-decreasing map sigma -> AD on
    [0, bracket_hi] in lockstep, one evaluation of one :class:`FamilyStack`
    of all the families per step.

    A family leaves with its result at sigma = 0 when its dogmatic AD is
    within AD_TOL of the target, and with a NotBracketedError, returned in its
    place, when the target lies above its dogmatic AD or below its AD at
    ``bracket_hi``. The rest take bisection steps until the AD at the
    midpoint is within AD_TOL of the target and the bracket is at most
    SIGMA_TOL wide, or until the midpoint equals an end of the bracket, which
    then cannot be halved: that midpoint is the result if its AD is within
    AD_TOL, and a NoConvergenceError otherwise. One family is a list of one.

    ``AD_TOL`` and ``SIGMA_TOL`` are absolute values in the package's percent
    units (AD in percent per month, sigma in annualized percent) and do not
    scale with the returns: with returns scaled by 1e-4, sigma* scaled back
    moves in its 4th significant digit.

    Raises
    ------
    BadConfigError
        ``bracket_hi`` is not positive or above SIGMA_TOL * 2**MAX_BISECTIONS
        (about 1.6e54), past which MAX_BISECTIONS halvings leave it too wide.
    NoConvergenceError
        The first, in family order, that fails to converge.
    """
    check_bracket_hi(bracket_hi)
    target = float(benchmark_ad)
    stack = FamilyStack(families)

    def ad_at(sigma: np.ndarray) -> np.ndarray:
        return distance_metrics(*stack.wd2_to_skeptic(sigma), stack.n)[1]

    names = [f.fit.model.name for f in families]
    lo, hi = np.zeros(len(names)), np.full(len(names), float(bracket_hi))
    results: list = []
    for name, ad_lo, ad_hi in zip(names, ad_at(lo).tolist(), ad_at(hi).tolist()):
        if abs(ad_lo - target) <= AD_TOL:
            results.append(EquivResult(name, 0.0, ad_lo, 0))
        elif target > ad_lo:
            results.append(NotBracketedError(
                f"target AD {target:.6g} exceeds the dogmatic AD {ad_lo:.6g} "
                f"of model {name!r}"))
        elif target < ad_hi:
            results.append(NotBracketedError(
                f"target AD {target:.6g} below the AD {ad_hi:.6g} at "
                f"sigma = {bracket_hi}%"))
        else:
            results.append(None)
    live = np.array([r is None for r in results], dtype=bool)
    for iteration in range(1, MAX_BISECTIONS + 1):
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        ad = ad_at(mid)
        stuck = (mid == lo) | (mid == hi)
        above = ad > target
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        close = np.abs(ad - target) <= AD_TOL
        done = live & close & ((hi - lo <= SIGMA_TOL) | stuck)
        for i in np.flatnonzero(done).tolist():
            results[i] = EquivResult(names[i], float(mid[i]), float(ad[i]), iteration)
        for i in np.flatnonzero(live & stuck & ~close).tolist():
            results[i] = NoConvergenceError(
                f"model {names[i]!r}: bisection stopped at sigma = {mid[i]:.6g}% with "
                f"|AD - target| = {abs(ad[i] - target):.3g} > {AD_TOL}: "
                f"sigma's float spacing there leaves no midpoint inside the bracket")
        live &= ~(done | stuck)
    for i in np.flatnonzero(live).tolist():
        results[i] = NoConvergenceError(
            f"model {names[i]!r}: bisection did not reach |AD - target| <= {AD_TOL} in "
            f"{MAX_BISECTIONS} iterations")
    for result in results:
        if isinstance(result, NoConvergenceError):
            raise result
    return results
