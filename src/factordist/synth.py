"""Synthetic return panels with known ground truth.

Factors are drawn i.i.d. Gaussian with configured moments; excess returns
follow the linear factor structure plus Gaussian noise with the configured
residual covariance. Draws come from numpy's Philox bit generator, a
documented, seedable, counter-based 64-bit algorithm, so a seed pins the
output bytes across platforms; :data:`RNG_ALGORITHM` is recorded in output
metadata. Draw order is fixed (factors first, then residuals), which makes
scaled-covariance scenarios share their underlying standard normals.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .dataio import Dataset, ReturnsPanel, month_range
from .errors import BadConfigError
from .linalg import symmetrize

RNG_ALGORITHM = f"numpy.random.Philox (numpy {np.__version__})"
START_DATE = 196701
MAX_T = 96_396  # months from START_DATE to 999912, the last YYYYMM month


class SynthConfig(NamedTuple):
    """Ground truth for one synthetic panel.

    ``true_alpha`` is in percent per month; ``true_beta`` is n x k. Both
    covariance matrices must be positive semidefinite (exactly zero is
    allowed, giving deterministic components).
    """

    T: int
    n: int
    k: int
    true_alpha: np.ndarray
    true_beta: np.ndarray
    factor_mean: np.ndarray
    factor_cov: np.ndarray
    resid_cov: np.ndarray
    seed: int


def _validated(config: SynthConfig) -> tuple[np.ndarray, ...]:
    if config.T < 1 or config.n < 1 or config.k < 1:
        raise BadConfigError(f"T={config.T}, n={config.n}, k={config.k} "
                             "must all be >= 1")
    if config.T > MAX_T:
        raise BadConfigError(f"start_date={START_DATE} and T={config.T} must "
                             "give YYYYMM months up to 999912")
    if config.seed < 0:
        raise BadConfigError(f"seed must be >= 0, got {config.seed}")
    alpha = np.asarray(config.true_alpha, dtype=float).reshape(-1)
    beta = np.asarray(config.true_beta, dtype=float)
    mean = np.asarray(config.factor_mean, dtype=float).reshape(-1)
    if alpha.shape != (config.n,):
        raise BadConfigError(f"true_alpha must have {config.n} entries")
    if beta.shape != (config.n, config.k):
        raise BadConfigError(f"true_beta must be {config.n} x {config.k}")
    if mean.shape != (config.k,):
        raise BadConfigError(f"factor_mean must have {config.k} entries")
    for name in ("true_alpha", "true_beta", "factor_mean", "factor_cov", "resid_cov"):
        if not np.isfinite(np.asarray(getattr(config, name), dtype=float)).all():
            raise BadConfigError(f"{name} must be finite")
    try:
        fcov = symmetrize(config.factor_cov)
        rcov = symmetrize(config.resid_cov)
    except Exception as exc:
        raise BadConfigError(f"covariance matrices must be symmetric: {exc}") from None
    if fcov.shape != (config.k, config.k) or rcov.shape != (config.n, config.n):
        raise BadConfigError("covariance shapes must match k and n")
    if config.T < config.n + config.k + 2:
        warnings.warn(
            f"T={config.T} below the recommended n + k + 2 = "
            f"{config.n + config.k + 2}",
            stacklevel=3,
        )
    return alpha, beta, mean, fcov, rcov


def _factor_root(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor when positive definite, symmetric root otherwise."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        from .transport import spd_sqrt

        return spd_sqrt(cov)


def generate(config: SynthConfig) -> Dataset:
    """Draw one dataset from the configured ground truth, fixed by the seed."""
    alpha, beta, mean, fcov, rcov = _validated(config)
    rng = np.random.Generator(np.random.Philox(config.seed))
    z_factors = rng.standard_normal((config.T, config.k))
    z_resid = rng.standard_normal((config.T, config.n))
    with np.errstate(over="ignore", invalid="ignore"):
        factors = mean + z_factors @ _factor_root(fcov).T
        returns = alpha + factors @ beta.T + z_resid @ _factor_root(rcov).T
    if not (np.isfinite(factors).all() and np.isfinite(returns).all()):
        raise BadConfigError("the drawn factors or returns overflow")

    dates = month_range(START_DATE, config.T)
    asset_names = tuple(f"A{i + 1}" for i in range(config.n))
    factor_names = tuple(f"F{j + 1}" for j in range(config.k))
    return Dataset(
        portfolios=ReturnsPanel(dates, asset_names, returns),
        factors=ReturnsPanel(dates, factor_names, factors),
    )


def power_scenario(base: SynthConfig,
                   scales: list[float]) -> list[tuple[float, Dataset]]:
    """One dataset per residual-covariance scale, sharing the base seed.

    The shared seed keeps the underlying standard normals identical across
    scales, isolating the covariance-scaling effect from sampling noise;
    scale 1 reproduces the base dataset exactly.
    """
    if not scales:
        raise BadConfigError("no scales given")
    if any(not s > 0.0 for s in scales):
        raise BadConfigError("scales must be positive")
    rcov = np.asarray(base.resid_cov, dtype=float)
    return [
        (float(s), generate(base._replace(resid_cov=float(s) * rcov)))
        for s in scales
    ]
