"""Multivariate time-series regression of excess returns on factors.

One fit per (dataset, model): OLS alphas and betas from the normal
equations, residual covariance with the maximum-likelihood divisor T,
factor moments, per-asset R-squared, and the finite-sample GRS joint test
of zero alphas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, ModelSpec
from .errors import (
    DegenerateDoFError,
    InsufficientSampleError,
    NotPDError,
    RankDeficientError,
    SingularFactorCovError,
    SingularResidualCovError,
    UnknownFactorError,
)
from .linalg import chol_solve, cholesky_spd, f_cdf_upper, solve_lower

# Pivot threshold factor for detecting collinear factor columns in X'X.
RANK_PIVOT_REL = 1e-10


@dataclass(frozen=True)
class RegressionFit:
    """OLS estimates for one model on one cross section.

    ``sigma_mle`` and ``factor_cov_mle`` both use the divide-by-T
    maximum-likelihood convention.
    """

    model: ModelSpec
    T: int
    n: int
    k: int
    alpha_hat: np.ndarray       # (n,) percent per month
    beta_hat: np.ndarray        # (n, k)
    sigma_mle: np.ndarray       # (n, n)
    factor_mean: np.ndarray     # (k,)
    factor_cov_mle: np.ndarray  # (k, k)
    r2: np.ndarray              # (n,)
    asset_mean: np.ndarray      # (n,)
    first_date: int
    last_date: int

    @property
    def fingerprint(self) -> tuple[int, int, int, int]:
        """Cross-section identity: (n, T, first date, last date)."""
        return (self.n, self.T, self.first_date, self.last_date)


def fit_ols(dataset: Dataset, model: ModelSpec) -> RegressionFit:
    """Fit the time-series regression of excess returns on model factors.

    Solves the normal equations through a Cholesky factorization of X'X;
    a pivot below 1e-10 * trace(X'X) / (k+1) signals collinear factors.

    Raises
    ------
    UnknownFactorError
        A model factor is missing from the factor panel.
    InsufficientSampleError
        Fewer than k + 2 observations.
    RankDeficientError
        Collinear design columns.
    """
    for name in model.factor_names:
        if name not in dataset.factors.names:
            raise UnknownFactorError(
                f"model {model.name!r}: factor {name!r} not in factor panel"
            )
    returns = dataset.portfolios.values
    factors = dataset.factors.select(model.factor_names)
    design = np.column_stack([np.ones(dataset.t_obs), factors])
    t_obs, n = returns.shape
    k = factors.shape[1]
    if t_obs < k + 2:
        raise InsufficientSampleError(
            f"T={t_obs} observations cannot identify k={k} factors plus intercept"
        )
    gram = design.T @ design
    try:
        lower = cholesky_spd(gram, pivot_tol_factor=RANK_PIVOT_REL)
    except NotPDError as exc:
        raise RankDeficientError(
            f"model {model.name!r}: collinear factor columns ({exc})"
        ) from None
    coef = np.linalg.solve(lower.T, np.linalg.solve(lower, design.T @ returns))
    resid = returns - design @ coef
    # numpy forms A'A with BLAS syrk: sigma_mle and factor_cov_mle are exactly symmetric.
    sigma_mle = resid.T @ resid / t_obs

    factor_mean = factors.mean(axis=0)
    centered = factors - factor_mean
    factor_cov_mle = centered.T @ centered / t_obs

    asset_mean = returns.mean(axis=0)
    sst = ((returns - asset_mean) ** 2).sum(axis=0)
    ssr = (resid ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(sst > 0.0, 1.0 - ssr / sst, 1.0)

    return RegressionFit(
        model=model,
        T=t_obs,
        n=n,
        k=k,
        alpha_hat=coef[0].copy(),
        beta_hat=coef[1:].T.copy(),
        sigma_mle=sigma_mle,
        factor_mean=factor_mean,
        factor_cov_mle=factor_cov_mle,
        r2=r2,
        asset_mean=asset_mean,
        first_date=dataset.portfolios.dates[0],
        last_date=dataset.portfolios.dates[-1],
    )


def sharpe_sq(fit: RegressionFit) -> float:
    """Squared Sharpe ratio of the model factors, mu' Omega^{-1} mu.

    Raises
    ------
    SingularFactorCovError
        The MLE factor covariance is not positive definite.
    """
    try:
        z = chol_solve(fit.factor_cov_mle, fit.factor_mean)
    except NotPDError as exc:
        raise SingularFactorCovError(str(exc)) from None
    return float(fit.factor_mean @ z)


def grs_test(fit: RegressionFit) -> tuple[float, float]:
    """Finite-sample joint F test that all alphas are zero.

    Returns the statistic
    ``(T - n - k) / n * (1 + Sh^2)^{-1} * a' Sigma^{-1} a`` and its p-value
    from the F(n, T - n - k) upper tail.

    Raises
    ------
    DegenerateDoFError
        If T - n - k < 1.
    SingularResidualCovError
        If the residual covariance cannot be inverted.
    """
    dof2 = fit.T - fit.n - fit.k
    if dof2 < 1:
        raise DegenerateDoFError(
            f"T - n - k = {fit.T} - {fit.n} - {fit.k} = {dof2} < 1"
        )
    try:
        lower = cholesky_spd(fit.sigma_mle)
    except NotPDError as exc:
        raise SingularResidualCovError(
            f"residual covariance singular (n={fit.n}, T={fit.T}): {exc}"
        ) from None
    # a' Sigma^{-1} a = |L^{-1} a|^2 with Sigma = L L'.
    w = solve_lower(lower, fit.alpha_hat)
    stat = dof2 / fit.n * float(w @ w) / (1.0 + sharpe_sq(fit))
    return stat, f_cdf_upper(stat, fit.n, dof2)
