"""Multivariate time-series regression of excess returns on factors.

One fit per (dataset, model): OLS alphas and betas from the normal
equations, residual covariance with the maximum-likelihood divisor T,
factor moments and per-asset R-squared. The finite-sample GRS joint test of
zero alphas (Gibbons, Ross & Shanken 1989) is ``metrics.grs_test``: only
``rank`` reads it, and a model's deferred GRS imports it when first called.

:func:`fit_ols` fits one model at O(n^2 T) for the residual cross product.
``rank``, ``sweep`` and ``equiv`` fit all their models with ``_fit_models``
instead, from one :func:`fit_ols` on the union U of their factors (K columns,
in factor-panel order): coefficients Gamma_U = [alpha_U'; B_U'] (intercept in
row 0) of one OLS on X_U = [1, F_U], one n x n residual cross product
S_U = E_U'E_U and, for the GRS, one Cholesky Sigma_U = S_U / T = L_U L_U'.
Let G = X_U'X_U, s a model S's columns of X_U (the intercept among them) and
r the factors of U it drops. With G_ss = L_s L_s' and v = L_s^{-1} G_sr:
- X_U'R = G Gamma_U, so Gamma_S = G_ss^{-1} X_s'R = Gamma_U[s] + h_S Gamma_U[r]
  with h_S = G_ss^{-1} G_sr = L_s'^{-1} v (Frisch-Waugh-Lovell);
- C_S = G_rr - v'v = F_r'M_S F_r, and E_S = E_U + M_S F_r B_r' with E_U
  orthogonal to X_U, so S_S = S_U + B_r C_S B_r' exactly: a fit holds the
  shared Sigma_U and B_r (C_S / T) B_r', and its residual sums of squares
  (and R^2 and the skeptic variances) cost O(n K^2);
- the asset means come from the union fit, and R^2 from ``_assemble``'s
  one identity, so neither ``fit_ols`` nor a derived fit takes a second
  pass over the returns;
- each model is derived in its turn from one-matrix forms (the Cholesky
  factor L_s, solves for v and h_S), and ``_assemble``, which ``fit_ols``
  shares, adds its R^2 and squared Sharpe ratio (:func:`sharpe_sq`);
- alpha_S = alpha_U + B_r h_S[0]', so with [z, Z] = L_U^{-1} [alpha_U, B_U],
  one forward substitution of K + 1 columns per dataset, GRS takes
  y = L_U^{-1} alpha_S = z + Z_r h_S[0]' and W = Z_r chol(C_S / T), and
  ``metrics._grs`` the quadratic form alpha' Sigma_S^{-1} alpha from them.

A model takes its own :func:`fit_ols` (``_direct``) wherever the union
cannot vouch for its fit:
- the union ``fit_ols`` fails: T < K + 2, its Gram fails the rank test
  (factors collinear across models, although each model's own are not),
  or its cross products or sums of squares overflow;
- a factor is not in the panel, or G_ss fails the rank test: the model's
  own ``fit_ols`` decides.
A model's deferred GRS raises the DegenerateDoFError of ``metrics.grs_test``
where T - n - k < 1, and is ``grs_test`` of the model's own ``fit_ols`` wherever
the union cannot vouch for the same GRS result:
- Sigma_U is singular: n > T - K - 1, or its Cholesky fails. Past
  n = T - K - 1 LAPACK can accept a singular Sigma_U on roundoff pivots,
  and GRS through that L_U came out up to 370 times further from a
  40-digit reference than ``grs_test``, so no Cholesky is tried;
- the smallest pivot of L_U is at or below ``linalg.chol_pivot_floor`` of
  Sigma_S;
- C_S / T has no Cholesky factor.
Sigma_S >= Sigma_U, so every Cholesky pivot of Sigma_S is at least that of
Sigma_U, and the union accepts no Sigma_S that ``grs_test`` rejects. ``rank``
thus prints the same GRS cells, warnings and errors, in the same order, with
the same exit codes as per-model ``fit_ols`` + ``grs_test``. The first GRS
asked for builds L_U and [z, Z], so ``sweep`` and ``equiv`` do no GRS work.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from contextlib import suppress
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .dataio import Dataset, ModelSpec
from .errors import (
    InsufficientSampleError,
    NonFiniteError,
    NotPDError,
    RankDeficientError,
    SingularFactorCovError,
    UnknownFactorError,
)
from .linalg import chol_pivot_floor, cholesky_spd, solve_lower

# Pivot threshold factor for detecting collinear factor columns in X'X.
RANK_PIVOT_REL = 1e-10


class RegressionFit(NamedTuple):
    """OLS estimates for one model on one cross section.

    ``sigma_mle`` = ``sigma_base + L C L'`` (L = ``sigma_loadings``, C =
    ``sigma_core``): the model's own and an empty term from :func:`fit_ols`,
    the shared Sigma_U and B_r (C_S / T) B_r' from the union (module
    docstring). It, ``resid_var`` (its diagonal) and ``factor_cov_mle`` divide
    by T, the maximum-likelihood convention.
    """

    model: ModelSpec
    T: int
    n: int
    k: int
    alpha_hat: np.ndarray       # (n,) percent per month
    beta_hat: np.ndarray        # (n, k)
    sigma_base: np.ndarray      # (n, n)
    sigma_loadings: np.ndarray  # (n, r)
    sigma_core: np.ndarray      # (r, r)
    resid_var: np.ndarray       # (n,)
    factor_mean: np.ndarray     # (k,)
    factor_cov_mle: np.ndarray  # (k, k)
    r2: np.ndarray              # (n,)
    asset_mean: np.ndarray      # (n,)
    # Sh^2 (:func:`sharpe_sq`) as ``_assemble`` stored it: NaN where Omega has
    # no Cholesky factor.
    sh2: float

    @property
    def sigma_mle(self) -> np.ndarray:
        """The (n, n) residual covariance base + (L C L' + (L C L')') / 2,
        formed when read (``sigma_base`` itself for an empty L); exactly
        symmetric."""
        loadings = self.sigma_loadings
        if loadings.shape[1] == 0:
            return self.sigma_base
        term = loadings @ self.sigma_core @ loadings.T
        return self.sigma_base + (term + term.T) / 2.0


# A deferred GRS test (``metrics.grs_test``).
GRSTest = Callable[[], tuple[float, float]]


def fit_ols(dataset: Dataset, model: ModelSpec) -> RegressionFit:
    """Fit the time-series regression of excess returns on model factors.

    Solves the normal equations through a Cholesky factorization of X'X;
    a pivot at or below ``linalg.chol_pivot_floor`` at RANK_PIVOT_REL
    signals collinear factors.

    Raises
    ------
    UnknownFactorError
        A model factor is missing from the factor panel.
    InsufficientSampleError
        Fewer than k + 2 observations.
    RankDeficientError
        Collinear design columns.
    NonFiniteError
        Returns so large that a cross product or sum of squares overflows.
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
    with np.errstate(over="ignore"):
        gram = design.T @ design
    if not np.isfinite(gram).all():
        raise NonFiniteError(f"model {model.name!r}: factor returns too large: "
                             "their cross products overflow")
    try:
        lower = cholesky_spd(gram, pivot_tol_factor=RANK_PIVOT_REL)
    except NotPDError as exc:
        raise RankDeficientError(
            f"model {model.name!r}: collinear factor columns ({exc})"
        ) from None
    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.linalg.solve(lower.T, np.linalg.solve(lower, design.T @ returns))
        # One T x n buffer holds the residuals.
        resid = design @ coef
        np.subtract(returns, resid, out=resid)
        # numpy forms A'A with BLAS syrk: sigma_mle and factor_cov_mle are exactly symmetric.
        sigma_mle = resid.T @ resid
        sigma_mle /= t_obs
    return _assemble(dataset, model, coef, sigma_mle, np.empty((n, 0)), np.empty((0, 0)),
                     np.diag(sigma_mle), returns.mean(axis=0))


def _fit_models(dataset: Dataset, models: Sequence[ModelSpec]
                ) -> Iterator[tuple[RegressionFit, GRSTest]]:
    """Fit every model from one regression on the union of their factors
    (module docstring): one ``fit_ols``, so one n x n residual cross product,
    for every model the union vouches for. The one fitting path of the
    ``rank``, ``sweep`` and ``equiv`` commands, not a library entry point.

    Yields ``(fit, grs)`` in model order, each fit made in its turn: derived
    from the union, or the model's own ``fit_ols``. ``grs()`` does the model's
    GRS work and returns or raises what ``metrics.grs_test(fit)`` would, to
    rounding; the first call makes the n x n Cholesky and the (K+1)-column
    forward substitution that later calls share. A model's error, from its
    own ``fit_ols`` or its derived sums of squares, is raised in its turn.
    """
    t_obs, n = dataset.portfolios.values.shape
    panel = set(dataset.factors.names)
    used = {name for m in models if panel.issuperset(m.factor_names)
            for name in m.factor_names}
    union = [name for name in dataset.factors.names if name in used]
    width = len(union) + 1
    union_fit = None
    if used:
        try:
            union_fit = fit_ols(dataset, ModelSpec("union", tuple(union)))
        except (InsufficientSampleError, RankDeficientError, NonFiniteError):
            pass
    if union_fit is None:
        yield from (_direct(dataset, model) for model in models)
        return
    sigma_u, resid_var_u = union_fit.sigma_base, union_fit.resid_var
    coef_u = np.vstack([union_fit.alpha_hat, union_fit.beta_hat.T])
    @cache
    def basis() -> tuple[float, np.ndarray | None]:
        """L_U's smallest pivot and [z, Z] = L_U^{-1} [alpha_U, B_U]; a zero
        pivot, below every floor, where Sigma_U is singular (module docstring)."""
        if n > t_obs - width:
            return 0.0, None
        try:
            chol_u = cholesky_spd(sigma_u)
        except NotPDError:
            return 0.0, None
        return float((np.diag(chol_u) ** 2).min()), solve_lower(chol_u, coef_u.T)

    def grs(fit: RegressionFit, r: list[int], h0: np.ndarray) -> tuple[float, float]:
        from .metrics import _grs, _grs_dof, grs_test

        dof2 = _grs_dof(fit)
        min_pivot, scaled = basis()
        # Sigma_S >= Sigma_U, so no pivot of Sigma_S is below min_pivot.
        if min_pivot > chol_pivot_floor(float(fit.resid_var.sum()), n):
            try:
                root = np.linalg.cholesky(fit.sigma_core)
            except np.linalg.LinAlgError:
                pass
            else:
                scaled_r = scaled[:, r]
                return _grs(fit, dof2, scaled[:, 0] + scaled_r @ h0, scaled_r @ root)
        return grs_test(fit_ols(dataset, fit.model))

    design = np.column_stack([np.ones(t_obs), dataset.factors.select(union)])
    gram = design.T @ design
    column = {name: j for j, name in enumerate(union, start=1)}
    for model in models:
        lower = None
        if panel.issuperset(model.factor_names):
            s = [0, *(column[name] for name in model.factor_names)]
            # The union passed its rank test, so G is finite and below half the
            # largest float: symmetrize leaves G_ss as it is.
            with suppress(NotPDError):
                lower = cholesky_spd(gram[np.ix_(s, s)], RANK_PIVOT_REL)
        if lower is None:
            yield _direct(dataset, model)
            continue
        r = [j for j in range(1, width) if j not in s]
        with np.errstate(over="ignore", invalid="ignore"):
            # C_S = F_r'M_S F_r, the Schur complement of G_ss in G, and
            # h_S = G_ss^{-1} G_sr from the same v.
            v = np.linalg.solve(lower, gram[np.ix_(s, r)])
            schur = gram[np.ix_(r, r)] - v.T @ v
            h = np.linalg.solve(lower.T, v)
            b_r = coef_u[r].T
            # Where this overflows, _assemble raises the model's NonFiniteError.
            resid_var = resid_var_u + ((b_r @ schur) * b_r).sum(axis=1) / t_obs
            coef = coef_u[s] + h @ coef_u[r]
        fit = _assemble(dataset, model, coef, sigma_u, b_r, schur / t_obs, resid_var,
                        union_fit.asset_mean)
        yield fit, partial(grs, fit, r, h[0])


def _assemble(dataset: Dataset, model: ModelSpec, coef: np.ndarray,
              sigma_base: np.ndarray, sigma_loadings: np.ndarray,
              sigma_core: np.ndarray, resid_var: np.ndarray, asset_mean: np.ndarray
              ) -> RegressionFit:
    """The fit of a model of k factors from its coefficients (k+1, n), loadings
    (n, r), core (r, r), residual variances (n,), base and asset means.
    R - 1 mean' = (F - 1 mu')B' + E, E orthogonal to X, so
    R^2 = explained / (explained + resid_var), explained = rowsum((B Omega) o B).
    Omega is C'C / T over the model's own centered columns C: a sub-block of
    the union's C'C differs in the last bits. Sh^2 = |L^{-1} mu|^2 with
    Omega = L L' (:func:`sharpe_sq`), NaN where ``cholesky_spd`` rejects Omega.
    Raises the model's NonFiniteError where its sums of squares overflow.
    """
    factors = dataset.factors.select(model.factor_names)
    factor_mean = factors.mean(axis=0)
    centered = factors - factor_mean
    factor_cov = centered.T @ centered / dataset.t_obs
    betas = coef[1:].T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        explained = ((betas @ factor_cov) * betas).sum(axis=1)
        total = explained + resid_var
        r2 = np.where(total > 0.0, explained / total, 1.0)  # 1 where both are 0
        if not np.isfinite(total).all():
            raise NonFiniteError(f"model {model.name!r}: returns too large: "
                                 "residual or total sums of squares overflow")
        try:
            z = solve_lower(cholesky_spd(factor_cov), factor_mean)
        except NotPDError:
            sh2 = math.nan
        else:
            sh2 = float(z @ z)
    return RegressionFit(
        model=model,
        T=dataset.t_obs,
        n=coef.shape[1],
        k=model.k,
        alpha_hat=coef[0].copy(),
        beta_hat=betas.copy(),
        sigma_base=sigma_base,
        sigma_loadings=sigma_loadings,
        sigma_core=sigma_core,
        resid_var=resid_var,
        factor_mean=factor_mean,
        factor_cov_mle=factor_cov,
        r2=r2,
        asset_mean=asset_mean,
        sh2=sh2,
    )


def _direct(dataset: Dataset, model: ModelSpec) -> tuple[RegressionFit, GRSTest]:
    """One model's own ``fit_ols``, and its ``metrics.grs_test`` deferred."""
    fit = fit_ols(dataset, model)

    def grs() -> tuple[float, float]:
        from .metrics import grs_test

        return grs_test(fit)

    return fit, grs


def sharpe_sq(fit: RegressionFit) -> float:
    """Squared Sharpe ratio of the model factors, mu' Omega^{-1} mu = |L^{-1} mu|^2
    with Omega = L L', the form ``metrics.grs_test`` takes for a' Sigma^{-1} a:
    the fit's own, stored by the ``_assemble`` that made it.

    Raises
    ------
    SingularFactorCovError
        The MLE factor covariance is not positive definite.
    """
    if math.isnan(fit.sh2):
        try:
            cholesky_spd(fit.factor_cov_mle)
        except NotPDError as exc:
            raise SingularFactorCovError(str(exc)) from None
    return fit.sh2

