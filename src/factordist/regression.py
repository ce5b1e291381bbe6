"""Multivariate time-series regression of excess returns on factors.

One fit per (dataset, model): OLS alphas and betas from the normal
equations, residual covariance with the maximum-likelihood divisor T,
factor moments, per-asset R-squared, and the finite-sample GRS joint test
of zero alphas (Gibbons, Ross & Shanken 1989).

:func:`fit_ols` fits one model at O(n^2 T) for the residual cross product.
``rank`` fits all its models with ``_fit_models`` instead, from one
:func:`fit_ols` on the union U of their factors (K columns, in factor-panel
order): coefficients Gamma_U = [alpha_U'; B_U'] (intercept in row 0) of one
OLS on X_U = [1, F_U], one n x n residual cross product S_U = E_U'E_U and one
Cholesky Sigma_U = S_U / T = L_U L_U'. Let G = X_U'X_U, s a model S's
columns of X_U (the intercept among them) and r the factors of U it drops.
With G_ss = L_s L_s' and v = L_s^{-1} G_sr:
- X_U'R = G Gamma_U, so Gamma_S = G_ss^{-1} X_s'R = Gamma_U[s] + h_S Gamma_U[r]
  with h_S = G_ss^{-1} G_sr = L_s'^{-1} v (Frisch-Waugh-Lovell);
- C_S = G_rr - v'v = F_r'M_S F_r, and E_S = E_U + M_S F_r B_r' with E_U
  orthogonal to X_U, so S_S = S_U + B_r C_S B_r' exactly: the residual sums
  of squares (and R^2 and the skeptic variances) cost O(n K^2) per model;
- the asset means come from the union fit, and the total sums of squares
  are T (diag Sigma_U + rowsum((B_U Omega_U) o B_U)), so nothing takes a
  second pass over the returns;
- alpha_S = alpha_U + B_r h_S[0]', so with [z, Z] = L_U^{-1} [alpha_U, B_U],
  one forward substitution of K + 1 columns per dataset, GRS takes
  y = L_U^{-1} alpha_S = z + Z_r h_S[0]' and W = Z_r chol(C_S / T). With
  W = QR, alpha' Sigma_S^{-1} alpha = |y - Q Q'y|^2 + (Q'y)'(I + R R')^{-1} Q'y,
  a sum of non-negative terms. (The Woodbury form y'y - ... cancels: with
  dropped loadings 1000 times larger it lost up to 4e-8 relative, the
  projection form 7e-12 against a 50-digit reference.)

A model takes :func:`fit_ols` and :func:`grs_test` instead (``_direct``)
wherever the union cannot vouch for the same result:
- T < K + 2, or the union's Gram fails the rank test (factors collinear
  across models, although each model's own are not);
- a factor is not in the panel, or G_ss fails the rank test: the model's
  own ``fit_ols`` decides;
- Sigma_U is singular: n > T - K - 1, or its Cholesky fails. Past
  n = T - K - 1 LAPACK can accept a singular Sigma_U on roundoff pivots,
  and GRS through that L_U came out up to 370 times further from a
  40-digit reference than ``grs_test``, so no Cholesky is tried;
- the smallest pivot of L_U is at or below the model's own threshold
  CHOL_PIVOT_REL tr Sigma_S / n, or C_S / T has no Cholesky factor.
Sigma_S >= Sigma_U, so every Cholesky pivot of Sigma_S is at least that of
Sigma_U, and the union accepts no Sigma_S that ``grs_test`` rejects. A model
with T - n - k < 1 keeps its union fit and the DegenerateDoFError of
``grs_test``. ``rank`` thus prints the same warnings and errors, in the
same order, with the same exit codes as per-model ``fit_ols`` + ``grs_test``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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
from .linalg import CHOL_PIVOT_REL, chol_solve, cholesky_spd, f_cdf_upper, solve_lower

# Pivot threshold factor for detecting collinear factor columns in X'X.
RANK_PIVOT_REL = 1e-10


@dataclass(frozen=True)
class RegressionFit:
    """OLS estimates for one model on one cross section.

    ``sigma_mle``, ``resid_var`` and ``factor_cov_mle`` use the divide-by-T
    maximum-likelihood convention. ``resid_var`` is the diagonal of
    ``sigma_mle``; the fits ``_fit_models`` derives from the union carry
    only the diagonal and have ``sigma_mle = None``.
    """

    model: ModelSpec
    T: int
    n: int
    k: int
    alpha_hat: np.ndarray       # (n,) percent per month
    beta_hat: np.ndarray        # (n, k)
    sigma_mle: np.ndarray | None  # (n, n)
    resid_var: np.ndarray       # (n,)
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


# What _fit_models reports for a model's GRS test: (statistic, p-value), or
# the error grs_test raises where the test is undefined.
GRSResult = tuple[float, float] | DegenerateDoFError | SingularResidualCovError


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
    t_obs = returns.shape[0]
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
    asset_mean = returns.mean(axis=0)
    sst = ((returns - asset_mean) ** 2).sum(axis=0)
    return _assemble(dataset, model, coef, sigma_mle, np.diag(sigma_mle),
                     (resid ** 2).sum(axis=0), sst, asset_mean)


def _fit_models(dataset: Dataset, models: Sequence[ModelSpec]
                ) -> Iterator[tuple[RegressionFit, GRSResult]]:
    """Fit every model and its GRS test from one regression on the union of
    their factors (module docstring): ``fit_ols`` and ``grs_test`` per model,
    with one n x n residual cross product, one n x n Cholesky and one
    (K+1)-column forward substitution in all. ``rank``'s own path, not a
    library entry point.

    Yields ``(fit, grs)`` in model order, each model derived in its turn;
    ``grs`` is ``(statistic, p-value)``, or the DegenerateDoFError or
    SingularResidualCovError that ``grs_test`` would raise. The errors of
    ``fit_ols`` and ``sharpe_sq`` are raised when the failing model's turn
    comes. Fits derived from the union have ``sigma_mle = None``, so they are
    no input for ``grs_test`` or ``posterior_alpha_skeptic``.
    """
    t_obs, n = dataset.portfolios.values.shape
    panel = set(dataset.factors.names)
    used = {name for m in models if panel.issuperset(m.factor_names)
            for name in m.factor_names}
    union = [name for name in dataset.factors.names if name in used]
    width = len(union) + 1
    union_fit = None
    if used and t_obs >= width + 1:
        try:
            union_fit = fit_ols(dataset, ModelSpec("union", tuple(union)))
        except RankDeficientError:
            pass
    if union_fit is None:
        yield from (_direct(dataset, model) for model in models)
        return
    coef_u = np.vstack([union_fit.alpha_hat, union_fit.beta_hat.T])
    # [z, Z] = L_U^{-1} [alpha_U, B_U]. Sigma_U has rank at most T - K - 1:
    # past that its Cholesky can still pass on roundoff pivots, and L_U^{-1}
    # would then cost GRS accuracy.
    scaled = None
    if n <= t_obs - width:
        try:
            chol_u = cholesky_spd(union_fit.sigma_mle)
        except NotPDError:
            pass
        else:
            min_pivot = float((np.diag(chol_u) ** 2).min())
            scaled = solve_lower(chol_u, coef_u.T)
            del chol_u
    # Copied: resid_var is a view that would keep Sigma_U alive.
    resid_var_u, asset_mean = union_fit.resid_var.copy(), union_fit.asset_mean
    betas = union_fit.beta_hat
    # R - 1 mean' = (F_U - 1 mu') B_U' + E_U with E_U orthogonal to X_U, so the
    # total sums of squares are T (resid_var_U + rowsum((B_U Omega_U) o B_U)).
    sst = t_obs * (resid_var_u + ((betas @ union_fit.factor_cov_mle) * betas).sum(axis=1))
    del union_fit
    design = np.column_stack([np.ones(t_obs), dataset.factors.select(union)])
    gram = design.T @ design
    column = {name: j for j, name in enumerate(union, start=1)}
    for model in models:
        if not panel.issuperset(model.factor_names):
            yield _direct(dataset, model)
            continue
        s = [0, *(column[name] for name in model.factor_names)]
        r = [j for j in range(1, width) if j not in s]
        try:
            lower_s = cholesky_spd(gram[np.ix_(s, s)], pivot_tol_factor=RANK_PIVOT_REL)
        except NotPDError:
            yield _direct(dataset, model)
            continue
        # C_S = F_r'M_S F_r, the Schur complement of G_ss in G, and
        # h_S = G_ss^{-1} G_sr from the same v.
        v = np.linalg.solve(lower_s, gram[np.ix_(s, r)])
        schur = gram[np.ix_(r, r)] - v.T @ v
        h = np.linalg.solve(lower_s.T, v)
        b_r = coef_u[r].T
        resid_var = resid_var_u + ((b_r @ schur) * b_r).sum(axis=1) / t_obs
        fit = _assemble(dataset, model, coef_u[s] + h @ coef_u[r], None,
                        resid_var, resid_var * t_obs, sst, asset_mean)
        try:
            dof2 = _grs_dof(fit)
        except DegenerateDoFError as exc:
            yield fit, exc
            continue
        # Each pivot of Sigma_S is at least min_pivot: above the model's own
        # threshold, cholesky_spd accepts Sigma_S.
        if scaled is None or min_pivot <= CHOL_PIVOT_REL * float(resid_var.sum()) / n:
            yield _direct(dataset, model)
            continue
        try:
            root = np.linalg.cholesky(schur / t_obs)
        except np.linalg.LinAlgError:
            yield _direct(dataset, model)
            continue
        scaled_r = scaled[:, r]
        quad = _low_rank_quad(scaled[:, 0] + scaled_r @ h[0], scaled_r @ root)
        yield fit, _grs(fit, dof2, quad)


def _assemble(dataset: Dataset, model: ModelSpec, coef: np.ndarray,
              sigma_mle: np.ndarray | None, resid_var: np.ndarray,
              ssr: np.ndarray, sst: np.ndarray, asset_mean: np.ndarray
              ) -> RegressionFit:
    """RegressionFit from coefficients ((k+1) x n), residual variances and
    residual and total sums of squares."""
    factors = dataset.factors.select(model.factor_names)
    factor_mean = factors.mean(axis=0)
    centered = factors - factor_mean
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(sst > 0.0, 1.0 - ssr / sst, 1.0)
    return RegressionFit(
        model=model,
        T=dataset.t_obs,
        n=coef.shape[1],
        k=model.k,
        alpha_hat=coef[0].copy(),
        beta_hat=coef[1:].T.copy(),
        sigma_mle=sigma_mle,
        resid_var=resid_var,
        factor_mean=factor_mean,
        factor_cov_mle=centered.T @ centered / dataset.t_obs,
        r2=r2,
        asset_mean=asset_mean,
        first_date=dataset.portfolios.dates[0],
        last_date=dataset.portfolios.dates[-1],
    )


def _direct(dataset: Dataset, model: ModelSpec) -> tuple[RegressionFit, GRSResult]:
    """One model's own ``fit_ols`` and ``grs_test``, the test's error in its place."""
    fit = fit_ols(dataset, model)
    try:
        return fit, grs_test(fit)
    except (DegenerateDoFError, SingularResidualCovError) as exc:
        return fit, exc


def _low_rank_quad(y: np.ndarray, w: np.ndarray) -> float:
    """y'(I + W W')^{-1} y as |y - Q Q'y|^2 + z'(I + R R')^{-1} z with W = QR
    and z = Q'y: two non-negative terms, no cancellation."""
    if w.shape[1] == 0:
        return float(y @ y)
    q, r = np.linalg.qr(w)
    z = q.T @ y
    perp = y - q @ z
    return float(perp @ perp) + float(z @ np.linalg.solve(np.eye(len(z)) + r @ r.T, z))


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
    dof2 = _grs_dof(fit)
    try:
        lower = cholesky_spd(fit.sigma_mle)
    except NotPDError as exc:
        raise SingularResidualCovError(
            f"residual covariance singular (n={fit.n}, T={fit.T}): {exc}"
        ) from None
    # a' Sigma^{-1} a = |L^{-1} a|^2 with Sigma = L L'.
    w = solve_lower(lower, fit.alpha_hat)
    return _grs(fit, dof2, float(w @ w))


def _grs_dof(fit: RegressionFit) -> int:
    """The GRS denominator degrees of freedom T - n - k; DegenerateDoFError below 1."""
    dof2 = fit.T - fit.n - fit.k
    if dof2 < 1:
        raise DegenerateDoFError(
            f"T - n - k = {fit.T} - {fit.n} - {fit.k} = {dof2} < 1"
        )
    return dof2


def _grs(fit: RegressionFit, dof2: int, quad: float) -> tuple[float, float]:
    """GRS statistic and p-value from quad = a' Sigma^{-1} a."""
    stat = dof2 / fit.n * quad / (1.0 + sharpe_sq(fit))
    return stat, f_cdf_upper(stat, fit.n, dof2)
