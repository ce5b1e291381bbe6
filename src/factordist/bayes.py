"""Conjugate posterior of the pricing-error (alpha) distribution.

The investor's prior centers alpha at zero with standard deviation
``sigma_alpha`` (scaled by the residual covariance), is non-informative on
factor loadings, and puts an inverted-Wishart prior on the residual
covariance with scale s^2 * I and n + 2 degrees of freedom, where s^2 is
the average diagonal of the sample residual covariance. The posterior of
alpha is then Gaussian for every sigma_alpha in [0, inf]:

* ``sigma_alpha = 0`` -- dogmatic belief, a point mass at zero;
* ``sigma_alpha = inf`` -- complete skepticism, the data-based distribution
  matching the sampling-theory moments;
* interior values interpolate, shrinking the OLS alphas toward zero.

At prior precision lam = s^2 / sigma_monthly^2 on the intercept the family
has a closed form: with u0 = [(X'X)^{-1}]_00 = (1 + Sh^2) / T,
c = 1 / (1 + lam u0) and A = s^2 I + T Sigma_mle (PSD by construction), the
posterior is N(c alpha_hat, u0 c / (T + 1) (A + lam c alpha_hat alpha_hat')),
and c = 1 is the skeptic. Its distance from the skeptic costs one ``eigh(A)``
and one O(q n) quadrature table per model (``linalg.RankOneQuadrature``, q a
few hundred nodes); after that, each sigma_alpha (grid point or bisection)
costs O(q) for the transport trace, which is taken in a form without
cancellation.

``sigma_alpha`` is quoted in annualized percent everywhere a user supplies
it; annual-to-monthly conversion divides by 12 (an annualized mean scales
linearly with horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, ModelSpec
from .errors import NotPSDError
from .linalg import PSD_CLAMP_REL, RankOneQuadrature, chol_solve, symmetrize
from .regression import RegressionFit, fit_ols, sharpe_sq

MONTHS_PER_YEAR = 12.0


def sigma_annual_to_monthly(sigma_alpha_annual: float) -> float:
    """Convert an annualized prior mispricing std (percent) to monthly."""
    s = float(sigma_alpha_annual)
    if not s >= 0.0:
        raise ValueError(f"sigma_alpha must be non-negative, got {s}")
    return s / MONTHS_PER_YEAR


@dataclass(frozen=True)
class GaussianDist:
    """Gaussian distribution of pricing errors: mean vector plus covariance.

    The degenerate point mass at zero is represented by a zero mean and a
    zero covariance matrix.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = symmetrize(self.cov)
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean has {mean.shape[0]} entries but cov is {cov.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("distribution moments must be finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class PriorSpec:
    """Prior hyperparameters implied by one fit and a mispricing std.

    ``s2`` is the average diagonal of the sample residual covariance of the
    model being evaluated (the inverted-Wishart scale is s^2 I with n + 2
    degrees of freedom). Build instances with :meth:`from_fit`.
    """

    sigma_alpha_annual: float
    s2: float

    def __post_init__(self):
        if self.sigma_alpha_annual < 0.0:
            raise ValueError("sigma_alpha_annual must be >= 0")
        if not self.s2 > 0.0:
            raise ValueError("s2 must be positive")

    @classmethod
    def from_fit(cls, fit: RegressionFit, sigma_alpha_annual: float) -> "PriorSpec":
        return cls(sigma_alpha_annual=float(sigma_alpha_annual), s2=_s2(fit))


class PosteriorFamily:
    """All posteriors of one (dataset, model) pair, indexed by sigma_alpha.

    Fits the regression once and caches the one ``eigh(A)`` of the closed
    form in the module docstring (NotPSDError if A is materially indefinite)
    and the transport trace quadrature table built from it; the engine
    behind :func:`posterior_alpha` and the sweep/equivalence machinery.
    """

    def __init__(self, dataset: Dataset, model: ModelSpec):
        self.fit = fit = fit_ols(dataset, model)
        self.s2, self._u0, scale = _skeptic_parts(fit)
        d, q = np.linalg.eigh(scale)
        if float(d.min()) < -PSD_CLAMP_REL * float(np.abs(d).max()):
            raise NotPSDError(f"posterior scale matrix eigenvalue {d.min():.3e} "
                              f"beyond clamp tolerance")
        d = np.clip(d, 0.0, None)
        # Squares of gamma = A^{1/2} alpha_hat in the eigenbasis of A; every
        # sigma > 0 has g = lam c < 1 / u0.
        self._quad = RankOneQuadrature(d * d, d * (q.T @ fit.alpha_hat) ** 2,
                                       1.0 / self._u0)
        self._trace_a = float(np.trace(scale))
        self._alpha_sq = float(fit.alpha_hat @ fit.alpha_hat)

    def _shrinkage(self, sigma_alpha_annual: float) -> tuple[float, float]:
        """Prior precision lam = s^2 / sigma_monthly^2 (inf at sigma = 0) and c."""
        sigma = sigma_annual_to_monthly(sigma_alpha_annual)
        lam = math.inf if sigma == 0.0 else self.s2 / sigma**2
        return lam, 1.0 / (1.0 + lam * self._u0)

    def dogmatic(self) -> GaussianDist:
        return posterior_alpha_dogmatic(self.fit.n)

    def skeptic(self) -> GaussianDist:
        """Data-based posterior at sigma_alpha = inf (closed form)."""
        return posterior_alpha_skeptic(self.fit)

    def at(self, sigma_alpha_annual: float) -> GaussianDist:
        """Posterior at any annualized prior mispricing std in [0, inf]."""
        lam, c = self._shrinkage(sigma_alpha_annual)
        if math.isinf(lam):
            return self.dogmatic()
        return _closed_form(self.fit, lam)

    def wd2_to_skeptic(self, sigma_alpha_annual: float) -> tuple[float, float]:
        """Closed form of ``wd2_components(self.at(sigma), self.skeptic())``.

        With A = Q D Q', gamma = D^{1/2} Q' alpha_hat, b = u0 / (T + 1) and
        g = lam c: mean term (1 - c)^2 |alpha_hat|^2, trace term b [(1 + c) tr A
        + c g |alpha_hat|^2 - 2 sqrt(c) tr sqrt(D^2 + g gamma gamma')]. Both
        traces are O(1) while their difference is O(lam^2), so the trace term
        is evaluated as b [e^2 tr A - sqrt(c) e g |alpha_hat|^2 + 2 sqrt(c) R]
        with e = 1 - sqrt(c) = lam u0 c / (1 + sqrt(c)) and
        R = g |alpha_hat|^2 / 2 - (tr sqrt(D^2 + g gamma gamma') - tr D) >= 0
        from the family's quadrature table: O(q) per call, every piece
        O(lam^2) and none formed as a difference.
        """
        lam, c = self._shrinkage(sigma_alpha_annual)
        if lam == 0.0:
            return 0.0, 0.0
        b = self._u0 / (self.fit.T + 1)
        if math.isinf(lam):
            return self._alpha_sq, b * self._trace_a
        g = lam * c
        root_c = math.sqrt(c)
        # 1 - c computed as lam u0 c, which does not cancel at large sigma.
        one_minus_c = lam * self._u0 * c
        mean_sq = one_minus_c**2 * self._alpha_sq
        e = one_minus_c / (1.0 + root_c)
        trace_term = b * (e * e * self._trace_a - root_c * e * g * self._alpha_sq
                          + 2.0 * root_c * self._quad.remainder(g))
        # The exact value is zero only for one asset at c |alpha_hat|^2 = u0 A;
        # there rounding can leave the sum a few ulps of its pieces below zero.
        return mean_sq, max(0.0, trace_term)

    def coefficients(self, sigma_alpha_annual: float) -> np.ndarray:
        """Posterior coefficient matrix ((k+1) x n); row 0 holds the alphas.

        The alphas shrink by c and the betas move by
        lam c (Omega^{-1} mu / T) alpha_hat'. ``inf`` maps to zero prior
        precision, reproducing the OLS estimates.
        """
        if not float(sigma_alpha_annual) > 0.0:
            raise ValueError("coefficients need sigma_alpha > 0")
        fit = self.fit
        lam, c = self._shrinkage(sigma_alpha_annual)
        shift = chol_solve(fit.factor_cov_mle, fit.factor_mean) / fit.T
        return np.vstack([c * fit.alpha_hat,
                          fit.beta_hat.T + lam * c * np.outer(shift, fit.alpha_hat)])


def posterior_alpha(dataset: Dataset, model: ModelSpec,
                    prior: PriorSpec) -> GaussianDist:
    """Posterior alpha distribution under the given prior.

    The prior must have been built from the same model's fit (its ``s2``
    must match the sample residual covariance diagonal average). The
    endpoint sentinels ``sigma_alpha_annual = 0`` and ``inf`` map to
    :func:`posterior_alpha_dogmatic` and :func:`posterior_alpha_skeptic`.
    """
    family = PosteriorFamily(dataset, model)
    if not math.isclose(prior.s2, family.s2, rel_tol=1e-10):
        raise ValueError(
            f"prior s2={prior.s2:.6e} does not match this model's sample "
            f"value {family.s2:.6e}; build the prior with PriorSpec.from_fit"
        )
    return family.at(prior.sigma_alpha_annual)


def posterior_alpha_dogmatic(n: int) -> GaussianDist:
    """Point mass at zero: the posterior under a dogmatic (sigma = 0) prior."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return GaussianDist(np.zeros(n), np.zeros((n, n)))


def posterior_alpha_skeptic(fit: RegressionFit) -> GaussianDist:
    """Data-based posterior at sigma = inf, from a fit's sufficient statistics.

    Mean equals the OLS alphas exactly; covariance is
    ``(1 + Sh^2) / T * (s^2 I + S) / (T + 1)`` with S the residual
    cross-product matrix.
    """
    return _closed_form(fit, 0.0)


def _s2(fit: RegressionFit) -> float:
    """Inverted-Wishart scale s^2: the average diagonal of Sigma_mle."""
    return float(np.diag(fit.sigma_mle).mean())


def _skeptic_parts(fit: RegressionFit) -> tuple[float, float, np.ndarray]:
    """s^2, u0 = (1 + Sh^2) / T and A = s^2 I + T Sigma_mle (module docstring)."""
    s2 = _s2(fit)
    return s2, (1.0 + sharpe_sq(fit)) / fit.T, s2 * np.eye(fit.n) + fit.T * fit.sigma_mle


def _closed_form(fit: RegressionFit, lam: float) -> GaussianDist:
    """Posterior at finite prior precision lam: N(c alpha_hat, u0 c / (T + 1)
    (A + lam c alpha_hat alpha_hat')) with c = 1 / (1 + lam u0); lam = 0 is the skeptic.
    """
    _, u0, cov = _skeptic_parts(fit)
    c = 1.0 / (1.0 + lam * u0)
    alpha = fit.alpha_hat
    if lam != 0.0:
        cov += lam * c * np.outer(alpha, alpha)
    cov *= u0 * c / (fit.T + 1)
    return GaussianDist(c * alpha, cov)
