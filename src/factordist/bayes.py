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
c = 1 / (1 + lam u0) and A = s^2 I + T Sigma_mle (A >= s^2 I), the
posterior is N(c alpha_hat, u0 c / (T + 1) (A + lam c alpha_hat alpha_hat')),
and c = 1 is the skeptic.

The distance from dogmatic belief to the skeptic needs only alpha_hat and
the skeptic variances u0 / (T + 1) diag A: :func:`skeptic_moments` returns
them in O(n) and is the one source of that distance. The distance of an
interior posterior from the skeptic needs A only through the spectral
measure sum_i (Q'alpha_hat)_i^2 delta(d_i) of A = Q D Q'. Per model,
``linalg.gauss_rule`` replaces that measure by the m-node Gauss rule that
Lanczos on A from alpha_hat gives, at O(m n^2) (m is 32-64 on the benchmark
panels), and one O(q m) quadrature table is built from the rule
(``linalg.RankOneQuadrature``, q a few hundred nodes). Below
``linalg.GAUSS_RULE_MIN_N`` assets, where one ``eigh(A)`` is cheaper, and
where Lanczos hits its step cap, the rule is the measure itself, from
``eigh(A)`` at O(n^3). After that, each sigma_alpha (grid point or
bisection) costs O(q) for the transport trace, which is taken in a form
without cancellation.

``sigma_alpha`` is quoted in annualized percent everywhere a user supplies
it; annual-to-monthly conversion divides by 12 (an annualized mean scales
linearly with horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, ModelSpec
from .linalg import RankOneQuadrature, chol_solve, gauss_rule, symmetrize
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


class PosteriorFamily:
    """All posteriors of one (dataset, model) pair, indexed by sigma_alpha.

    Fits the regression once and caches the skeptic variance sum and the
    transport trace quadrature table, built from the Gauss rule of A (the
    closed form in the module docstring) for alpha_hat: Lanczos at
    O(m n^2) from n = ``linalg.GAUSS_RULE_MIN_N`` on, one ``eigh(A)`` below
    that or past the step cap. The engine behind the sweep/equivalence
    machinery.
    """

    def __init__(self, dataset: Dataset, model: ModelSpec):
        self.fit = fit = fit_ols(dataset, model)
        self.s2, self._u0 = _skeptic_parts(fit)
        self._var_sum = float(_skeptic_var(fit, self.s2, self._u0).sum())
        self._alpha_sq = float(fit.alpha_hat @ fit.alpha_hat)
        # Every sigma > 0 has g = lam c < 1 / u0. A >= s^2 I, so every node is
        # positive; node times weight stands in for the square of
        # gamma = A^{1/2} alpha_hat in the eigenbasis of A.
        g_max = 1.0 / self._u0
        nodes, weights = gauss_rule(_scale(fit, self.s2), fit.alpha_hat, g_max)
        self._quad = RankOneQuadrature(nodes * nodes, nodes * weights, g_max)

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
        lam, _ = self._shrinkage(sigma_alpha_annual)
        if math.isinf(lam):
            return self.dogmatic()
        return _closed_form(self.fit, lam, self.s2, self._u0)

    def wd2_to_skeptic(self, sigma_alpha_annual: float) -> tuple[float, float]:
        """Closed form of ``wd2_components(self.at(sigma), self.skeptic())``.

        With A = Q D Q', gamma = D^{1/2} Q' alpha_hat, b = u0 / (T + 1),
        v = b tr A the skeptic variance sum and g = lam c: mean term
        (1 - c)^2 |alpha_hat|^2, trace term (1 + c) v + b [c g |alpha_hat|^2
        - 2 sqrt(c) tr sqrt(D^2 + g gamma gamma')]. Both traces are O(1)
        while their difference is O(lam^2), so the trace term is evaluated as
        e^2 v + b sqrt(c) [2 R - e g |alpha_hat|^2] with
        e = 1 - sqrt(c) = lam u0 c / (1 + sqrt(c)) and
        R = g |alpha_hat|^2 / 2 - (tr sqrt(D^2 + g gamma gamma') - tr D) >= 0
        from the family's quadrature table: O(q) per call, every piece
        O(lam^2) and none formed as a difference. At sigma = 0 the terms are
        |alpha_hat|^2 and v, the dogmatic distance of :func:`skeptic_moments`.
        """
        lam, c = self._shrinkage(sigma_alpha_annual)
        if lam == 0.0:
            return 0.0, 0.0
        b = self._u0 / (self.fit.T + 1)
        if math.isinf(lam):
            return self._alpha_sq, self._var_sum
        g = lam * c
        root_c = math.sqrt(c)
        # 1 - c computed as lam u0 c, which does not cancel at large sigma.
        one_minus_c = lam * self._u0 * c
        mean_sq = one_minus_c**2 * self._alpha_sq
        e = one_minus_c / (1.0 + root_c)
        trace_term = e * e * self._var_sum + b * root_c * (
            2.0 * self._quad.remainder(g) - e * g * self._alpha_sq)
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
    return _closed_form(fit, 0.0, *_skeptic_parts(fit))


def skeptic_moments(fit: RegressionFit) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variances of the skeptic posterior: alpha_hat and
    u0 / (T + 1) (s^2 + T diag Sigma_mle), in O(n).

    Equal, bit for bit, to the mean and the covariance diagonal of
    :func:`posterior_alpha_skeptic`; the distance from dogmatic belief needs
    nothing else.
    """
    return fit.alpha_hat, _skeptic_var(fit, *_skeptic_parts(fit))


def _skeptic_parts(fit: RegressionFit) -> tuple[float, float]:
    """s^2, the average diagonal of Sigma_mle, and u0 = (1 + Sh^2) / T."""
    return float(np.diag(fit.sigma_mle).mean()), (1.0 + sharpe_sq(fit)) / fit.T


def _skeptic_var(fit: RegressionFit, s2: float, u0: float) -> np.ndarray:
    # Associated as in _closed_form at c = 1, so the diagonals agree exactly.
    return (s2 + fit.T * np.diag(fit.sigma_mle)) * (u0 / (fit.T + 1))


def _scale(fit: RegressionFit, s2: float) -> np.ndarray:
    """A = s^2 I + T Sigma_mle (module docstring)."""
    return s2 * np.eye(fit.n) + fit.T * fit.sigma_mle


def _closed_form(fit: RegressionFit, lam: float, s2: float, u0: float) -> GaussianDist:
    """Posterior at finite prior precision lam: N(c alpha_hat, u0 c / (T + 1)
    (A + lam c alpha_hat alpha_hat')) with c = 1 / (1 + lam u0); lam = 0 is the
    skeptic. s2 and u0 are :func:`_skeptic_parts` of the fit.
    """
    cov = _scale(fit, s2)
    c = 1.0 / (1.0 + lam * u0)
    alpha = fit.alpha_hat
    if lam != 0.0:
        cov += lam * c * np.outer(alpha, alpha)
    cov *= u0 * c / (fit.T + 1)
    return GaussianDist(c * alpha, cov)
