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
(``linalg.RankOneQuadrature(theta, w, g_max)``, q a few hundred nodes). Below
``linalg.GAUSS_RULE_MIN_N`` assets, where one ``eigh(A)`` is cheaper, and
where Lanczos hits its step cap, the rule is the measure itself, from
``eigh(A)`` at O(n^3). After that, each sigma_alpha costs O(q) for the
transport trace, which is taken in a form without cancellation, in one
elementwise formula (:func:`_wd2_to_skeptic`): a family takes a whole sweep
grid in one numpy pass, and a :class:`FamilyStack` takes one sigma for each
of many families in one pass, as an equivalence bisection step does for
every alternative still in the bisection.

``sigma_alpha`` is quoted in annualized percent everywhere a user supplies
it; annual-to-monthly conversion divides by 12 (an annualized mean scales
linearly with horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteError
from .linalg import QuadratureStack, RankOneQuadrature, gauss_rule, symmetrize
from .regression import RegressionFit, sharpe_sq

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
        cov = symmetrize(np.array(self.cov, dtype=float))
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
    """All posteriors of one fitted model, indexed by sigma_alpha.

    Takes its fit as given, from ``fit_ols`` or the commands' union path.
    Caches the skeptic variance sum and the transport trace quadrature table,
    built from the Gauss rule of A (the closed form in the module docstring)
    for alpha_hat: Lanczos at O(m n^2) from n = ``linalg.GAUSS_RULE_MIN_N``
    on, one ``eigh(A)`` below that or past the step cap. The engine behind the
    sweep/equivalence machinery. Raises NonFiniteError where returns are so
    large that the distance, the rule or the table would overflow.
    """

    def __init__(self, fit: RegressionFit):
        self.fit = fit
        self.s2, self._u0 = _skeptic_parts(fit)
        with np.errstate(over="ignore"):
            self._var_sum = float(_skeptic_var(fit, self.s2, self._u0).sum())
            self._alpha_sq = float(fit.alpha_hat @ fit.alpha_hat)
        if not math.isfinite(self._alpha_sq + self._var_sum):
            raise NonFiniteError(f"model {fit.model.name!r}: returns too large: "
                                 "the distance overflows")
        # The Gauss nodes of A lie in (0, tr A] and their weights sum to
        # |alpha_hat|^2: Lanczos and the table (squared nodes, node times
        # weight) stay finite where these bounds do.
        trace_a = fit.n * self.s2 * (fit.T + 1)
        if not math.isfinite(trace_a * max(trace_a, self._alpha_sq)):
            raise NonFiniteError(f"model {fit.model.name!r}: returns too large: "
                                 "the posterior's quadrature overflows")
        # Every sigma > 0 has g = lam c < 1 / u0, and A >= s^2 I is positive
        # definite.
        g_max = 1.0 / self._u0
        self._quad = RankOneQuadrature(
            *gauss_rule(_scale(fit, self.s2), fit.alpha_hat, g_max), g_max)
        self._b = self._u0 / (fit.T + 1)

    def at(self, sigma_alpha_annual: float) -> GaussianDist:
        """Posterior at any annualized prior mispricing std in [0, inf]."""
        lam = float(_precision(sigma_annual_to_monthly(sigma_alpha_annual), self.s2))
        if math.isinf(lam):
            return posterior_alpha_dogmatic(self.fit.n)
        return _closed_form(self.fit, lam, self.s2, self._u0)

    def wd2_to_skeptic(self, sigma_alpha_annual):
        """Squared mean shift and trace term of the distance from the
        posterior at sigma to the skeptic, elementwise over an array of sigma:
        :func:`_wd2_to_skeptic` on this family's moments and table.

        Raises
        ------
        ValueError
            If a sigma is negative or NaN.
        """
        sigma = np.asarray(sigma_alpha_annual, dtype=float)
        if not np.all(sigma >= 0.0):
            raise ValueError(f"sigma_alpha must be non-negative, got {sigma_alpha_annual}")
        mean_sq, trace_term = _wd2_to_skeptic(
            sigma, self.s2, self._u0, self._b, self._alpha_sq, self._var_sum,
            self._quad.remainder)
        return mean_sq[()], trace_term[()]


class FamilyStack:
    """Several posterior families evaluated together, each at its own sigma.

    Gathers each family's s^2, u0, b = u0 / (T + 1), |alpha_hat|^2 and
    skeptic variance sum into arrays, and their quadrature tables into one
    ``linalg.QuadratureStack``, once; an evaluation of every family is then
    one numpy pass of :func:`_wd2_to_skeptic`, bit for bit what each
    family's own ``wd2_to_skeptic`` gives.
    """

    def __init__(self, families: Sequence[PosteriorFamily]):
        self.n = np.array([f.fit.n for f in families])
        self._moments = np.array([(f.s2, f._u0, f._b, f._alpha_sq, f._var_sum)
                                  for f in families]).reshape(-1, 5).T
        self._quad = QuadratureStack([f._quad for f in families])

    def wd2_to_skeptic(self, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both distance terms of family j at ``sigma[j]``, for every j."""
        return _wd2_to_skeptic(sigma, *self._moments, self._quad.remainder)


def _precision(sigma_monthly, s2):
    """Prior precision lam = s^2 / sigma_monthly^2, elementwise: inf (dogmatic)
    where sigma^2 is 0 or underflows, and 0 (skeptic) where it overflows.

    The square is libm's pow, as Python's float ``**`` takes it; numpy's
    ``** 2`` multiplies, which differs in the last bit for about one value
    in a thousand.
    """
    with np.errstate(over="ignore", divide="ignore"):
        var = np.float_power(sigma_monthly, 2.0)
        return np.where(var == 0.0, np.inf, s2 / var)


def _wd2_to_skeptic(sigma, s2, u0, b, alpha_sq, var_sum, remainder):
    """Closed form of ``wd2_components(family.at(sigma), family.at(inf))``,
    elementwise over sigma and the moments of its family; the one formula of
    the distance along sigma, behind sweeps and the equivalence solver.

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
    |alpha_hat|^2 and v, the dogmatic distance of :func:`skeptic_moments`,
    and at sigma = inf (lam = 0) both are zero. ``remainder`` gives R at an
    array of g.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lam = _precision(sigma / MONTHS_PER_YEAR, s2)
        c = 1.0 / (1.0 + lam * u0)
        g = lam * c
        root_c = np.sqrt(c)
        # 1 - c computed as lam u0 c, which does not cancel at large sigma.
        one_minus_c = lam * u0 * c
        mean_sq = np.float_power(one_minus_c, 2.0) * alpha_sq  # pow, as in _precision
        e = one_minus_c / (1.0 + root_c)
        trace_term = e * e * var_sum + b * root_c * (
            2.0 * remainder(g) - e * g * alpha_sq)
    # The exact value is zero only for one asset at c |alpha_hat|^2 = u0 A;
    # there rounding can leave the sum a few ulps of its pieces below zero.
    trace_term = np.where(trace_term > 0.0, trace_term, 0.0)
    dogmatic, skeptic = np.isinf(lam), lam == 0.0
    return (np.where(dogmatic, alpha_sq, np.where(skeptic, 0.0, mean_sq)),
            np.where(dogmatic, var_sum, np.where(skeptic, 0.0, trace_term)))


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
    return float(fit.resid_var.mean()), (1.0 + sharpe_sq(fit)) / fit.T


def _skeptic_var(fit: RegressionFit, s2: float, u0: float) -> np.ndarray:
    # Associated as in _closed_form at c = 1, so the diagonals agree exactly.
    return (s2 + fit.T * fit.resid_var) * (u0 / (fit.T + 1))


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
