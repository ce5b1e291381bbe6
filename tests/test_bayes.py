import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factordist import (
    Dataset,
    GaussianDist,
    ModelSpec,
    PosteriorFamily,
    SynthConfig,
    distance_breakdown,
    fit_ols,
    generate,
    posterior_alpha_dogmatic,
    posterior_alpha_skeptic,
    sharpe_sq,
    sigma_annual_to_monthly,
    skeptic_moments,
    sweep,
    wd2_components,
    wd2_gaussian,
)
from factordist import bayes, linalg
from factordist.linalg import RankOneQuadrature, gauss_rule

from conftest import make_dataset, panel_from_columns, random_fit_inputs


def matrix_posterior(dataset, model, sigma_annual):
    """Reference posterior from the full normal equations.

    The prior adds precision lam = s^2 / sigma_monthly^2 to the intercept:
    Vtil = (X'X + lam e0 e0')^{-1}, Btil = Vtil X'R, and the covariance is
    Vtil_00 (s^2 I + S + Bhat' X'X Bhat - Btil' X'R) / (T + 1), with S the
    residual cross products.
    """
    returns = dataset.portfolios.values
    design = np.column_stack([np.ones(dataset.t_obs),
                              dataset.factors.select(model.factor_names)])
    T, n = returns.shape
    xtx = design.T @ design
    xtr = design.T @ returns
    bhat = np.linalg.solve(xtx, xtr)
    resid = returns - design @ bhat
    s_resid = resid.T @ resid
    s2 = float(np.diag(s_resid).mean()) / T
    precision = xtx.copy()
    precision[0, 0] += s2 / sigma_annual_to_monthly(sigma_annual) ** 2
    vtil = np.linalg.inv(precision)
    btil = vtil @ xtr
    h = s2 * np.eye(n) + s_resid + bhat.T @ xtx @ bhat - btil.T @ xtr
    return btil[0], vtil[0, 0] * (h + h.T) / 2.0 / (T + 1)


class TestSigmaConversion:
    @pytest.mark.parametrize("annual,monthly", [(0.0, 0.0), (2.0, 2.0 / 12.0),
                                                (12.0, 1.0)])
    def test_values(self, annual, monthly):
        assert sigma_annual_to_monthly(annual) == pytest.approx(monthly, rel=1e-12)

    def test_two_percent_rounds_to_known_value(self):
        assert round(sigma_annual_to_monthly(2.0), 5) == 0.16667

    def test_infinity_passes_through(self):
        assert math.isinf(sigma_annual_to_monthly(math.inf))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sigma_annual_to_monthly(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            sigma_annual_to_monthly(math.nan)


class TestDogmatic:
    def test_three_assets(self):
        dist = posterior_alpha_dogmatic(3)
        np.testing.assert_array_equal(dist.mean, np.zeros(3))
        np.testing.assert_array_equal(dist.cov, np.zeros((3, 3)))

    def test_point_mass_scalar(self):
        dist = posterior_alpha_dogmatic(1)
        assert dist.dim == 1
        assert dist.mean[0] == 0.0 and dist.cov[0, 0] == 0.0

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            posterior_alpha_dogmatic(0)


class TestPriorSpec:
    """The prior's hyperparameters as a family derives them from its fit."""

    def test_from_fit_fields(self, base_dataset):
        dataset, model = base_dataset
        family = PosteriorFamily(dataset, model)
        assert family.s2 == pytest.approx(np.diag(family.fit.sigma_mle).mean())

    def test_negative_sigma_rejected(self, base_dataset):
        family = PosteriorFamily(*base_dataset)
        with pytest.raises(ValueError):
            family.at(-0.5)


class TestPosteriorAlpha:
    def test_matches_hand_solve(self):
        # Independent oracle: explicit 2x2 matrix arithmetic for one asset,
        # one factor, five months, monthly prior std 1.
        f = [0.3, -1.2, 2.5, 0.8, -0.4]
        r = [1.1, -2.0, 4.4, 1.0, -1.3]
        T = 5
        ds = Dataset(portfolios=panel_from_columns({"A": r}),
                     factors=panel_from_columns({"F": f}))
        model = ModelSpec("M", ("F",))
        fit = fit_ols(ds, model)
        s2 = float(fit.sigma_mle[0, 0])

        sf = sum(f)
        sff = sum(x * x for x in f)
        sr = sum(r)
        sfr = sum(x * y for x, y in zip(f, r))
        lam = s2 / 1.0**2
        a11, a12, a22 = T + lam, sf, sff
        det = a11 * a22 - a12 * a12
        alpha_tilde = (a22 * sr - a12 * sfr) / det
        beta_tilde = (a11 * sfr - a12 * sr) / det
        # Posterior scale: h0 + S + Bhat'X'X Bhat - Btil'X'R, all scalars here.
        alpha_hat, beta_hat = fit.alpha_hat[0], fit.beta_hat[0, 0]
        s_resid = T * s2
        bhat_quad = (alpha_hat * (T * alpha_hat + sf * beta_hat)
                     + beta_hat * (sf * alpha_hat + sff * beta_hat))
        btil_xtr = alpha_tilde * sr + beta_tilde * sfr
        h_tilde = s2 + s_resid + bhat_quad - btil_xtr
        v00 = a22 / det
        cov_expected = v00 * h_tilde / (T + 1)

        post = PosteriorFamily(ds, model).at(12.0)  # monthly 1.0
        assert post.mean[0] == pytest.approx(alpha_tilde, abs=1e-12)
        assert post.cov[0, 0] == pytest.approx(cov_expected, rel=1e-10)

    def test_diffuse_limit_matches_skeptic(self, base_dataset):
        family = PosteriorFamily(*base_dataset)
        post = family.at(1e6)
        skeptic = posterior_alpha_skeptic(family.fit)
        np.testing.assert_allclose(post.mean, family.fit.alpha_hat, atol=1e-6)
        np.testing.assert_allclose(post.mean, skeptic.mean, atol=1e-6)
        np.testing.assert_allclose(post.cov, skeptic.cov, atol=1e-6)

    def test_dogmatic_limit_kills_alpha(self, base_dataset):
        family = PosteriorFamily(*base_dataset)
        post = family.at(1e-8)
        assert np.linalg.norm(post.mean) <= 1e-6 * np.linalg.norm(family.fit.alpha_hat)

    def test_endpoint_sentinels_dispatch(self, base_dataset):
        family = PosteriorFamily(*base_dataset)
        zero = family.at(0.0)
        np.testing.assert_array_equal(zero.mean, np.zeros(family.fit.n))
        np.testing.assert_array_equal(zero.cov, np.zeros((family.fit.n,) * 2))
        inf = family.at(math.inf)
        np.testing.assert_array_equal(inf.mean, family.fit.alpha_hat)


class TestPosteriorFamily:
    def test_shrinkage_is_scalar_weight(self, base_dataset):
        # With a single informative prior entry, the posterior alphas equal
        # w * OLS alphas with w = 1 / (1 + lam * [(X'X)^{-1}]_{00}); check
        # against an independently computed inverse.
        dataset, model = base_dataset
        family = PosteriorFamily(dataset, model)
        fit = family.fit
        design = np.column_stack([np.ones(fit.T),
                                  dataset.factors.select(model.factor_names)])
        g00 = np.linalg.inv(design.T @ design)[0, 0]
        for sigma in (0.5, 2.0, 8.0):
            lam = family.s2 / sigma_annual_to_monthly(sigma) ** 2
            w = 1.0 / (1.0 + lam * g00)
            post = family.at(sigma)
            np.testing.assert_allclose(post.mean, w * fit.alpha_hat, atol=1e-10)

    def test_shrinkage_interpolation_monotone(self, base_dataset):
        dataset, model = base_dataset
        family = PosteriorFamily(dataset, model)
        alpha_ols = family.fit.alpha_hat
        norms = []
        for sigma in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            mean = family.at(sigma).mean
            norms.append(np.linalg.norm(mean))
            # Each coordinate sits between zero and its OLS value.
            assert np.all(np.sign(mean) == np.sign(alpha_ols))
            assert np.all(np.abs(mean) <= np.abs(alpha_ols) + 1e-15)
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= np.linalg.norm(alpha_ols) + 1e-15

    def test_betas_unshrunk_at_infinite_sigma(self, base_dataset):
        dataset, model = base_dataset
        family = PosteriorFamily(dataset, model)
        coef = family.coefficients(math.inf)
        np.testing.assert_allclose(coef[1:], family.fit.beta_hat.T, atol=1e-10)
        np.testing.assert_allclose(coef[0], family.fit.alpha_hat, atol=1e-10)

    def test_posterior_cov_psd_across_grid(self, base_dataset):
        dataset, model = base_dataset
        family = PosteriorFamily(dataset, model)
        for sigma in (1e-4, 0.1, 1.0, 5.0, 50.0, 1e4):
            cov = family.at(sigma).cov
            assert np.linalg.eigvalsh(cov).min() >= -1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           k=st.integers(1, 3), T=st.integers(20, 80),
           log10_sigma=st.floats(-3.0, 4.0))
    def test_closed_form_matches_matrix_oracle(self, seed, n, k, T,
                                               log10_sigma):
        dataset, model = random_fit_inputs(np.random.default_rng(seed),
                                           T=T, n=n, k=k)
        sigma = 10.0**log10_sigma
        family = PosteriorFamily(dataset, model)
        post = family.at(sigma)
        mean_ref, cov_ref = matrix_posterior(dataset, model, sigma)
        assert (np.linalg.norm(post.mean - mean_ref)
                <= 1e-10 * np.linalg.norm(mean_ref))
        assert (np.linalg.norm(post.cov - cov_ref)
                <= 1e-10 * np.linalg.norm(cov_ref))

        skeptic = family.skeptic()
        # Zero prior precision is the same closed form with c = 1, bit for bit.
        at_inf = family.at(math.inf)
        np.testing.assert_array_equal(at_inf.mean, skeptic.mean)
        np.testing.assert_array_equal(at_inf.cov, skeptic.cov)
        mean_sq, trace_term = family.wd2_to_skeptic(sigma)
        mean_sq_ref, trace_ref = wd2_components(post, skeptic)
        # The reference shift alpha_hat - c alpha_hat carries an absolute
        # error of about eps |alpha_hat|, which dominates once 1 - c drops
        # below ~1e-7; the closed form computes 1 - c as lam u0 c instead.
        alpha_norm = float(np.linalg.norm(family.fit.alpha_hat))
        assert abs(mean_sq - mean_sq_ref) <= (
            1e-9 * mean_sq_ref
            + 4 * np.finfo(float).eps * alpha_norm * math.sqrt(mean_sq_ref))
        # Both trace forms cancel digits as sigma grows, so the bound is
        # absolute in units of the total trace.
        total = float(np.trace(post.cov) + np.trace(skeptic.cov))
        assert abs(trace_term - trace_ref) <= 1e-11 * total

    @pytest.mark.parametrize("sigma", [10.0, 100.0, 1000.0, 2000.0, 1e4])
    @pytest.mark.parametrize("panel", [
        {},  # moderate alphas: e^2 tr A dominates the trace term
        {"alpha": 2.0, "resid_vol": 0.5},  # mispriced: the remainder R dominates
    ], ids=["moderate", "mispriced"])
    def test_trace_term_matches_mpmath(self, panel, sigma):
        # tr S1 + tr S2 - 2 tr (S1^1/2 S2 S1^1/2)^1/2 at 60 digits, from the
        # same float64 A, alpha_hat, s^2 and u0, where the O(lam^2) trace term
        # is a difference of O(1) traces.
        mp = pytest.importorskip("mpmath")
        dataset, model = make_dataset(seed=11, T=240, n=6, k=3, **panel)
        family = PosteriorFamily(dataset, model)
        fit = family.fit
        s2 = float(np.diag(fit.sigma_mle).mean())
        scale = s2 * np.eye(fit.n) + fit.T * fit.sigma_mle
        with mp.workdps(60):
            u0 = mp.mpf((1.0 + sharpe_sq(fit)) / fit.T)
            lam = mp.mpf(s2) / (mp.mpf(sigma) / 12) ** 2
            c = 1 / (1 + lam * u0)
            a = mp.matrix(scale.tolist())
            alpha = mp.matrix(fit.alpha_hat.tolist())
            d, q = mp.eigsy(a)
            gamma = q * mp.diag([mp.sqrt(x) for x in d]) * q.T * alpha
            roots = mp.eigsy(a * a + lam * c * gamma * gamma.T, eigvals_only=True)
            trace_a = sum(d)
            want = u0 / (fit.T + 1) * (
                trace_a + c * (trace_a + lam * c * sum(x * x for x in alpha))
                - 2 * mp.sqrt(c) * sum(mp.sqrt(x) for x in roots))
            got = family.wd2_to_skeptic(sigma)[1]
            assert float(abs(got - want) / want) <= 1e-13

    def test_single_asset_trace_term_never_negative(self):
        # With one asset the two covariances coincide at c alpha_hat^2 = u0 A,
        # so the trace term is zero there; rounding must not take it below.
        dataset, model = make_dataset(seed=0, T=240, n=1, k=1, alpha=2.0,
                                      resid_vol=0.5)
        family = PosteriorFamily(dataset, model)
        fit = family.fit
        s2 = float(fit.sigma_mle[0, 0])
        u0 = (1.0 + sharpe_sq(fit)) / fit.T
        c = u0 * (s2 + fit.T * s2) / float(fit.alpha_hat[0]) ** 2
        sigma = 12.0 * math.sqrt(s2 * u0 / (1.0 / c - 1.0))
        rows = sweep(dataset, model, [sigma * (1.0 + k * 1e-9) for k in range(-20, 21)])
        assert all(0.0 <= r.rmse_sigma <= 1e-8 for r in rows)

    def test_at_reuses_the_cached_prior_scale(self, base_dataset):
        # s^2 and u0 = (1 + Sh^2) / T are fixed per fit: at() must not solve
        # for the squared Sharpe ratio again.
        with mock.patch.object(bayes, "sharpe_sq", wraps=sharpe_sq) as spy:
            family = PosteriorFamily(*base_dataset)
            built = spy.call_count
            for sigma in (0.0, 0.5, 5.0, math.inf):
                family.at(sigma)
        assert built == 1 and spy.call_count == built

    def test_continuity_at_skeptic_boundary(self, base_dataset):
        dataset, model = base_dataset
        family = PosteriorFamily(dataset, model)
        near = family.at(1e6)
        skeptic = family.skeptic()
        np.testing.assert_allclose(near.mean, skeptic.mean, atol=1e-6)
        np.testing.assert_allclose(near.cov, skeptic.cov, atol=1e-6)


def _panel_with_spread_scales(seed, T, n, k):
    """Random panel whose residual scales span four decades; T may be < n."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-2.0, 2.0, n)
    corr = rng.normal(0.0, 1.0, (n, n))
    corr = corr @ corr.T + 0.1 * np.eye(n)
    config = SynthConfig(
        T=T, n=n, k=k,
        true_alpha=rng.normal(0.0, 0.2, n),
        true_beta=rng.normal(1.0, 0.3, (n, k)),
        factor_mean=rng.normal(0.4, 0.2, k),
        factor_cov=np.diag(rng.uniform(2.0, 6.0, k)) ** 2,
        resid_cov=corr * np.outer(scales, scales) / np.diag(corr).mean(),
        seed=int(rng.integers(0, 2**63 - 1)),
    )
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "T=.* below the recommended", UserWarning)
        dataset = generate(config)
    return dataset, ModelSpec("RND", tuple(f"F{j + 1}" for j in range(k)))


panels = st.builds(
    _panel_with_spread_scales,
    seed=st.integers(0, 2**32 - 1), T=st.integers(8, 60),
    n=st.integers(1, 40), k=st.integers(1, 3),
)


class TestSkepticMoments:
    @settings(max_examples=60, deadline=None)
    @given(panel=panels)
    def test_equal_posterior_mean_and_diagonal_bit_for_bit(self, panel):
        fit = fit_ols(*panel)
        alpha, var = skeptic_moments(fit)
        skeptic = posterior_alpha_skeptic(fit)
        np.testing.assert_array_equal(alpha, skeptic.mean)
        np.testing.assert_array_equal(var, np.diag(skeptic.cov))

    @settings(max_examples=60, deadline=None)
    @given(panel=panels)
    def test_breakdown_matches_full_transport_distance(self, panel):
        fit = fit_ols(*panel)
        td = distance_breakdown(*skeptic_moments(fit)).td
        full = wd2_gaussian(posterior_alpha_dogmatic(fit.n),
                            posterior_alpha_skeptic(fit))
        assert abs(td - full) <= 1e-12 * full

    @settings(max_examples=60, deadline=None)
    @given(panel=panels)
    def test_sweep_sigma_zero_is_the_dogmatic_distance(self, panel):
        row = sweep(*panel, [0.0])[0]
        assert row.ad == distance_breakdown(*skeptic_moments(fit_ols(*panel))).ad

    @settings(max_examples=60, deadline=None)
    @given(panel=panels)
    def test_family_scale_matrix_is_above_prior_floor(self, panel):
        # A = s^2 I + T Sigma_mle >= s^2 I, also when T < n leaves Sigma_mle
        # singular, so the family's eigh(A) needs no PSD repair.
        eigh = np.linalg.eigh
        seen = []

        def spy(a):
            seen.append(eigh(a)[0])
            return eigh(a)

        with mock.patch.object(np.linalg, "eigh", spy):
            family = PosteriorFamily(*panel)
        assert len(seen) == 1
        assert seen[0].min() >= family.s2 / 2


# Above linalg.GAUSS_RULE_MIN_N, so a family's Gauss rule comes from Lanczos.
KRYLOV_N = 160
# Relative agreement of R(g) and of the trace term between the Lanczos rule
# and eigh(A). At cond(A) = 1.3e6 the eigh table itself moves R by up to
# 5e-13 under an orthogonal change of basis of A and alpha_hat.
KRYLOV_REL = 2e-12


def _krylov_panel(spectrum, seed, n=KRYLOV_N, k=2):
    """Panel whose A = s^2 I + T Sigma_mle has the named kind of spectrum.

    hetero: diagonal residual variances over four decades plus one at 1e5,
    T = 8000, so cond(A) >= 1e6; clustered: diagonal variances at 1, 1e2 and
    1e4; short: a common residual factor plus noise at T = 100 < n; factor:
    the same at T = 600, as on the benchmark panels; exhausted: T = 30, so the
    Krylov space through alpha_hat is spanned within about T steps.
    """
    rng = np.random.default_rng(seed)
    T = {"hetero": 8000, "clustered": 2000, "short": 100, "factor": 600,
         "exhausted": 30}[spectrum]
    if spectrum == "hetero":
        resid_cov = np.diag(np.concatenate([[1e5], 10.0 ** rng.uniform(-3.0, 1.0, n - 1)]))
    elif spectrum == "clustered":
        resid_cov = np.diag(rng.choice([1.0, 1e2, 1e4], n))
    else:
        common = rng.normal(0.8, 0.3, n)
        resid_cov = np.outer(common, common) + np.diag(rng.uniform(1.2, 2.5, n) ** 2)
    config = SynthConfig(
        T=T, n=n, k=k,
        true_alpha=rng.normal(0.0, 0.2, n) * np.sqrt(np.diag(resid_cov)),
        true_beta=rng.normal(1.0, 0.3, (n, k)),
        factor_mean=rng.normal(0.4, 0.2, k),
        factor_cov=np.diag(rng.uniform(2.0, 6.0, k)) ** 2,
        resid_cov=resid_cov,
        seed=seed,
    )
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "T=.* below the recommended", UserWarning)
        dataset = generate(config)
    return dataset, ModelSpec("RND", tuple(f"F{j + 1}" for j in range(k)))


def _family_with_spies(panel):
    """The family, the Gauss rule it was built from and the number of n x n
    ``np.linalg.eigh`` calls made while building it."""
    eigh = np.linalg.eigh
    shapes, rules = [], []

    def spy(a):
        shapes.append(a.shape)
        return eigh(a)

    def record(a, v, g_max):
        rules.append(gauss_rule(a, v, g_max))
        return rules[-1]

    with mock.patch.object(np.linalg, "eigh", spy), \
            mock.patch.object(bayes, "gauss_rule", record):
        family = PosteriorFamily(*panel)
    n = family.fit.n
    return family, rules[0], shapes.count((n, n))


def _dense_family(panel):
    with mock.patch.object(linalg, "GAUSS_RULE_MIN_N", math.inf):
        return PosteriorFamily(*panel)


def _scale_eigh(fit, s2):
    return np.linalg.eigh(s2 * np.eye(fit.n) + fit.T * fit.sigma_mle)


class TestKrylovFamily:
    """Lanczos Gauss rule against eigh(A), above the crossover dimension."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("spectrum,steps_rel", [
        # These need more than the default cap of n / 4 steps; without it
        # only the stop rule or an exhausted Krylov space ends Lanczos.
        ("hetero", 1.0), ("clustered", 1.0), ("short", 1.0),
        ("factor", linalg.LANCZOS_MAX_STEPS_REL),
        ("exhausted", linalg.LANCZOS_MAX_STEPS_REL),
    ])
    def test_rule_matches_eigh_over_twelve_decades(self, spectrum, steps_rel, seed):
        panel = _krylov_panel(spectrum, seed)
        with mock.patch.object(linalg, "LANCZOS_MAX_STEPS_REL", steps_rel):
            family, (nodes, weights), dense_calls = _family_with_spies(panel)
        fit = family.fit
        s2 = family.s2
        u0 = (1.0 + sharpe_sq(fit)) / fit.T
        d, q = _scale_eigh(fit, s2)
        if spectrum == "hetero":
            assert d[-1] / d[0] >= 1e6
        if spectrum in ("short", "exhausted"):
            assert fit.T < fit.n
        assert dense_calls == 0 and nodes.shape[0] < fit.n
        # Ritz values lie in the spectrum of A >= s^2 I; with T < n its bottom
        # is s^2 itself, which rounding may undercut by a few ulps of A.
        assert nodes.min() >= s2 * (1.0 - 1e-12)
        krylov = RankOneQuadrature(nodes * nodes, nodes * weights, 1.0 / u0)
        dense = RankOneQuadrature(d * d, d * (q.T @ fit.alpha_hat) ** 2, 1.0 / u0)
        reference = _dense_family(panel)
        for gu0 in np.logspace(-12.0, 0.0, 25) * (1.0 - 1e-6):
            g = gu0 / u0
            want = dense.remainder(g)
            assert abs(krylov.remainder(g) - want) <= KRYLOV_REL * want, gu0
            # g = lam c with lam = s^2 / sigma_monthly^2 and c = 1 / (1 + lam u0).
            sigma = 12.0 * math.sqrt(s2 * (1.0 - gu0) / g)
            trace_want = reference.wd2_to_skeptic(sigma)[1]
            trace_got = family.wd2_to_skeptic(sigma)[1]
            assert abs(trace_got - trace_want) <= KRYLOV_REL * trace_want, gu0

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("spectrum", ["hetero", "clustered", "short"])
    def test_step_cap_falls_back_to_eigh(self, spectrum, seed):
        panel = _krylov_panel(spectrum, seed)
        family, (nodes, weights), dense_calls = _family_with_spies(panel)
        fit = family.fit
        d, q = _scale_eigh(fit, family.s2)
        assert dense_calls == 1
        np.testing.assert_array_equal(nodes, d)
        np.testing.assert_array_equal(weights, (q.T @ fit.alpha_hat) ** 2)
        reference = _dense_family(panel)
        for sigma in (0.5, 5.0, 50.0, 5e3):
            assert family.wd2_to_skeptic(sigma) == reference.wd2_to_skeptic(sigma)


class TestSkeptic:
    def test_mean_is_ols_alpha_exactly(self, base_dataset):
        dataset, model = base_dataset
        fit = fit_ols(dataset, model)
        skeptic = posterior_alpha_skeptic(fit)
        np.testing.assert_array_equal(skeptic.mean, fit.alpha_hat)

    def test_cov_formula(self, base_dataset):
        dataset, model = base_dataset
        fit = fit_ols(dataset, model)
        skeptic = posterior_alpha_skeptic(fit)
        s2 = np.diag(fit.sigma_mle).mean()
        expected = ((1.0 + sharpe_sq(fit)) / fit.T
                    * (s2 * np.eye(fit.n) + fit.T * fit.sigma_mle) / (fit.T + 1))
        np.testing.assert_allclose(skeptic.cov, expected, atol=1e-12)

    def test_exact_fit_asset_keeps_only_prior_floor(self):
        # Asset A prices exactly (zero residuals); asset B is noisy. The
        # exact asset's posterior variance is the prior floor
        # s^2 (1 + Sh^2) / (T (T + 1)).
        rng = np.random.default_rng(5)
        T = 60
        f = 0.5 + 2.0 * rng.standard_normal(T)
        exact = 0.1 + 2.0 * f
        noisy = 0.2 + 0.5 * f + rng.standard_normal(T)
        ds = Dataset(
            portfolios=panel_from_columns({"EXACT": exact, "NOISY": noisy}),
            factors=panel_from_columns({"F": f}),
        )
        fit = fit_ols(ds, ModelSpec("M", ("F",)))
        assert abs(fit.sigma_mle[0, 0]) < 1e-24
        s2 = np.diag(fit.sigma_mle).mean()
        skeptic = posterior_alpha_skeptic(fit)
        floor = s2 * (1.0 + sharpe_sq(fit)) / (T * (T + 1))
        assert skeptic.cov[0, 0] == pytest.approx(floor, rel=1e-12)

    def test_close_to_frequentist_at_large_T(self):
        dataset, model = make_dataset(seed=11, T=600)
        fit = fit_ols(dataset, model)
        skeptic = posterior_alpha_skeptic(fit)
        # Agreement within 1% elementwise on the diagonal at T = 600.
        valpha = (1.0 + sharpe_sq(fit)) / fit.T * fit.sigma_mle
        np.testing.assert_allclose(np.diag(skeptic.cov), np.diag(valpha),
                                   rtol=0.01)

    def test_trace_matches_frequentist_exactly(self, base_dataset):
        # The prior floor trades off against the T/(T+1) shrinkage so the
        # covariance traces coincide identically.
        dataset, model = base_dataset
        fit = fit_ols(dataset, model)
        skeptic = posterior_alpha_skeptic(fit)
        valpha = (1.0 + sharpe_sq(fit)) / fit.T * fit.sigma_mle
        assert np.trace(skeptic.cov) == pytest.approx(np.trace(valpha),
                                                      rel=1e-12)


class TestGaussianDist:
    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            GaussianDist(np.zeros(2), np.zeros((3, 3)))

    def test_cov_symmetrized(self):
        d = GaussianDist(np.zeros(2), np.array([[1.0, 0.5 + 1e-14],
                                                [0.5, 1.0]]))
        np.testing.assert_array_equal(d.cov, d.cov.T)
