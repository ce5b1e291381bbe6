import dataclasses

import numpy as np
import pytest

from factordist import (
    Dataset,
    ModelSpec,
    ReturnsPanel,
    fit_ols,
    grs_test,
    sharpe_sq,
)
from factordist.errors import (
    DegenerateDoFError,
    InsufficientSampleError,
    RankDeficientError,
    UnknownFactorError,
)

from conftest import fake_fit, panel_from_columns, random_fit_inputs


def _tiny_dataset(factor_values, asset_values, extra_factors=None):
    cols = {"F": factor_values}
    if extra_factors:
        cols.update(extra_factors)
    factors = panel_from_columns(cols)
    ports = panel_from_columns({"A": asset_values})
    return Dataset(portfolios=ports, factors=factors)


class TestFitOls:
    def test_exact_fit_recovers_intercept(self):
        f = [0.3, -1.2, 2.5, 0.8, -0.4, 1.1]
        c = 0.25
        ds = _tiny_dataset(f, [x + c for x in f])
        fit = fit_ols(ds, ModelSpec("M", ("F",)))
        assert fit.alpha_hat[0] == pytest.approx(c, abs=1e-12)
        assert fit.beta_hat[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert fit.sigma_mle[0, 0] == pytest.approx(0.0, abs=1e-20)
        assert fit.r2[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_hand_normal_equations(self):
        # Independent oracle: explicit 2x2 solve of the normal equations.
        f = [0.3, -1.2, 2.5, 0.8, -0.4]
        r = [1.1, -2.0, 4.4, 1.0, -1.3]
        T = 5
        sf = sum(f)
        sff = sum(x * x for x in f)
        sr = sum(r)
        sfr = sum(x * y for x, y in zip(f, r))
        det = T * sff - sf * sf
        alpha_expected = (sff * sr - sf * sfr) / det
        beta_expected = (T * sfr - sf * sr) / det

        fit = fit_ols(_tiny_dataset(f, r), ModelSpec("M", ("F",)))
        assert fit.alpha_hat[0] == pytest.approx(alpha_expected, abs=1e-12)
        assert fit.beta_hat[0, 0] == pytest.approx(beta_expected, abs=1e-12)

    def test_alpha_identity(self, rng):
        for _ in range(5):
            dataset, model = random_fit_inputs(rng, n=4, k=2)
            fit = fit_ols(dataset, model)
            np.testing.assert_allclose(
                fit.alpha_hat, fit.asset_mean - fit.beta_hat @ fit.factor_mean,
                atol=1e-10)

    def test_covariances_exactly_symmetric(self, rng):
        # fit_ols does not symmetrize: numpy's A'A product must already be.
        for T, n, k in ((37, 11, 1), (120, 4, 3), (450, 200, 3)):
            dataset, model = random_fit_inputs(rng, T=T, n=n, k=k)
            fit = fit_ols(dataset, model)
            np.testing.assert_array_equal(fit.sigma_mle, fit.sigma_mle.T)
            np.testing.assert_array_equal(fit.factor_cov_mle, fit.factor_cov_mle.T)

    def test_residuals_mean_zero(self, base_dataset):
        dataset, model = base_dataset
        fit = fit_ols(dataset, model)
        design = np.column_stack([np.ones(fit.T),
                                  dataset.factors.select(model.factor_names)])
        coef = np.vstack([fit.alpha_hat, fit.beta_hat.T])
        resid = dataset.portfolios.values - design @ coef
        np.testing.assert_allclose(resid.mean(axis=0), 0.0, atol=1e-10)

    def test_redundant_factor_raises(self, base_dataset):
        dataset, _ = base_dataset
        f1 = dataset.factors.column("F1")
        factors = panel_from_columns(
            {"F1": f1, "F2": 2.0 * f1}, start=dataset.factors.dates[0])
        ds = Dataset(portfolios=dataset.portfolios, factors=factors)
        with pytest.raises(RankDeficientError):
            fit_ols(ds, ModelSpec("M", ("F1", "F2")))

    def test_insufficient_sample(self):
        ds = _tiny_dataset([0.1, 0.2], [0.3, 0.5])
        with pytest.raises(InsufficientSampleError):
            fit_ols(ds, ModelSpec("M", ("F",)))

    def test_unknown_factor_at_fit_time(self, base_dataset):
        dataset, _ = base_dataset
        with pytest.raises(UnknownFactorError, match="NOPE"):
            fit_ols(dataset, ModelSpec("M", ("NOPE",)))


class TestSharpeSq:
    def test_zero_mean_factor(self):
        T = 8
        p1 = np.resize([1.0, -1.0], T)
        ds = _tiny_dataset(list(2.0 * p1), list(np.arange(T) * 0.1))
        fit = fit_ols(ds, ModelSpec("M", ("F",)))
        assert sharpe_sq(fit) == pytest.approx(0.0, abs=1e-20)

    def test_scalar_case(self):
        T = 8
        f = 0.5 + 2.0 * np.resize([1.0, -1.0], T)
        ds = _tiny_dataset(list(f), list(np.arange(T) * 0.1))
        fit = fit_ols(ds, ModelSpec("M", ("F",)))
        mu, var = f.mean(), f.var()  # MLE divisor
        assert sharpe_sq(fit) == pytest.approx(mu**2 / var, rel=1e-12)

    def test_orthogonal_factors_add(self):
        # Exactly uncorrelated in sample: zero-mean orthogonal patterns.
        T = 8
        p1 = np.resize([1.0, -1.0], T)
        p2 = np.resize([1.0, 1.0, -1.0, -1.0], T)
        f1 = 0.4 + 1.5 * p1
        f2 = -0.2 + 0.7 * p2
        factors = panel_from_columns({"F1": list(f1), "F2": list(f2)})
        ports = panel_from_columns({"A": list(np.arange(T) * 0.1)})
        ds = Dataset(portfolios=ports, factors=factors)
        both = sharpe_sq(fit_ols(ds, ModelSpec("B", ("F1", "F2"))))
        one = sharpe_sq(fit_ols(ds, ModelSpec("O1", ("F1",))))
        two = sharpe_sq(fit_ols(ds, ModelSpec("O2", ("F2",))))
        assert both == pytest.approx(one + two, rel=1e-12)


class TestGrs:
    def test_zero_alpha_gives_zero_statistic(self):
        fit = fake_fit(np.zeros(5))
        stat, pvalue = grs_test(fit)
        assert stat == 0.0
        assert pvalue == 1.0

    def test_scale_collapse(self):
        # Multiplying the residual covariance by c divides the statistic by c.
        fit = fake_fit(np.array([0.2, -0.1, 0.3]), sigma_diag=[4.0, 5.0, 6.0])
        base, _ = grs_test(fit)
        for c in (0.5, 2.0, 4.0):
            scaled = dataclasses.replace(fit, sigma_mle=c * fit.sigma_mle)
            stat, _ = grs_test(scaled)
            assert stat == pytest.approx(base / c, rel=1e-10)

    def test_asset_permutation_invariance(self, base_dataset):
        dataset, model = base_dataset
        stat0, p0 = grs_test(fit_ols(dataset, model))
        perm = [3, 0, 4, 1, 2]
        ports = dataset.portfolios
        shuffled = ReturnsPanel(ports.dates,
                                tuple(ports.names[i] for i in perm),
                                ports.values[:, perm])
        stat1, p1 = grs_test(fit_ols(Dataset(shuffled, dataset.factors), model))
        assert stat1 == pytest.approx(stat0, rel=1e-10)
        assert p1 == pytest.approx(p0, rel=1e-8)

    def test_degenerate_dof(self):
        fit = fake_fit(np.zeros(5), T=6)
        with pytest.raises(DegenerateDoFError):
            grs_test(fit)

    def test_null_rejection_rate_sane(self):
        # Quick null-size check; the full 2000-rep calibration runs in the
        # acceptance suite.
        from factordist import SynthConfig, generate

        model = ModelSpec("M", ("F1",))
        reps, hits = 300, 0
        for rep in range(reps):
            cfg = SynthConfig(T=600, n=5, k=1, true_alpha=np.zeros(5),
                              true_beta=np.ones((5, 1)),
                              factor_mean=np.array([0.5]),
                              factor_cov=np.array([[20.25]]),
                              resid_cov=4.0 * np.eye(5),
                              seed=7_000_000 + rep)
            _, p = grs_test(fit_ols(generate(cfg), model))
            hits += p < 0.05
        assert 0.02 <= hits / reps <= 0.09


def test_real_data_ff3_size_bm_alpha(kenfrench_25_size_bm):
    # Smallest-growth portfolio under the three-factor model: alpha -0.52,
    # t-statistic -5.27 on 1967:01-2016:12.
    dataset = kenfrench_25_size_bm
    fit = fit_ols(dataset, ModelSpec("FF3", ("MKT", "SMB", "HML")))
    i = dataset.portfolios.names.index("SMALL LoBM")
    se = np.sqrt((1.0 + sharpe_sq(fit)) / fit.T * fit.sigma_mle[i, i])
    assert fit.alpha_hat[i] == pytest.approx(-0.52, abs=0.01)
    assert fit.alpha_hat[i] / se == pytest.approx(-5.27, abs=0.1)
