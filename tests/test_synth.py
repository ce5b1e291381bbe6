
import numpy as np
import pytest

from factordist import (
    ModelSpec,
    distance_breakdown,
    fit_ols,
    generate,
    grs_test,
    power_scenario,
    skeptic_moments,
    synth,
)
from factordist.dataio import month_range
from factordist.errors import BadConfigError

from conftest import make_config


class TestGenerate:
    def test_noiseless_identification(self):
        config = make_config(seed=1, T=120, n=3, k=2, alpha=0.3, resid_vol=0.0)
        dataset = generate(config)
        fit = fit_ols(dataset, ModelSpec("M", ("F1", "F2")))
        np.testing.assert_allclose(fit.alpha_hat, config.true_alpha, atol=1e-8)
        np.testing.assert_allclose(fit.beta_hat, config.true_beta, atol=1e-8)

    def test_same_seed_byte_identical(self):
        a = generate(make_config(seed=77))
        b = generate(make_config(seed=77))
        assert a.portfolios.values.tobytes() == b.portfolios.values.tobytes()
        assert a.factors.values.tobytes() == b.factors.values.tobytes()
        assert a.portfolios.dates == b.portfolios.dates

    def test_different_seed_differs(self):
        a = generate(make_config(seed=77))
        b = generate(make_config(seed=78))
        assert a.portfolios.values.tobytes() != b.portfolios.values.tobytes()

    def test_dates_are_consecutive_months(self):
        dataset = generate(make_config(seed=1, T=30))
        dates = dataset.portfolios.dates
        assert len(dates) == 30
        assert dates[0] == 196701
        assert dates[13] == 196802

    def test_moments_converge(self):
        config = make_config(seed=123, T=10_000, n=2, k=2,
                             factor_mean=0.4, factor_vol=3.0)
        dataset = generate(config)
        f = dataset.factors.values
        T = config.T
        mean_se = 3.0 / np.sqrt(T)
        np.testing.assert_allclose(f.mean(axis=0), 0.4, atol=5 * mean_se)
        sample_cov = np.cov(f.T, ddof=0)
        true_cov = 9.0 * np.eye(2)
        # Var of a sample covariance entry is (S_ii S_jj + S_ij^2) / T.
        cov_se = np.sqrt((np.outer(np.diag(true_cov), np.diag(true_cov))
                          + true_cov**2) / T)
        assert np.all(np.abs(sample_cov - true_cov) <= 5 * cov_se)

    def test_small_sample_warns(self):
        config = make_config(seed=1, T=6, n=4, k=1)
        with pytest.warns(UserWarning, match="recommended"):
            generate(config)

    @pytest.mark.parametrize("field,value", [
        ("true_alpha", np.zeros(3)),
        ("true_beta", np.zeros((2, 2))),
        ("factor_mean", np.zeros(2)),
        ("resid_cov", np.eye(4)),
    ])
    def test_shape_mismatch_rejected(self, field, value):
        config = make_config(seed=1, T=50, n=5, k=1)._replace(**{field: value})
        with pytest.raises(BadConfigError):
            generate(config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["true_alpha", "true_beta", "factor_mean",
                                       "factor_cov", "resid_cov"])
    def test_non_finite_ground_truth_rejected_before_any_draw(self, monkeypatch,
                                                              field, bad):
        config = make_config(seed=1, T=50, n=3, k=2)
        value = np.array(getattr(config, field), dtype=float)
        value.flat[0] = bad
        monkeypatch.setattr(np.random, "Philox", None)
        with pytest.raises(BadConfigError, match=f"^{field} must be finite$"):
            generate(config._replace(**{field: value}))

    def test_overflowing_draws_rejected(self):
        # Finite ground truth whose returns overflow; no RuntimeWarning escapes.
        config = make_config(seed=1, T=50, n=3, alpha=1.7e308, factor_mean=1.7e308)
        with pytest.raises(BadConfigError, match="^the drawn factors or returns overflow$"):
            generate(config)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(BadConfigError):
            generate(make_config(seed=1)._replace(T=0))

    def test_negative_seed_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(np.random, "Philox", None)
        with pytest.raises(BadConfigError, match="^seed must be >= 0, got -1$"):
            generate(make_config(seed=-1))

    @pytest.mark.parametrize("T", [96_397, 10**12])
    def test_months_past_999912_rejected_without_building_them(self, monkeypatch, T):
        assert month_range(synth.START_DATE, synth.MAX_T)[-1] == 999912

        def no_months(*args):
            raise AssertionError("month_range called")

        monkeypatch.setattr(np.random, "Philox", None)
        monkeypatch.setattr(synth, "month_range", no_months)
        with pytest.raises(BadConfigError, match=f"^start_date=196701 and T={T} must "
                                                 "give YYYYMM months up to 999912$"):
            generate(make_config(T=T, n=1, k=1))


class TestPowerScenario:
    def test_unit_scale_reproduces_base(self):
        base = make_config(seed=4, alpha=0.3)
        baseline = generate(base)
        (_, scenario), = power_scenario(base, [1.0])
        assert (scenario.portfolios.values.tobytes()
                == baseline.portfolios.values.tobytes())
        assert (scenario.factors.values.tobytes()
                == baseline.factors.values.tobytes())

    def test_shared_standard_normals(self):
        # Factors are identical across scales; residual draws differ only
        # by the sqrt of the scale.
        base = make_config(seed=4, alpha=0.3, resid_vol=2.0)
        scenarios = dict(power_scenario(base, [1.0, 4.0]))
        f1 = scenarios[1.0].factors.values
        f4 = scenarios[4.0].factors.values
        np.testing.assert_array_equal(f1, f4)
        resid1 = scenarios[1.0].portfolios.values - 0.3 - f1 @ np.ones((1, 5))
        resid4 = scenarios[4.0].portfolios.values - 0.3 - f4 @ np.ones((1, 5))
        np.testing.assert_allclose(resid4, 2.0 * resid1, atol=1e-12)

    def test_grs_falls_and_td_rises_with_noise_scale(self):
        base = make_config(seed=4, alpha=0.3)
        model = ModelSpec("SYN", ("F1",))
        grs_vals, td_vals = [], []
        for _, dataset in power_scenario(base, [0.5, 1.0, 2.0, 4.0]):
            fit = fit_ols(dataset, model)
            grs_vals.append(grs_test(fit)[0])
            td_vals.append(distance_breakdown(*skeptic_moments(fit)).td)
        assert all(a > b for a, b in zip(grs_vals, grs_vals[1:]))
        assert all(a < b for a, b in zip(td_vals, td_vals[1:]))

    def test_variance_ratio_scales_roughly_linearly(self):
        base = make_config(seed=4, alpha=0.3)
        model = ModelSpec("SYN", ("F1",))
        ratios = {}
        for scale, dataset in power_scenario(base, [1.0, 4.0]):
            fit = fit_ols(dataset, model)
            bd = distance_breakdown(*skeptic_moments(fit))
            ratios[scale] = bd.ratio_var
        factor = ratios[4.0] / ratios[1.0]
        assert 0.7 * 4.0 <= factor <= 1.3 * 4.0

    def test_bad_scales_rejected(self):
        base = make_config(seed=1)
        with pytest.raises(BadConfigError):
            power_scenario(base, [])
        with pytest.raises(BadConfigError):
            power_scenario(base, [1.0, -2.0])
