import math

import numpy as np
import pytest

from factordist import (
    Dataset,
    ModelSpec,
    ReturnsPanel,
    alpha_stats,
    build_report,
    distance_breakdown,
    fit_ols,
    grs_test,
    rank_models,
    skeptic_moments,
)

from conftest import fake_fit, make_dataset, random_fit_inputs


def _moments(alpha, var_diag=None):
    """Mean and variances of a posterior, zero variances by default."""
    alpha = np.asarray(alpha, dtype=float)
    var = np.zeros_like(alpha) if var_diag is None else np.asarray(var_diag, float)
    return alpha, var


def _report_from(alpha, var_diag=None, model_name="M"):
    fit = fake_fit(np.asarray(alpha, float), model_name=model_name)
    breakdown = distance_breakdown(*_moments(alpha, var_diag))
    return build_report(fit, breakdown, grs_test(fit))


class TestAlphaStats:
    def test_two_asset_examples(self):
        # Tighter-but-even errors vs smaller-but-extreme errors: the mean
        # absolute alphas order one way, the root mean squares the other.
        even = [0.15, 0.17]
        extreme = [0.05, 0.25]
        mae_even, _, _ = alpha_stats(fake_fit(even))
        mae_extreme, _, _ = alpha_stats(fake_fit(extreme))
        assert mae_even == pytest.approx(0.16, abs=1e-12)
        assert mae_extreme == pytest.approx(0.15, abs=1e-12)
        assert round(distance_breakdown(*_moments(even)).rmse_alpha, 4) == 0.1603
        assert round(distance_breakdown(*_moments(extreme)).rmse_alpha, 4) == 0.1803

    def test_one_extreme_error_dominates_rmse(self):
        alpha = [0.0, 0.0, 0.0, 0.0, 0.50]
        mae, _, _ = alpha_stats(fake_fit(alpha))
        assert mae == pytest.approx(0.10, abs=1e-12)
        # 0.50 / sqrt(5) = 0.2236 to four decimals.
        assert round(distance_breakdown(*_moments(alpha)).rmse_alpha, 4) == 0.2236

    def test_equal_alphas_collapse_mae_to_rmse(self):
        alpha = [0.2, -0.2, 0.2, -0.2]
        mae, _, _ = alpha_stats(fake_fit(alpha))
        assert mae == pytest.approx(0.2, abs=1e-14)
        assert distance_breakdown(*_moments(alpha)).rmse_alpha == pytest.approx(
            0.2, abs=1e-14)

    def test_rmse_exceeds_mae_iff_magnitudes_differ(self):
        # Equality holds exactly when all |alpha_i| agree, strictly otherwise.
        unequal = [0.1, 0.3]
        mae, _, _ = alpha_stats(fake_fit(unequal))
        assert distance_breakdown(*_moments(unequal)).rmse_alpha > mae
        equal = [0.3, -0.3]
        mae_eq, _, _ = alpha_stats(fake_fit(equal))
        assert distance_breakdown(*_moments(equal)).rmse_alpha == pytest.approx(
            mae_eq, abs=1e-15)

    def test_flat_cross_section_sentinel(self):
        fit = fake_fit(np.array([0.1, 0.1]), asset_mean=np.array([0.5, 0.5]))
        _, mae_over_ar, _ = alpha_stats(fit)
        assert math.isinf(mae_over_ar)

    def test_mean_r2(self):
        fit = fake_fit(np.array([0.1, 0.1]))
        _, _, mean_r2 = alpha_stats(fit)
        assert mean_r2 == pytest.approx(0.9)

    def test_chain_on_real_fits(self, rng):
        # Average distance dominates the alpha root mean square, which
        # dominates the mean absolute alpha, on any fit with residual noise.
        for _ in range(25):
            dataset, model = random_fit_inputs(rng)
            fit = fit_ols(dataset, model)
            bd = distance_breakdown(*skeptic_moments(fit))
            mae, _, _ = alpha_stats(fit)
            assert bd.ad > bd.rmse_alpha
            assert bd.rmse_alpha >= mae - 1e-12


class TestBuildReport:
    def test_zero_alpha_synthetic(self):
        report = _report_from(np.zeros(4))
        assert report.mae == 0.0
        assert report.grs == 0.0
        assert report.grs_pvalue == 1.0
        assert report.td == 0.0

    def test_copies_breakdown_fields(self):
        alpha = [0.2, -0.1, 0.05]
        var = [0.01, 0.02, 0.015]
        report = _report_from(alpha, var)
        bd = distance_breakdown(*_moments(alpha, var))
        assert report.td == bd.td and report.ad == bd.ad
        assert report.rmse_alpha == bd.rmse_alpha
        assert report.rmse_sigma == bd.rmse_sigma
        assert report.ratio_var == bd.ratio_var
        np.testing.assert_array_equal(report.marginal, bd.marginal)

    def test_report_identities(self):
        report = _report_from([0.3, -0.2, 0.25], [0.02, 0.03, 0.01])
        assert report.ad**2 == pytest.approx(
            report.rmse_alpha**2 + report.rmse_sigma**2, abs=1e-12)
        assert report.mae <= report.rmse_alpha + 1e-12

    def test_undefined_grs_left_empty(self):
        fit = fake_fit([0.1, 0.2])
        report = build_report(fit, distance_breakdown(*_moments([0.1, 0.2])), None)
        assert report.grs is None and report.grs_pvalue is None
        assert report.td == pytest.approx(math.hypot(0.1, 0.2), rel=1e-15)


class TestRankModels:
    def test_table_style_ordering(self):
        reports = [
            _report_from(np.full(25, 0.165), model_name="q-factor"),
            _report_from(np.full(25, 0.145), model_name="FF6"),
            _report_from(np.full(25, 0.149), model_name="FF6-HML"),
        ]
        # ADs are 0.165, 0.145, 0.149 (zero variance, equal alphas).
        assert [r.ad for r in reports] == pytest.approx([0.165, 0.145, 0.149])
        assert [r.model_name for r in rank_models(reports)] == ["FF6", "FF6-HML",
                                                                "q-factor"]

    def test_single_report(self):
        report = _report_from([0.1, 0.2])
        assert rank_models([report]) == [report]

    def test_tie_broken_by_td_then_name(self):
        a = _report_from([0.3, 0.4], model_name="B")
        b = a._replace(model_name="A")
        assert [r.model_name for r in rank_models([a, b])] == ["A", "B"]
        # Same AD, different TD: construct by hand.
        lo_td = a._replace(model_name="C", td=a.td - 0.01)
        assert rank_models([a, lo_td])[0].model_name == "C"

    def test_stable_under_permutation(self):
        reports = [_report_from([0.1 * (i + 1), 0.05], model_name=f"M{i}")
                   for i in range(4)]
        names = [r.model_name for r in rank_models(reports)]
        shuffled = [reports[2], reports[0], reports[3], reports[1]]
        assert [r.model_name for r in rank_models(shuffled)] == names

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_models([])

    def test_ranking_invariant_to_return_units(self):
        # Refit after rescaling percent returns to decimals: the argmin
        # model must not change.
        dataset, _ = make_dataset(seed=3, k=2)
        models = [ModelSpec("ONE", ("F1",)), ModelSpec("BOTH", ("F1", "F2"))]

        def winner(ds):
            reports = []
            for m in models:
                fit = fit_ols(ds, m)
                reports.append(build_report(fit,
                                            distance_breakdown(*skeptic_moments(fit)),
                                            grs_test(fit)))
            return rank_models(reports)[0].model_name

        scaled = Dataset(
            portfolios=ReturnsPanel(dataset.portfolios.dates,
                                    dataset.portfolios.names,
                                    dataset.portfolios.values / 100.0),
            factors=ReturnsPanel(dataset.factors.dates, dataset.factors.names,
                                 dataset.factors.values / 100.0),
        )
        assert winner(dataset) == winner(scaled)
