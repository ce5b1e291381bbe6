"""Acceptance suite: one test per criterion, each printing a pass line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
criteria 1-9 need no external data. Criterion 10 runs only when
FACTORDIST_DATA_DIR supplies the real factor and portfolio files.
"""

import math
import time

import numpy as np

from factordist import (
    GaussianDist,
    ModelSpec,
    PosteriorFamily,
    SynthConfig,
    alpha_stats,
    build_report,
    distance_breakdown,
    fit_ols,
    generate,
    grs_test,
    posterior_alpha_dogmatic,
    posterior_alpha_skeptic,
    power_scenario,
    sharpe_sq,
    skeptic_moments,
    solve_equivs,
    sweep,
    transport_map,
    wd2_gaussian,
)
from conftest import fake_fit, make_config, make_dataset, random_fit_inputs, random_spd


def _passed(number: int, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {number:2d} PASS - {detail}")


def _random_gaussian(rng, dim, scale=1.0):
    return GaussianDist(rng.normal(0.0, scale, dim), random_spd(rng, dim, scale))


def test_criterion_01_wd2_metric_properties():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    univariate_checked = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 6))
        a = _random_gaussian(rng, dim)
        b = _random_gaussian(rng, dim)
        c = _random_gaussian(rng, dim)
        dab = wd2_gaussian(a, b)
        assert dab >= 0.0
        assert abs(dab - wd2_gaussian(b, a)) <= 1e-9
        assert wd2_gaussian(a, a) <= 1e-9
        assert wd2_gaussian(a, c) <= dab + wd2_gaussian(b, c) + 1e-9
        if dim == 1:
            expected = math.hypot(b.mean[0] - a.mean[0],
                                  math.sqrt(b.cov[0, 0]) - math.sqrt(a.cov[0, 0]))
            assert abs(dab - expected) <= 1e-12
            univariate_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert univariate_checked > 100
    _passed(1, f"metric axioms on 1000 Gaussian triples, {univariate_checked} "
               f"univariate closed forms, {elapsed:.2f}s")


def test_criterion_02_transport_map_pushforward():
    rng = np.random.default_rng(202)
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        v1 = random_spd(rng, dim)
        v2 = random_spd(rng, dim)
        p1 = GaussianDist(np.zeros(dim), v1)
        p2 = GaussianDist(np.zeros(dim), v2)
        t12 = transport_map(p1, p2)
        push_err = np.abs(t12 @ v1 @ t12.T - v2).max()
        assert push_err <= 1e-8 * max(1.0, np.abs(v2).max())
        t21 = transport_map(p2, p1)
        inv_err = np.abs(t21 - np.linalg.inv(t12)).max()
        assert inv_err <= 1e-8 * max(1.0, np.abs(t21).max())
    _passed(2, "pushforward and inverse-map identities on 200 SPD pairs")


def test_criterion_03_total_distance_equivalence():
    rng = np.random.default_rng(303)
    for _ in range(50):
        dataset, model = random_fit_inputs(rng)
        fit = fit_ols(dataset, model)
        # Frequentist moments through the full matrix machinery.
        valpha = (1.0 + sharpe_sq(fit)) / fit.T * fit.sigma_mle
        sampling = GaussianDist(fit.alpha_hat, valpha)
        full = wd2_gaussian(posterior_alpha_dogmatic(fit.n), sampling)
        direct = math.sqrt(float(fit.alpha_hat @ fit.alpha_hat)
                           + float(np.trace(valpha)))
        assert abs(full - direct) <= 1e-12 * max(1.0, direct)
        # Posterior moments through the per-asset decomposition.
        bd = distance_breakdown(*skeptic_moments(fit))
        full_post = wd2_gaussian(posterior_alpha_dogmatic(fit.n),
                                 posterior_alpha_skeptic(fit))
        assert abs(full_post - bd.td) <= 1e-12 * max(1.0, bd.td)
    _passed(3, "full transport distance equals the sum-of-squares form "
               "on 50 synthetic fits")


def test_criterion_04_distance_vs_alpha_statistics_chain():
    rng = np.random.default_rng(404)
    for _ in range(500):
        dataset, model = random_fit_inputs(rng, T=60, n=3,
                                           k=int(rng.integers(1, 3)))
        fit = fit_ols(dataset, model)
        bd = distance_breakdown(*skeptic_moments(fit))
        mae, _, _ = alpha_stats(fit)
        assert bd.ad > bd.rmse_alpha
        assert bd.rmse_alpha >= mae - 1e-12

    even = np.array([0.15, 0.17])
    extreme = np.array([0.05, 0.25])
    assert round(float(np.abs(even).mean()), 4) == 0.16
    assert round(float(np.abs(extreme).mean()), 4) == 0.15
    assert round(distance_breakdown(even, np.zeros(2)).rmse_alpha, 4) == 0.1603
    assert round(distance_breakdown(extreme, np.zeros(2)).rmse_alpha, 4) == 0.1803

    one_bad = np.array([0.0, 0.0, 0.0, 0.0, 0.50])
    assert round(float(np.abs(one_bad).mean()), 4) == 0.10
    # 0.50 / sqrt(5) exactly; one extreme error dominates the quadratic mean.
    assert round(distance_breakdown(one_bad, np.zeros(5)).rmse_alpha, 4) == 0.2236
    _passed(4, "AD > RMSE >= MAE on 500 fits; two-asset and one-extreme-error "
               "examples reproduced to 4 decimals")


def test_criterion_05_shrinkage_endpoints_and_monotone_distance():
    dataset, model = make_dataset(seed=42)
    family = PosteriorFamily(fit_ols(dataset, model))
    alpha_ols = family.fit.alpha_hat

    tight = family.at(1e-8)
    assert np.linalg.norm(tight.mean) <= 1e-6 * np.linalg.norm(alpha_ols)
    diffuse = family.at(1e6)
    rel = (np.linalg.norm(diffuse.mean - alpha_ols)
           / np.linalg.norm(alpha_ols))
    assert rel <= 1e-6

    grid = list(np.linspace(0.0, 12.0, 20))
    ads = [row.ad for row in sweep(PosteriorFamily(fit_ols(dataset, model)), grid)]
    assert all(a > b for a, b in zip(ads, ads[1:]))
    _passed(5, "posterior endpoints match OLS/zero and AD strictly decreases "
               "over a 20-point grid")


def test_criterion_06_grs_null_calibration():
    start = time.perf_counter()
    model = ModelSpec("NULL", ("F1",))
    reps, hits = 2000, 0
    for rep in range(reps):
        config = SynthConfig(
            T=600, n=5, k=1,
            true_alpha=np.zeros(5),
            true_beta=np.ones((5, 1)),
            factor_mean=np.array([0.5]),
            factor_cov=np.array([[4.5**2]]),
            resid_cov=4.0 * np.eye(5),
            seed=1_000_000 + rep,
        )
        _, pvalue = grs_test(fit_ols(generate(config), model))
        hits += pvalue < 0.05
    rate = hits / reps
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert 0.035 <= rate <= 0.065
    _passed(6, f"null rejection rate {rate:.3f} in [0.035, 0.065], "
               f"{elapsed:.1f}s for 2000 replications")


def test_criterion_07_power_problem():
    # Analytic scale collapse: fixed alphas, scaled residual covariance.
    fit = fake_fit(np.array([0.2, -0.1, 0.3]), sigma_diag=[4.0, 5.0, 6.0])
    base_stat, _ = grs_test(fit)
    for c in (0.5, 2.0, 4.0):
        stat, _ = grs_test(fit._replace(sigma_base=c * fit.sigma_base))
        assert abs(stat - base_stat / c) <= 1e-10 * base_stat

    # Fixed-seed resampled scenario: ratio statistic falls as noise grows,
    # distance rises.
    base = make_config(seed=4, alpha=0.3)
    model = ModelSpec("SYN", ("F1",))
    grs_vals, td_vals = [], []
    for _, dataset in power_scenario(base, [0.5, 1.0, 2.0, 4.0]):
        scenario_fit = fit_ols(dataset, model)
        grs_vals.append(grs_test(scenario_fit)[0])
        td_vals.append(distance_breakdown(*skeptic_moments(scenario_fit)).td)
    assert all(a > b for a, b in zip(grs_vals, grs_vals[1:]))
    assert all(a < b for a, b in zip(td_vals, td_vals[1:]))
    _passed(7, "GRS falls and TD rises with the noise scale; exact 1/c "
               "collapse of the ratio statistic")


def test_criterion_08_equivalence_round_trip():
    dataset, model = make_dataset(seed=42)
    worst = 0.0
    for planted in (1.0, 3.0, 7.0):
        target = sweep(PosteriorFamily(fit_ols(dataset, model)), [planted])[0].ad
        result = solve_equivs([PosteriorFamily(fit_ols(dataset, model))], target)[0]
        worst = max(worst, abs(result.sigma_star_annual - planted))
    assert worst <= 1e-4
    _passed(8, f"planted sigma 1/3/7 recovered, worst error {worst:.2e} "
               "annual pct points")


def test_criterion_09_table_internal_consistency():
    # Published aggregates for the six-factor model on 25 portfolios:
    # the component columns recombine to the printed average distance, and
    # the printed average scales to the printed total.
    ad = math.sqrt(0.114**2 + 0.068**2)
    assert abs(ad - 0.133) <= 5e-4
    td = math.sqrt(25) * 0.133
    assert abs(td - 0.665) <= 5e-4
    _passed(9, f"component columns give AD {ad:.4f} ~ 0.133 and "
               f"TD {td:.3f} = 0.665")


def test_criterion_10_real_data_reproduction(kenfrench_25_size_bm,
                                             kenfrench_factors):
    dataset = kenfrench_25_size_bm
    mkt = kenfrench_factors.column("MKT")
    assert abs(mkt.mean() - 0.52) <= 0.01
    assert abs(mkt.std(ddof=1) - 4.53) <= 0.01

    fit = fit_ols(dataset, ModelSpec("FF3", ("MKT", "SMB", "HML")))
    report = build_report(fit, distance_breakdown(*skeptic_moments(fit)),
                          grs_test(fit))
    assert abs(report.td - 0.822) <= 0.005
    assert abs(report.ad - 0.164) <= 0.005
    assert abs(report.rmse_alpha - 0.150) <= 0.005
    assert abs(report.mae - 0.108) <= 0.005
    assert abs(report.grs - 3.97) <= 0.05
    _passed(10, "three-factor row and market moments reproduced on the "
                "user-supplied data")
