import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factordist import (
    Dataset,
    ModelSpec,
    ReturnsPanel,
    f_cdf_upper,
    fit_ols,
    grs_test,
    sharpe_sq,
    skeptic_moments,
)
from factordist.errors import (
    DegenerateDoFError,
    FactorDistError,
    InsufficientSampleError,
    RankDeficientError,
    SingularResidualCovError,
    UnknownFactorError,
)
from factordist.regression import _fit_models

from conftest import direct_fits, fake_fit, panel_from_columns, random_fit_inputs


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


def _factor_panel_dataset(seed, T, n, k, loading_scale=1.0, extra=True):
    """Random panel on factors F1..Fk (plus an unused X when ``extra``):
    returns = alpha + F B' + noise, with the loadings on F2..Fk scaled."""
    rng = np.random.default_rng(seed)
    f = rng.normal(0.5, 4.0, (T, k))
    betas = rng.normal(1.0, 0.5, (n, k))
    betas[:, 1:] *= loading_scale
    noise = rng.normal(0.0, 2.0, (T, n)) @ (np.eye(n) + 0.3 * rng.normal(size=(n, n)))
    returns = rng.normal(0.0, 0.3, n) + f @ betas.T + noise
    columns = {f"F{j + 1}": f[:, j] for j in range(k)}
    if extra:
        columns["X"] = rng.normal(0.2, 3.0, T)
    return Dataset(panel_from_columns({f"A{i}": returns[:, i] for i in range(n)}),
                   panel_from_columns(columns))


def _outcomes(results):
    """Every (fit, grs) of a _fit_models-style iterator, then its error if any."""
    out = []
    try:
        for item in results:
            out.append(item)
    except FactorDistError as exc:
        out.append(exc)
    return out


def _assert_close(got, want, rtol=1e-10):
    want = np.asarray(want, dtype=float)
    scale = float(np.abs(want).max(initial=0.0))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * max(scale, 1e-300))


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w)
            continue
        (fit, grs), (ref, ref_grs) = g, w
        assert fit.model == ref.model
        assert (fit.n, fit.T, fit.k) == (ref.n, ref.T, ref.k)
        _assert_close(fit.alpha_hat, ref.alpha_hat)
        _assert_close(fit.beta_hat, ref.beta_hat)
        _assert_close(fit.resid_var, np.diag(ref.sigma_mle))
        np.testing.assert_allclose(fit.r2, ref.r2, rtol=1e-10, atol=1e-10)
        np.testing.assert_array_equal(fit.asset_mean, ref.asset_mean)
        _assert_close(skeptic_moments(fit)[1], skeptic_moments(ref)[1])
        assert sharpe_sq(fit) == sharpe_sq(ref)
        if isinstance(ref_grs, Exception):
            assert type(grs) is type(ref_grs) and str(grs) == str(ref_grs)
        else:
            # Either path is exact to about eps cond(Sigma), which exceeds
            # 1e-10 where T is barely above n + k + 1.
            eigs = np.linalg.eigvalsh(ref.sigma_mle)
            rtol = max(1e-10, 10.0 * np.finfo(float).eps * eigs[-1] / eigs[0])
            assert grs[0] == pytest.approx(ref_grs[0], rel=rtol, abs=1e-300)
            # A tiny p-value carries the statistic's relative error times
            # |d ln p / d ln stat|, which exceeds 100 at p ~ 1e-60.
            dof2 = ref.T - ref.n - ref.k
            shifted = f_cdf_upper(ref_grs[0] * (1.0 + rtol), ref.n, dof2)
            if ref_grs[1] > 0.0:
                rtol += abs(shifted / ref_grs[1] - 1.0)
            assert grs[1] == pytest.approx(ref_grs[1], rel=rtol, abs=1e-300)


@st.composite
def _panels_and_models(draw):
    k = draw(st.integers(1, 4))
    names = [f"F{j + 1}" for j in range(k)]
    subsets = draw(st.lists(st.lists(st.sampled_from(names), min_size=1,
                                     max_size=k, unique=True),
                            min_size=1, max_size=4))
    if draw(st.booleans()):
        subsets.append(names[::-1])     # the union itself, in another order
    if draw(st.booleans()):
        subsets.append(subsets[0])      # the same factors twice
    models = [ModelSpec(f"M{i}", tuple(s)) for i, s in enumerate(subsets)]
    dataset = _factor_panel_dataset(draw(st.integers(0, 2**32 - 1)),
                                    T=draw(st.integers(4, 60)),
                                    n=draw(st.integers(1, 12)), k=k)
    return dataset, models


class TestFitModels:
    @settings(max_examples=150, deadline=None)
    @given(case=_panels_and_models())
    def test_matches_one_model_at_a_time(self, case):
        dataset, models = case
        _assert_same_outcomes(_outcomes(_fit_models(dataset, models)),
                              _outcomes(direct_fits(dataset, models)))

    def test_one_model_and_union_use_no_n_by_n_fit(self):
        dataset = _factor_panel_dataset(5, T=120, n=10, k=3)
        for models in ([ModelSpec("ONE", ("F2",))],
                       [ModelSpec("U", ("F3", "F1", "F2")), ModelSpec("S", ("F1",))]):
            got = _outcomes(_fit_models(dataset, models))
            assert all(fit.sigma_mle is None for fit, _ in got)
            _assert_same_outcomes(got, _outcomes(direct_fits(dataset, models)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_cross_product_identity(self, seed):
        # S_S = S_U + B_r C_S B_r' with C_S = G_rr - G_rs G_ss^{-1} G_sr,
        # against E_S'E_S from a least-squares fit of the model alone.
        dataset = _factor_panel_dataset(seed, T=90, n=7, k=4, extra=False)
        returns = dataset.portfolios.values
        design = np.column_stack([np.ones(90), dataset.factors.values])
        union_coef = np.linalg.lstsq(design, returns, rcond=None)[0]
        resid_u = returns - design @ union_coef
        gram = design.T @ design
        s, r = [0, 1, 3], [2, 4]
        c_s = gram[np.ix_(r, r)] - gram[np.ix_(r, s)] @ np.linalg.solve(
            gram[np.ix_(s, s)], gram[np.ix_(s, r)])
        b_r = union_coef[r].T
        design_s = design[:, s]
        resid_s = returns - design_s @ np.linalg.lstsq(design_s, returns, rcond=None)[0]
        want = resid_s.T @ resid_s
        identity = resid_u.T @ resid_u + b_r @ c_s @ b_r.T
        _assert_close(identity, want, rtol=1e-11)
        (fit, _), = _fit_models(dataset, [ModelSpec("S", ("F1", "F3"))])
        _assert_close(fit.resid_var * 90, np.diag(want), rtol=1e-11)

    def test_grs_no_less_accurate_than_direct_at_large_loadings(self):
        # Loadings on the factors a small model drops are 1000x: against a
        # 50-digit reference the union's projection form keeps the GRS
        # statistic as accurate as one Cholesky of the model's own Sigma.
        mpmath = pytest.importorskip("mpmath")
        models = [ModelSpec("M1", ("F1",)), ModelSpec("M2", ("F1", "F2")),
                  ModelSpec("U", ("F1", "F2", "F3", "F4"))]
        with mpmath.workdps(50):
            for seed in range(3):
                dataset = _factor_panel_dataset(seed, T=80, n=10, k=4,
                                                loading_scale=1000.0, extra=False)
                for (fit, grs), model in zip(_fit_models(dataset, models), models):
                    assert fit.sigma_mle is None
                    want = _mp_grs_stat(mpmath, dataset, model)
                    direct, _ = grs_test(fit_ols(dataset, model))
                    fast_err = abs(mpmath.mpf(grs[0]) / want - 1)
                    direct_err = abs(mpmath.mpf(direct) / want - 1)
                    assert fast_err <= max(direct_err, 1e-11)


def _mp_grs_stat(mpmath, dataset, model):
    """GRS statistic from exact OLS in mpmath at the working precision."""
    factors = dataset.factors.select(model.factor_names)
    T, k = factors.shape
    n = dataset.portfolios.values.shape[1]
    x = mpmath.matrix([[1.0, *row] for row in factors.tolist()])
    returns = mpmath.matrix(dataset.portfolios.values.tolist())
    coef = mpmath.inverse(x.T * x) * (x.T * returns)
    resid = returns - x * coef
    alpha = coef[0, :].T
    quad = (alpha.T * mpmath.lu_solve(resid.T * resid / T, alpha))[0]
    f = mpmath.matrix(factors.tolist())
    mean = mpmath.matrix([sum(f[t, j] for t in range(T)) / T for j in range(k)])
    centered = f - mpmath.matrix([[mean[j] for j in range(k)] for _ in range(T)])
    sh2 = (mean.T * mpmath.lu_solve(centered.T * centered / T, mean))[0]
    return mpmath.mpf(T - n - k) / n * quad / (1 + sh2)


@pytest.fixture
def spies(monkeypatch):
    """Record the model of every fit_ols call, count grs_test calls and
    record the size of every Cholesky factorization and the shape of every
    solve_lower call made through factordist.regression."""
    import factordist.regression as regression

    calls = {"fit_ols": [], "grs_test": 0, "chol_sizes": [], "solve_lower": []}
    real_fit, real_grs, real_chol, real_solve = (
        regression.fit_ols, regression.grs_test, regression.cholesky_spd,
        regression.solve_lower)

    def fit_spy(dataset, model):
        calls["fit_ols"].append(model.name)
        return real_fit(dataset, model)

    def grs_spy(fit):
        calls["grs_test"] += 1
        return real_grs(fit)

    def chol_spy(m, *args, **kwargs):
        calls["chol_sizes"].append(np.shape(m)[0])
        return real_chol(m, *args, **kwargs)

    def solve_spy(lower, b):
        calls["solve_lower"].append(np.shape(b))
        return real_solve(lower, b)

    monkeypatch.setattr(regression, "fit_ols", fit_spy)
    monkeypatch.setattr(regression, "grs_test", grs_spy)
    monkeypatch.setattr(regression, "cholesky_spd", chol_spy)
    monkeypatch.setattr(regression, "solve_lower", solve_spy)
    return calls


def _with_columns(dataset, **columns):
    """The dataset with factor columns added (name=values)."""
    factors = dataset.factors
    names = factors.names + tuple(columns)
    values = np.column_stack([factors.values, *columns.values()])
    return Dataset(dataset.portfolios, ReturnsPanel(factors.dates, names, values))


class TestFitModelsFallback:
    def test_nested_models_share_one_residual_covariance(self, spies):
        # Six nested models: one fit_ols (the union's, so one residual cross
        # product), no grs_test, the only n x n Cholesky is the union's, and
        # one forward substitution of [alpha_U, B_U] serves every GRS.
        n, k = 30, 6
        dataset = _factor_panel_dataset(3, T=200, n=n, k=k, extra=False)
        models = [ModelSpec(f"M{j}", tuple(f"F{i + 1}" for i in range(j)))
                  for j in range(1, k + 1)]
        got = _outcomes(_fit_models(dataset, models))
        assert spies["fit_ols"] == ["union"] and spies["grs_test"] == 0
        assert spies["chol_sizes"].count(n) == 1
        assert spies["solve_lower"] == [(n, k + 1)]
        assert all(isinstance(grs, tuple) for _, grs in got)
        _assert_same_outcomes(got, _outcomes(direct_fits(dataset, models)))

    def test_collinear_across_models_takes_the_direct_path(self, spies):
        # F1 and 2 F1 each fit alone; their union is rank deficient.
        dataset = _factor_panel_dataset(4, T=100, n=6, k=1, extra=False)
        dataset = _with_columns(dataset, F2=2.0 * dataset.factors.column("F1"))
        models = [ModelSpec("ONE", ("F1",)), ModelSpec("TWO", ("F2",))]
        got = _outcomes(_fit_models(dataset, models))
        assert spies["fit_ols"] == ["union", "ONE", "TWO"]
        assert spies["grs_test"] == 2
        assert all(fit.sigma_mle is not None for fit, _ in got)
        _assert_same_outcomes(got, _outcomes(direct_fits(dataset, models)))

    def test_singular_union_covariance_still_reports_small_model_grs(self, spies):
        # T - K - 1 < n <= T - k - 1: Sigma_U is singular, the small model's
        # own Sigma is not, and its GRS comes from the direct path. On these
        # data LAPACK's Cholesky of Sigma_U passes its pivot test on
        # roundoff, so no Cholesky of Sigma_U is tried at all.
        T, n = 14, 12
        dataset = _factor_panel_dataset(5, T=T, n=n, k=2, extra=False)
        models = [ModelSpec("SMALL", ("F1",)), ModelSpec("BIG", ("F1", "F2"))]
        got = _outcomes(_fit_models(dataset, models))
        (small, small_grs), (big, big_grs) = got
        assert isinstance(small_grs, tuple) and small.sigma_mle is not None
        assert isinstance(big_grs, DegenerateDoFError) and big.sigma_mle is None
        assert spies["fit_ols"] == ["union", "SMALL"] and spies["grs_test"] == 1
        assert spies["chol_sizes"].count(n) == 1   # the small model's own
        assert small_grs == grs_test(fit_ols(dataset, models[0]))
        _assert_same_outcomes(got, _outcomes(direct_fits(dataset, models)))

    def test_failed_union_cholesky_keeps_the_models_message(self, spies):
        # Asset EXACT is priced without error: Sigma_U and the model's Sigma
        # are both singular, and the reason names the model's own pivot.
        dataset = _factor_panel_dataset(7, T=80, n=4, k=2, extra=False)
        f1 = dataset.factors.column("F1")
        ports = dataset.portfolios
        values = np.column_stack([ports.values, 0.25 + 2.0 * f1])
        dataset = Dataset(ReturnsPanel(ports.dates, ports.names + ("EXACT",), values),
                          dataset.factors)
        models = [ModelSpec("ONE", ("F1",)), ModelSpec("BOTH", ("F1", "F2"))]
        got = _outcomes(_fit_models(dataset, models))
        assert all(isinstance(grs, SingularResidualCovError) for _, grs in got)
        assert spies["grs_test"] == 2
        _assert_same_outcomes(got, _outcomes(direct_fits(dataset, models)))

    def test_small_union_pivot_defers_to_the_models_threshold(self, spies):
        # Asset A0 is almost exactly priced by F1 and F2: L_U's smallest
        # pivot passes Sigma_U's threshold but not the larger
        # CHOL_PIVOT_REL tr Sigma_S / n of the model that drops F2.
        from factordist.linalg import CHOL_PIVOT_REL

        T, n = 120, 3
        rng = np.random.default_rng(8)
        f = rng.normal(0.5, 4.0, (T, 2))
        returns = 0.1 + f @ np.array([[2.0, 5.0]] * n).T + rng.normal(0.0, 2.0, (T, n))
        returns[:, 0] = 0.25 + f @ [2.0, 5.0] + rng.normal(0.0, 1e-6, T)
        dataset = Dataset(
            panel_from_columns({f"A{i}": returns[:, i] for i in range(n)}),
            panel_from_columns({"F1": f[:, 0], "F2": f[:, 1]}))
        models = [ModelSpec("BOTH", ("F1", "F2")), ModelSpec("ONE", ("F1",))]
        sigma_u = fit_ols(dataset, models[0]).sigma_mle
        pivot = float(np.diag(np.linalg.cholesky(sigma_u)).min() ** 2)
        trace_s = float(np.trace(fit_ols(dataset, models[1]).sigma_mle))
        assert CHOL_PIVOT_REL * np.trace(sigma_u) / n < pivot <= CHOL_PIVOT_REL * trace_s / n
        spies.update(fit_ols=[], chol_sizes=[])
        got = _outcomes(_fit_models(dataset, models))
        assert got[0][0].sigma_mle is None and got[1][0].sigma_mle is not None
        assert spies["fit_ols"] == ["union", "ONE"] and spies["grs_test"] == 1
        _assert_same_outcomes(got, _outcomes(direct_fits(dataset, models)))

    def test_undefined_grs_reason_is_unchanged(self, spies):
        # T - n - k < 1 for every model: the reason grs_test gives, no
        # model's own fit and no n x n Cholesky.
        T, n = 20, 19
        dataset = _factor_panel_dataset(9, T=T, n=n, k=2)
        models = [ModelSpec("ONE", ("F1",)), ModelSpec("BOTH", ("F1", "F2"))]
        got = _outcomes(_fit_models(dataset, models))
        assert [str(grs) for _, grs in got] == [
            f"T - n - k = {T} - {n} - 1 = 0 < 1", f"T - n - k = {T} - {n} - 2 = -1 < 1"]
        assert spies["fit_ols"] == ["union"] and spies["grs_test"] == 0
        assert n not in spies["chol_sizes"]
        _assert_same_outcomes(got, _outcomes(direct_fits(dataset, models)))

    @pytest.mark.parametrize("bad", ["unknown", "collinear", "short"])
    def test_failing_model_raises_in_its_turn(self, bad):
        # Earlier models are yielded before a later model's fit_ols error.
        dataset = _factor_panel_dataset(10, T=40, n=45, k=2)
        if bad == "collinear":
            dataset = _with_columns(dataset, F3=2.0 * dataset.factors.column("F1"))
            failing = ModelSpec("BAD", ("F1", "F3"))
        elif bad == "unknown":
            failing = ModelSpec("BAD", ("NOPE",))
        else:
            dataset = Dataset(dataset.portfolios.restrict(dataset.portfolios.dates[:4]),
                              dataset.factors.restrict(dataset.factors.dates[:4]))
            dataset = _with_columns(dataset, **{f"G{j}": np.arange(4.0) ** j
                                                for j in range(2, 5)})
            failing = ModelSpec("BAD", ("F1", "G2", "G3"))
        models = [ModelSpec("ONE", ("F1",)), failing, ModelSpec("BOTH", ("F1", "F2"))]
        got = _outcomes(_fit_models(dataset, models))
        want = _outcomes(direct_fits(dataset, models))
        assert len(got) == 2 and isinstance(got[1], FactorDistError)
        _assert_same_outcomes(got, want)
