
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factordist import (
    Dataset,
    ModelSpec,
    PosteriorFamily,
    ReturnsPanel,
    SweepRow,
    f_cdf_upper,
    fit_ols,
    grs_test,
    sharpe_sq,
    skeptic_moments,
    sweep,
)
from factordist.errors import (
    DegenerateDoFError,
    FactorDistError,
    InsufficientSampleError,
    NonFiniteError,
    NotPDError,
    RankDeficientError,
    SingularFactorCovError,
    SingularResidualCovError,
    UnknownFactorError,
)
from factordist.linalg import LANCZOS_PROBES, cholesky_spd
from factordist.metrics import GRS_UNDEFINED
from factordist.regression import _fit_models

from conftest import (
    direct_fits,
    fake_fit,
    panel_from_columns,
    random_fit_inputs,
    remainder,
    sh2_of,
)


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

    def test_sums_of_squares_match_the_plain_formulas(self, rng):
        # sigma_mle keeps its bits; R^2, now the explained share, matches the
        # textbook 1 - SSR/SST to 1e-12 absolute (R^2 lies in [0, 1]).
        for T, n, k in ((37, 11, 1), (240, 30, 3)):
            dataset, model = random_fit_inputs(rng, T=T, n=n, k=k)
            fit = fit_ols(dataset, model)
            returns = dataset.portfolios.values
            design = np.column_stack([np.ones(T),
                                      dataset.factors.select(model.factor_names)])
            resid = returns - design @ np.vstack([fit.alpha_hat, fit.beta_hat.T])
            sst = ((returns - returns.mean(axis=0)) ** 2).sum(axis=0)
            np.testing.assert_array_equal(fit.sigma_mle, resid.T @ resid / T)
            np.testing.assert_allclose(fit.r2, 1.0 - (resid ** 2).sum(axis=0) / sst,
                                       rtol=0.0, atol=1e-12)

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

    @pytest.mark.parametrize("where", ["returns", "factor"])
    def test_overflowing_moments_raise(self, where):
        # Finite values whose squares overflow; no RuntimeWarning escapes.
        values = [0.1, 1e200, -0.3, 0.2] if where == "factor" else [0.1, 0.4, -0.3, 0.2]
        returns = [0.3, 0.5, 1e200, 0.1] if where == "returns" else [0.3, 0.5, 0.2, 0.1]
        ds = _tiny_dataset(values, returns)
        match = "residual or total" if where == "returns" else "cross products"
        with pytest.raises(NonFiniteError, match=match):
            fit_ols(ds, ModelSpec("M", ("F",)))


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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
           log10_cond=st.floats(0.0, 8.0), log10_scale=st.floats(-4.0, 4.0))
    def test_matches_dense_solve(self, seed, k, log10_cond, log10_scale):
        # Random SPD Omega = Q diag(lam) Q' with cond(Omega) = 10^log10_cond;
        # mu' Omega^{-1} mu both ways agrees to a relative 100 k cond eps.
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        lam = 10.0 ** (log10_scale + np.linspace(0.0, log10_cond, k))
        omega = (q * lam) @ q.T
        omega = (omega + omega.T) / 2.0
        mu = rng.normal(size=k) * np.sqrt(lam.max())
        fit = fake_fit(np.zeros(2), k=k)._replace(
            factor_mean=mu, factor_cov_mle=omega,
            sh2=sh2_of(omega, mu))
        want = float(mu @ np.linalg.solve(omega, mu))
        cond = 10.0 ** log10_cond
        assert sharpe_sq(fit) == pytest.approx(
            want, rel=100 * k * cond * np.finfo(float).eps)

    def test_nan_sh2_rechecks_the_factor_covariance(self):
        # A fit whose _assemble left Sh^2 NaN is rechecked by cholesky_spd,
        # and its pivot message names the singular factor covariance.
        omega = np.diag([1.0, 1e-20])
        fit = fake_fit(np.zeros(2), k=2)._replace(factor_cov_mle=omega, sh2=np.nan)
        with pytest.raises(NotPDError) as want:
            cholesky_spd(omega)
        with pytest.raises(SingularFactorCovError) as got:
            sharpe_sq(fit)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("pivot 1.000e-20 at column 1 is <= ")


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
            scaled = fit._replace(sigma_base=c * fit.sigma_base)
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
    """Every (fit, GRS result or the error it raised) of a _fit_models-style
    iterator, each GRS taken in its model's turn, then the first other error
    if any."""
    out = []
    try:
        for fit, grs in results:
            try:
                out.append((fit, grs()))
            except GRS_UNDEFINED as exc:
                out.append((fit, exc))
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
        _assert_close(fit.sigma_mle, ref.sigma_mle)
        np.testing.assert_array_equal(fit.sigma_mle, fit.sigma_mle.T)
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


SWEEP_GRID = [0.0, 1.0, 2.0, 4.0, 10.0, 100.0]


def _union_cond(dataset, models):
    """cond(X_U'X_U) for the union U of the models' factors."""
    union = sorted({name for m in models for name in m.factor_names})
    design = np.column_stack([np.ones(dataset.t_obs), dataset.factors.select(union)])
    return np.linalg.cond(design.T @ design)


def _assert_same_family(fit, ref, cond):
    """A family of a _fit_models fit against one of the model's own fit_ols.

    Sigma within eps cond(X_U'X_U) of its largest entry. R at the Lanczos
    stop rule's probes within rel, and in every SweepRow each distance within
    rel of the row's AD and ratio_var to match: rel is 1e-12, or 100 eps kappa
    where alpha_hat is ill-determined, with kappa = cond(X_U'X_U)
    max|coefficient| / max|alpha_hat| bounding alpha_hat's relative rounding.
    (On hypothesis's panels, T down to 4 and one asset, R came within 6 eps
    kappa.)
    """
    eps = np.finfo(float).eps
    sigma, want = fit.sigma_mle, ref.sigma_mle
    assert np.abs(sigma - want).max() <= 10.0 * eps * cond * float(np.abs(want).max())
    alpha = float(np.abs(ref.alpha_hat).max())
    kappa = cond * max(alpha, float(np.abs(ref.beta_hat).max())) / alpha
    rel = max(1e-12, 100.0 * eps * kappa)
    try:
        ref_family = PosteriorFamily(ref)
    except SingularFactorCovError:
        with pytest.raises(SingularFactorCovError):
            PosteriorFamily(fit)
        return
    family = PosteriorFamily(fit)
    for g in LANCZOS_PROBES / ref_family._u0:
        assert remainder(family._quad, g) == pytest.approx(
            remainder(ref_family._quad, g), rel=rel, abs=1e-300)
    for row, ref_row in zip(sweep(family, SWEEP_GRID), sweep(ref_family, SWEEP_GRID),
                            strict=True):
        # A distance near zero (one asset's trace term crosses zero) is only
        # as accurate as the row's AD; ratio_var = (RMSE_sigma / RMSE_alpha)^2.
        scale = rel * ref_row.ad
        assert list(SweepRow._fields) == [
            "sigma_alpha_annual", "ad", "rmse_alpha", "rmse_sigma", "ratio_var"]
        assert row.sigma_alpha_annual == ref_row.sigma_alpha_annual
        for name in ("ad", "rmse_alpha", "rmse_sigma"):
            assert getattr(row, name) == pytest.approx(getattr(ref_row, name), abs=scale), name
        assert row.ratio_var == pytest.approx(
            ref_row.ratio_var, rel=rel, abs=4 * scale * ref_row.ad**2 / ref_row.rmse_alpha**3)


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

    def test_one_model_and_union_use_no_n_by_n_fit(self, spies):
        # Every fit holds the union's Sigma_U and a term of the factors it drops.
        dataset = _factor_panel_dataset(5, T=120, n=10, k=3)
        for models in ([ModelSpec("ONE", ("F2",))],
                       [ModelSpec("U", ("F3", "F1", "F2")), ModelSpec("S", ("F1",))]):
            spies["fit_ols"].clear()
            got = _outcomes(_fit_models(dataset, models))
            assert spies["fit_ols"] == ["union"]
            width = len({f for m in models for f in m.factor_names})
            assert all(fit.sigma_base is got[0][0].sigma_base
                       and fit.sigma_loadings.shape == (10, width - fit.k)
                       for fit, _ in got)
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

    @settings(max_examples=100, deadline=None)
    @given(case=_panels_and_models())
    def test_families_match_one_model_at_a_time(self, case):
        dataset, models = case
        got = _outcomes(_fit_models(dataset, models))
        if got and isinstance(got[-1], Exception):
            got.pop()
        cond = _union_cond(dataset, models)
        for fit, _ in got:
            _assert_same_family(fit, fit_ols(dataset, fit.model), cond)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lanczos_families_match_one_model_at_a_time(self, seed):
        # n = 160 takes the Lanczos rule.
        dataset = _factor_panel_dataset(seed, T=400, n=160, k=4)
        models = [ModelSpec(f"M{j}", tuple(f"F{i + 1}" for i in range(j)))
                  for j in range(1, 5)]
        fits = [fit for fit, _ in _fit_models(dataset, models)]
        for fit in fits:
            _assert_same_family(fit, fit_ols(dataset, fit.model), _union_cond(dataset, models))
        # The union model's own fit comes out of the union bit for bit.
        assert sweep(PosteriorFamily(fits[-1]), SWEEP_GRID) == sweep(
            PosteriorFamily(fit_ols(dataset, models[-1])), SWEEP_GRID)

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
                got = _outcomes(_fit_models(dataset, models))
                for (fit, grs), model in zip(got, models):
                    assert fit.sigma_base is got[0][0].sigma_base
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
    solve_lower call made through factordist.regression and, for the GRS,
    factordist.metrics."""
    import factordist.linalg as linalg
    import factordist.metrics as metrics
    import factordist.regression as regression

    calls = {"fit_ols": [], "grs_test": 0, "chol_sizes": [], "solve_lower": []}
    real_fit, real_grs, real_chol, real_solve = (
        regression.fit_ols, metrics.grs_test, linalg.cholesky_spd, linalg.solve_lower)

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
    monkeypatch.setattr(metrics, "grs_test", grs_spy)
    for module in (regression, metrics):
        monkeypatch.setattr(module, "cholesky_spd", chol_spy)
        monkeypatch.setattr(module, "solve_lower", solve_spy)
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
        # one forward substitution of [alpha_U, B_U] serves every GRS (the
        # only solve with n rows; sharpe_sq's solves have k rows).
        n, k = 30, 6
        dataset = _factor_panel_dataset(3, T=200, n=n, k=k, extra=False)
        models = [ModelSpec(f"M{j}", tuple(f"F{i + 1}" for i in range(j)))
                  for j in range(1, k + 1)]
        got = _outcomes(_fit_models(dataset, models))
        assert spies["fit_ols"] == ["union"] and spies["grs_test"] == 0
        assert spies["chol_sizes"].count(n) == 1
        assert [shape for shape in spies["solve_lower"] if shape[0] == n] == [(n, k + 1)]
        assert all(isinstance(grs, tuple) for _, grs in got)
        _assert_same_outcomes(got, _outcomes(direct_fits(dataset, models)))

    @pytest.mark.parametrize("T, n, k", [(200, 30, 6), (14, 12, 2)], ids=["nested", "band"])
    def test_fits_alone_do_no_grs_work(self, spies, T, n, k):
        # Taking only the fits, as sweep and equiv do: the union's fit_ols,
        # no n x n Cholesky and no forward substitution with n rows (Sh^2's
        # have k rows), on nested models and in the band
        # T - K - 1 < n <= T - k - 1 alike.
        dataset = _factor_panel_dataset(11, T=T, n=n, k=k, extra=False)
        models = [ModelSpec(f"M{j}", tuple(f"F{i + 1}" for i in range(j)))
                  for j in range(1, k + 1)]
        pairs = list(_fit_models(dataset, models))
        assert spies["fit_ols"] == ["union"] and n not in spies["chol_sizes"]
        assert [shape for shape in spies["solve_lower"] if shape[0] == n] == []
        assert spies["grs_test"] == 0
        _assert_same_outcomes(_outcomes(pairs), _outcomes(direct_fits(dataset, models)))

    def test_collinear_across_models_takes_the_direct_path(self, spies):
        # F1 and 2 F1 each fit alone; their union is rank deficient.
        dataset = _factor_panel_dataset(4, T=100, n=6, k=1, extra=False)
        dataset = _with_columns(dataset, F2=2.0 * dataset.factors.column("F1"))
        models = [ModelSpec("ONE", ("F1",)), ModelSpec("TWO", ("F2",))]
        got = _outcomes(_fit_models(dataset, models))
        assert spies["fit_ols"] == ["union", "ONE", "TWO"]
        assert spies["grs_test"] == 2
        assert got[0][0].sigma_base is not got[1][0].sigma_base
        _assert_same_outcomes(got, _outcomes(direct_fits(dataset, models)))

    def test_model_rank_deficient_in_a_full_rank_union_takes_fit_ols_verdict(
            self, spies):
        # F2 = F1 + eps z (z orthogonal to 1 and F1) puts the last pivot of
        # the model's Gram at T eps^2 = 0.9 of its floor 1e-10 tr(G_ss) / 3,
        # tr(G_ss) = 3 T + T eps^2. The union's floor averages over one more
        # column, F3 of scale 1e-4, so the union passes where G_ss fails.
        T, rng = 200, np.random.default_rng(8)
        f1, z, f3 = rng.normal(size=(3, T))
        f1 = (f1 - f1.mean()) / f1.std()
        basis = np.column_stack([np.ones(T), f1])
        z -= basis @ np.linalg.lstsq(basis, z, rcond=None)[0]
        eps = np.sqrt(0.9e-10 / (1.0 - 0.3e-10)) / z.std()
        returns = _factor_panel_dataset(5, T=T, n=4, k=1, extra=False).portfolios
        dataset = Dataset(returns, panel_from_columns(
            {"F1": f1, "F2": f1 + eps * z, "F3": 1e-4 * f3}))
        models = [ModelSpec("NEAR", ("F1", "F2")), ModelSpec("OTHER", ("F1", "F3"))]
        got = _outcomes(_fit_models(dataset, models))
        assert spies["fit_ols"] == ["union", "NEAR"]
        assert len(got) == 1 and isinstance(got[0], RankDeficientError)
        # Its context is fit_ols's own NotPDError, which the union path's
        # failed sub-Gram Cholesky does not precede.
        assert got[0].__context__.__context__ is None
        _assert_same_outcomes(got, _outcomes(direct_fits(dataset, models)))

    def test_singular_union_covariance_still_reports_small_model_grs(self, spies):
        # T - K - 1 < n <= T - k - 1: Sigma_U is singular, the small model's
        # own Sigma is not, and its GRS comes from the direct path. On these
        # data LAPACK's Cholesky of Sigma_U passes its pivot test on
        # roundoff, so no Cholesky of Sigma_U is tried at all.
        T, n = 14, 12
        dataset = _factor_panel_dataset(5, T=T, n=n, k=2, extra=False)
        models = [ModelSpec("SMALL", ("F1",)), ModelSpec("BIG", ("F1", "F2"))]
        pairs = list(_fit_models(dataset, models))
        assert spies["fit_ols"] == ["union"]
        got = _outcomes(pairs)
        (small, small_grs), (big, big_grs) = got
        # Both hold the union's Sigma_U and a term of the factors they drop;
        # SMALL's own fit_ols runs only for its GRS.
        assert small.sigma_base is big.sigma_base and small.sigma_loadings.shape == (n, 1)
        assert isinstance(small_grs, tuple) and isinstance(big_grs, DegenerateDoFError)
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
        pairs = list(_fit_models(dataset, models))
        assert spies["fit_ols"] == ["union"]
        got = _outcomes(pairs)
        # ONE holds Sigma_U and a term for F2; its own fit_ols runs only for
        # its GRS.
        assert got[1][0].sigma_base is got[0][0].sigma_base
        assert got[1][0].sigma_loadings.shape == (n, 1)
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

    @pytest.mark.parametrize("bad", ["unknown", "collinear", "short", "overflow"])
    def test_failing_model_raises_in_its_turn(self, bad):
        # Earlier models are yielded before a later model's fit_ols error.
        dataset = _factor_panel_dataset(10, T=40, n=45, k=2)
        if bad == "collinear":
            dataset = _with_columns(dataset, F3=2.0 * dataset.factors.column("F1"))
            failing = ModelSpec("BAD", ("F1", "F3"))
        elif bad == "unknown":
            failing = ModelSpec("BAD", ("NOPE",))
        elif bad == "overflow":
            dataset = _with_columns(dataset, G=1e200 * dataset.factors.column("F2"))
            failing = ModelSpec("BAD", ("F1", "G"))
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
