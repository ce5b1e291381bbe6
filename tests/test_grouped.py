"""The fits that ``regression._fit_models`` derives from the union fit, and
``bayes.PosteriorFamily`` built on them, against per-model reference forms
written out here: every field of every fit, every Sh^2, and every family's
moments and quadrature table agree bit for bit on both sides of
``linalg.GAUSS_RULE_MIN_N``, and each model's error is raised in its turn."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factordist import linalg
from factordist.bayes import PosteriorFamily
from factordist.dataio import Dataset, ModelSpec
from factordist.errors import (
    FactorDistError,
    InsufficientSampleError,
    NonFiniteError,
    NotPDError,
    RankDeficientError,
    SingularFactorCovError,
    UnknownFactorError,
)
from factordist.linalg import RankOneQuadrature, cholesky_spd, solve_lower
from factordist.regression import RANK_PIVOT_REL, _fit_models, sharpe_sq

from conftest import panel_from_columns

FIELDS = ("alpha_hat", "beta_hat", "sigma_base", "sigma_loadings", "sigma_core",
          "resid_var", "factor_mean", "factor_cov_mle", "r2", "asset_mean", "sigma_mle")


def _ref_assemble(dataset, model, coef, sigma_base, loadings, core, resid_var, asset_mean):
    factors = dataset.factors.select(model.factor_names)
    factor_mean = factors.mean(axis=0)
    centered = factors - factor_mean
    factor_cov = centered.T @ centered / dataset.t_obs
    betas = coef[1:].T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        explained = ((betas @ factor_cov) * betas).sum(axis=1)
        total = explained + resid_var
        r2 = np.where(total > 0.0, explained / total, 1.0)
    if not np.isfinite(total).all():
        raise NonFiniteError(f"model {model.name!r}: returns too large: "
                             "residual or total sums of squares overflow")
    sigma = sigma_base
    if loadings.shape[1]:
        term = loadings @ core @ loadings.T
        sigma = sigma_base + (term + term.T) / 2.0
    return dict(model=model, T=dataset.t_obs, n=coef.shape[1], alpha_hat=coef[0].copy(),
                beta_hat=betas.copy(), sigma_base=sigma_base, sigma_loadings=loadings,
                sigma_core=core, resid_var=resid_var, factor_mean=factor_mean,
                factor_cov_mle=factor_cov, r2=r2, asset_mean=asset_mean, sigma_mle=sigma)


def _ref_fit_ols(dataset, model):
    for name in model.factor_names:
        if name not in dataset.factors.names:
            raise UnknownFactorError(
                f"model {model.name!r}: factor {name!r} not in factor panel")
    returns = dataset.portfolios.values
    design = np.column_stack([np.ones(dataset.t_obs),
                              dataset.factors.select(model.factor_names)])
    t_obs, n = returns.shape
    if t_obs < model.k + 2:
        raise InsufficientSampleError(
            f"T={t_obs} observations cannot identify k={model.k} factors plus intercept")
    with np.errstate(over="ignore"):
        gram = design.T @ design
    if not np.isfinite(gram).all():
        raise NonFiniteError(f"model {model.name!r}: factor returns too large: "
                             "their cross products overflow")
    try:
        lower = cholesky_spd(gram, pivot_tol_factor=RANK_PIVOT_REL)
    except NotPDError as exc:
        raise RankDeficientError(
            f"model {model.name!r}: collinear factor columns ({exc})") from None
    with np.errstate(over="ignore", invalid="ignore"):
        coef = np.linalg.solve(lower.T, np.linalg.solve(lower, design.T @ returns))
        resid = returns - design @ coef
        sigma = resid.T @ resid / t_obs
    return _ref_assemble(dataset, model, coef, sigma, np.empty((n, 0)), np.empty((0, 0)),
                         np.diag(sigma), returns.mean(axis=0))


def _ref_fits(dataset, models):
    """Each model's fit in its turn: derived from the union one model at a
    time, or the model's own fit where the union cannot vouch for it."""
    panel = set(dataset.factors.names)
    used = {name for m in models if panel.issuperset(m.factor_names)
            for name in m.factor_names}
    union = [name for name in dataset.factors.names if name in used]
    try:
        fit_u = _ref_fit_ols(dataset, ModelSpec("union", tuple(union)))
    except (InsufficientSampleError, RankDeficientError, NonFiniteError):
        fit_u = None
    design = np.column_stack([np.ones(dataset.t_obs), dataset.factors.select(union)])
    gram = design.T @ design
    column = {name: j for j, name in enumerate(union, start=1)}
    for model in models:
        lower = None
        if fit_u is not None and panel.issuperset(model.factor_names):
            s = [0, *(column[name] for name in model.factor_names)]
            try:
                lower = cholesky_spd(gram[np.ix_(s, s)], pivot_tol_factor=RANK_PIVOT_REL)
            except NotPDError:
                pass
        if lower is None:
            yield _ref_fit_ols(dataset, model)
            continue
        coef_u = np.vstack([fit_u["alpha_hat"], fit_u["beta_hat"].T])
        r = [j for j in range(1, len(union) + 1) if j not in s]
        v = np.linalg.solve(lower, gram[np.ix_(s, r)])
        schur = gram[np.ix_(r, r)] - v.T @ v
        h = np.linalg.solve(lower.T, v)
        b_r = coef_u[r].T
        with np.errstate(over="ignore", invalid="ignore"):
            resid_var = fit_u["resid_var"] + ((b_r @ schur) * b_r).sum(axis=1) / dataset.t_obs
        yield _ref_assemble(dataset, model, coef_u[s] + h @ coef_u[r], fit_u["sigma_base"],
                            b_r, schur / dataset.t_obs, resid_var, fit_u["asset_mean"])


def _ref_sharpe_sq(fit):
    try:
        lower = cholesky_spd(fit["factor_cov_mle"])
    except NotPDError as exc:
        raise SingularFactorCovError(str(exc)) from None
    z = solve_lower(lower, fit["factor_mean"])
    return float(z @ z)


def _ref_family(fit):
    """s^2, u0, b, |alpha_hat|^2, the skeptic variance sum and the table."""
    T, n, alpha = fit["T"], fit["n"], fit["alpha_hat"]
    s2 = float(fit["resid_var"].mean())
    u0 = (1.0 + _ref_sharpe_sq(fit)) / T
    with np.errstate(over="ignore"):
        var_sum = float(((s2 + T * fit["resid_var"]) * (u0 / (T + 1))).sum())
        alpha_sq = float(alpha @ alpha)
    name = fit["model"].name
    if not np.isfinite(alpha_sq + var_sum):
        raise NonFiniteError(f"model {name!r}: returns too large: the distance overflows")
    trace_a = n * s2 * (T + 1)
    if not np.isfinite(trace_a * max(trace_a, alpha_sq)):
        raise NonFiniteError(f"model {name!r}: returns too large: "
                             "the posterior's quadrature overflows")
    a = s2 * np.eye(n) + T * fit["sigma_mle"]
    rule = None
    if n >= linalg.GAUSS_RULE_MIN_N and alpha.any():
        rule = linalg._lanczos_rule(a, alpha, 1.0 / u0,
                                    int(linalg.LANCZOS_MAX_STEPS_REL * n))
    if rule is None:
        d, q = np.linalg.eigh(a)
        rule = d, (q.T @ alpha) ** 2
    return s2, u0, u0 / (T + 1), alpha_sq, var_sum, RankOneQuadrature(*rule, 1.0 / u0)


def _run(items, step=lambda item: item):
    """``step`` of each item until the first FactorDistError, which ends the list."""
    out = []
    try:
        for item in items:
            out.append(step(item))
    except FactorDistError as exc:
        out.append(exc)
    return out


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert (type(g), str(g)) == (type(w), str(w))
        elif isinstance(w, float):
            assert g == w
        elif isinstance(w, dict):
            assert (g.model, g.T, g.n, g.k) == (w["model"], w["T"], w["n"], w["model"].k)
            for name in FIELDS:
                np.testing.assert_array_equal(getattr(g, name), w[name], err_msg=name)
            _assert_same(_run([g], sharpe_sq), _run([w], _ref_sharpe_sq))
        else:
            quad, ref = g._quad, w[-1]
            assert (g.s2, g._u0, g._b, g._alpha_sq, g._var_sum) == w[:-1]
            for name in ("_s1", "_t3_s2", "_factor"):
                np.testing.assert_array_equal(getattr(quad, name), getattr(ref, name))


def _oracle_inputs(seed, T, n, scenario, masks):
    """F1, F2 = F1 + eps z with its model's last Gram pivot at 0.9 of that
    model's rank floor, F3 on a scale of 1e-4 and F4 to F6 with second
    moments below 1, so a union that holds F1 and F2 still passes its own
    floor; six factors give loading widths up to 5. Returns load on every
    factor but F2; under "overflow" they are F4 scaled so
    that every model dropping F4 overflows while the union does not. The
    models hold the factors of each mask's bits, plus: under "deficient",
    the repeated first model, a missing factor and F1 with F2 in a full-rank
    union; under "overflow", three models of k = 2 whose middle one drops F4.
    """
    rng = np.random.default_rng(seed)
    if scenario == "overflow":
        masks = [mask & ~2 | 8 for mask in masks]
    f1, z, f3 = rng.normal(size=(3, T))
    f1 = (f1 - f1.mean()) / f1.std()
    basis = np.column_stack([np.ones(T), f1])
    z -= basis @ np.linalg.lstsq(basis, z, rcond=None)[0]
    eps = np.sqrt(0.9e-10 / (1.0 - 0.3e-10)) / z.std()
    f4, f5, f6 = rng.normal(0.2, 0.8, (3, T))
    factors = {"F1": f1, "F2": f1 + eps * z, "F3": 1e-4 * f3, "F4": f4, "F5": f5, "F6": f6}
    if scenario == "overflow":
        # scale^2 T var(F4) = 4e308: past the largest float, which the
        # union's own sums of squares stay below.
        scale = 1e154 * np.sqrt(4.0 / (T * f4.var()))
        returns = scale * (f4[:, None] + rng.normal(0.0, 0.1, (T, n)))
    else:
        loadings = rng.normal(1.0, 0.5, (5, n)) * [[1.0], [1e4], [1.0], [1.0], [1.0]]
        returns = (rng.normal(0.0, 0.3, n) + np.column_stack([f1, f3, f4, f5, f6]) @ loadings
                   + rng.normal(0.0, 2.0, (T, n)))
    dataset = Dataset(panel_from_columns({f"A{i}": returns[:, i] for i in range(n)}),
                      panel_from_columns(factors))
    models = [ModelSpec(f"M{j}", tuple(f"F{i + 1}" for i in range(6) if mask >> i & 1))
              for j, mask in enumerate(masks)]
    specials = {"deficient": [models[0], ModelSpec("MISSING", ("F1", "NOPE")),
                              ModelSpec("NEAR", ("F1", "F2"))],
                "overflow": [ModelSpec("KEEPS", ("F1", "F4")), ModelSpec("DROPS", ("F1", "F3")),
                             ModelSpec("AFTER", ("F3", "F4"))]}.get(scenario, [])
    for model in specials:
        models.insert(int(rng.integers(len(models) + 1)), model)
    return dataset, models


# Factor subsets without both F1 and F2 (they meet only in the "deficient" model).
MASKS = st.sampled_from([m for m in range(1, 64) if m & 3 != 3])


class TestGroupedPassesMatchPerModelForms:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([1, 1, 3, 12, 25, linalg.GAUSS_RULE_MIN_N - 1,
                              linalg.GAUSS_RULE_MIN_N]),
           T=st.integers(8, 90),
           scenario=st.sampled_from(["plain", "deficient", "overflow"]),
           masks=st.lists(MASKS, min_size=1, max_size=12))
    @example(seed=3, n=25, T=60, scenario="overflow", masks=[1, 5, 9, 13, 12])
    @example(seed=4, n=linalg.GAUSS_RULE_MIN_N, T=40, scenario="plain",
             masks=[1, 4, 8, 12, 13, 9, 5, 2])
    @example(seed=5, n=linalg.GAUSS_RULE_MIN_N - 1, T=70, scenario="deficient",
             masks=[1, 4, 8, 12, 13, 9, 5, 2, 6])
    def test_fits_sharpe_and_families_bit_for_bit(self, seed, n, T, scenario, masks):
        dataset, models = _oracle_inputs(seed, T, n, scenario, masks)
        got = _run(fit for fit, _ in _fit_models(dataset, models))
        want = _run(_ref_fits(dataset, models))
        _assert_same(got, want)
        fits = [fit for fit in got if not isinstance(fit, Exception)]
        ended = got[len(fits):]

        def then_end():
            yield from fits
            for exc in ended:
                raise exc

        want_families = _run(want[:len(fits)], _ref_family)
        if not want_families or not isinstance(want_families[-1], Exception):
            want_families += ended
        _assert_same(_run(then_end(), PosteriorFamily), want_families)
        if scenario == "overflow":
            # The model that drops F4 fails in its turn, after those before it.
            assert isinstance(got[-1], NonFiniteError) and "'DROPS'" in str(got[-1])
