"""Shared synthetic-data helpers for the test suite.

Real-data checks run only when FACTORDIST_DATA_DIR points at a directory
with ``factors.csv`` (ten factor columns plus RF) and ``size_bm_25.csv``
in the package CSV convention, covering 1967:01-2016:12.
"""

import functools
import os
from pathlib import Path

import numpy as np
import pytest

from factordist import (
    Dataset,
    ModelSpec,
    RegressionFit,
    ReturnsPanel,
    SynthConfig,
    build_dataset,
    fit_ols,
    generate,
    grs_test,
    load_panel,
)
from factordist import linalg
from factordist.bayes import FamilyStack
from factordist.dataio import month_range
from factordist.linalg import QuadratureStack, cholesky_spd, solve_lower


def make_config(seed=42, T=600, n=5, k=1, alpha=0.15, beta=1.0,
                factor_mean=0.5, factor_vol=4.5, resid_vol=2.0):
    """One-factor-structure config with scalar knobs."""
    return SynthConfig(
        T=T, n=n, k=k,
        true_alpha=np.full(n, alpha),
        true_beta=np.full((n, k), beta),
        factor_mean=np.full(k, factor_mean),
        factor_cov=factor_vol**2 * np.eye(k),
        resid_cov=resid_vol**2 * np.eye(n),
        seed=seed,
    )


def make_dataset(seed=42, **kwargs):
    config = make_config(seed=seed, **kwargs)
    model = ModelSpec("SYN", tuple(f"F{j + 1}" for j in range(config.k)))
    return generate(config), model


def random_fit_inputs(rng, T=120, n=4, k=1):
    """Random dataset/model pair for property tests over many fits."""
    config = SynthConfig(
        T=T, n=n, k=k,
        true_alpha=rng.normal(0.0, 0.2, n),
        true_beta=rng.normal(1.0, 0.3, (n, k)),
        factor_mean=rng.normal(0.4, 0.2, k),
        factor_cov=np.diag(rng.uniform(2.0, 6.0, k)) ** 2,
        resid_cov=_random_spd(rng, n, scale=2.0),
        seed=int(rng.integers(0, 2**63 - 1)),
    )
    model = ModelSpec("RND", tuple(f"F{j + 1}" for j in range(k)))
    return generate(config), model


def _random_spd(rng, n, scale=1.0):
    a = rng.normal(0.0, scale, (n, n))
    return a @ a.T + scale**2 * 0.1 * np.eye(n)


def random_spd(rng, n, scale=1.0):
    return _random_spd(rng, n, scale)


def panel_from_columns(columns: dict, start=200001):
    """Small panel from {name: list-of-values}."""
    names = tuple(columns)
    values = np.column_stack([np.asarray(columns[n], dtype=float) for n in names])
    return ReturnsPanel(month_range(start, values.shape[0]), names, values)


def sh2_of(factor_cov, factor_mean):
    """Sh^2 = |L^{-1} mu|^2 with Omega = L L', the one-matrix form of
    ``regression._assemble``."""
    z = solve_lower(cholesky_spd(factor_cov), factor_mean)
    return float(z @ z)


def fake_fit(alpha, T=600, k=1, sigma_diag=None, asset_mean=None,
             model_name="FAKE"):
    """Hand-assembled RegressionFit for metric-level tests."""
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[0]
    sigma_diag = np.full(n, 1.0) if sigma_diag is None else np.asarray(sigma_diag, float)
    sigma = np.diag(sigma_diag)
    factor_mean = np.full(k, 0.5)
    factor_cov = 4.0 * np.eye(k)
    if asset_mean is None:
        asset_mean = alpha + 0.5
    return RegressionFit(
        model=ModelSpec(model_name, tuple(f"F{j + 1}" for j in range(k))),
        T=T, n=n, k=k,
        alpha_hat=alpha,
        beta_hat=np.ones((n, k)),
        sigma_base=sigma,
        sigma_loadings=np.empty((n, 0)),
        sigma_core=np.empty((0, 0)),
        resid_var=sigma_diag,
        factor_mean=factor_mean,
        factor_cov_mle=factor_cov,
        r2=np.full(n, 0.9),
        asset_mean=np.asarray(asset_mean, dtype=float),
        sh2=sh2_of(factor_cov, factor_mean),
    )


def wd2(family, sigma):
    """Squared mean shift and trace term of ``family`` at one sigma, from a
    one-row ``FamilyStack``."""
    mean_sq, trace_term = FamilyStack([family]).wd2_to_skeptic(np.array([float(sigma)]))
    return float(mean_sq[0]), float(trace_term[0])


def remainder(table, g):
    """R(g) of one quadrature table at one g, from a one-row ``QuadratureStack``."""
    return float(QuadratureStack([table]).remainder(np.array([float(g)]))[0])


def direct_fits(dataset, models):
    """``_fit_models`` one model at a time: each model's own fit_ols, and its
    grs_test when the GRS is asked for."""
    for model in models:
        fit = fit_ols(dataset, model)
        yield fit, functools.partial(grs_test, fit)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def built_tables(monkeypatch):
    """Every quadrature table ``linalg`` builds during the test, in order,
    each carrying the rule (theta, w) it was built from as ``rule``."""
    tables = []

    class Recorded(linalg.RankOneQuadrature):
        def __init__(self, theta, w, g_max):
            super().__init__(theta, w, g_max)
            self.rule = theta, w
            tables.append(self)

    monkeypatch.setattr(linalg, "RankOneQuadrature", Recorded)
    return tables


@pytest.fixture
def base_dataset():
    return make_dataset(seed=42)


SAMPLE_WINDOW = month_range(196701, 600)


def _data_dir():
    path = os.environ.get("FACTORDIST_DATA_DIR")
    if not path:
        pytest.skip("set FACTORDIST_DATA_DIR to run real-data checks")
    return Path(path)


def _restrict_to_window(dataset):
    window = set(SAMPLE_WINDOW)
    dates = [d for d in dataset.portfolios.dates if d in window]
    if len(dates) != len(SAMPLE_WINDOW):
        pytest.skip("supplied data does not cover 1967:01-2016:12")
    return Dataset(dataset.portfolios.restrict(dates),
                   dataset.factors.restrict(dates))


@pytest.fixture(scope="session")
def kenfrench_factors():
    panel = load_panel(_data_dir() / "factors.csv")
    window = set(SAMPLE_WINDOW)
    dates = [d for d in panel.dates if d in window]
    if len(dates) != len(SAMPLE_WINDOW):
        pytest.skip("supplied data does not cover 1967:01-2016:12")
    return panel.restrict(dates)


@pytest.fixture(scope="session")
def kenfrench_25_size_bm():
    data = _data_dir()
    factors = load_panel(data / "factors.csv")
    ports = load_panel(data / "size_bm_25.csv")
    return _restrict_to_window(build_dataset(ports, factors, "RF"))
