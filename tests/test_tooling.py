import ast
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import factordist
from factordist.errors import ParseError

ROOT = Path(__file__).resolve().parents[1]

FAILING_GIVEN_TEST = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # Under the repository's pytest settings (warnings are errors), a failing
    # @given test must fail like any other test and show its example, not
    # crash pytest while hypothesis builds its failure report.
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fails.py").write_text(FAILING_GIVEN_TEST, encoding="utf-8")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


def test_every_exported_name_is_read():
    # A public name that nothing in the package reads, and that no acceptance
    # criterion tests, is dead code and goes with its tests.
    package = ROOT / "src" / "factordist"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    loaded = set()
    for path in [*sources, ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(set(factordist.__all__) - loaded) == []


FIELDS = {
    "ReturnsPanel": ("dates", "names", "values"),
    "ModelSpec": ("name", "factor_names"),
    "Dataset": ("portfolios", "factors"),
    "RegressionFit": ("model", "T", "n", "k", "alpha_hat", "beta_hat", "sigma_base",
                      "sigma_loadings", "sigma_core", "resid_var", "factor_mean",
                      "factor_cov_mle", "r2", "asset_mean", "sh2"),
    "GaussianDist": ("mean", "cov"),
    "DistanceBreakdown": ("td", "ad", "rmse_alpha", "rmse_sigma", "marginal", "ratio_var"),
    "SweepRow": ("sigma_alpha_annual", "ad", "rmse_alpha", "rmse_sigma", "ratio_var"),
    "EquivResult": ("alt_model", "sigma_star_annual", "ad_at_star", "iterations"),
    "MetricsReport": ("model_name", "n", "T", "k", "td", "ad", "rmse_alpha", "rmse_sigma",
                      "ratio_var", "grs", "grs_pvalue", "mae", "mae_over_ar", "mean_r2",
                      "marginal"),
    "SynthConfig": ("T", "n", "k", "true_alpha", "true_beta", "factor_mean", "factor_cov",
                    "resid_cov", "seed"),
}


def _panel(dates=(196301, 196302)):
    return factordist.ReturnsPanel(dates, ("A", "B"), np.ones((2, 2)))


# Per checked record: fields that it normalises, how it must hold them, and
# changes that it must reject with the exception it raises.
CHECKED = {
    "ReturnsPanel": (
        dict(dates=[np.int64(196301), 196302.0], names=["A", np.str_("B")],
             values=[[1, 2], [3, 4]]),
        lambda r: (type(r.dates) is tuple and all(type(d) is int for d in r.dates)
                   and type(r.names) is tuple and all(type(n) is str for n in r.names)
                   and r.values.dtype == np.float64),
        [(dict(dates=(196302, 196301)), ParseError),
         (dict(values=[[1.0, np.nan], [3.0, 4.0]]), ValueError),
         (dict(names=("A",)), ValueError)]),
    "ModelSpec": (
        dict(name="M", factor_names=["F1", "F2"]),
        lambda r: r.factor_names == ("F1", "F2"),
        [(dict(factor_names=()), ValueError), (dict(factor_names=["F1", "F1"]), ValueError)]),
    "Dataset": (
        dict(portfolios=_panel(), factors=_panel()),
        lambda r: r.t_obs == 2,
        [(dict(factors=_panel((196301, 196303))), ValueError)]),
    "GaussianDist": (
        dict(mean=[1, 2], cov=[[2, 1], [1, 2]]),
        lambda r: (r.mean.dtype == r.cov.dtype == np.float64 and r.mean.shape == (2,)
                   and r.dim == 2),
        [(dict(cov=[[np.nan, 0.0], [0.0, 1.0]]), ValueError),
         (dict(mean=[1.0, 2.0, 3.0]), ValueError)]),
}


@pytest.mark.parametrize("name", FIELDS)
def test_records_are_immutable_tuples_that_keep_their_checks(name):
    # Records are NamedTuples with these fields in this order, take no new or
    # changed attribute, and a checked record checks its fields through its
    # constructor and through _replace.
    cls = getattr(factordist, name)
    assert cls._fields == FIELDS[name]
    if name in CHECKED:
        fields, normalised, rejected = CHECKED[name]
        record = cls(**fields)
        assert normalised(record)
        for change, error in rejected:
            with pytest.raises(error):
                cls(**{**fields, **change})
            with pytest.raises(error):
                record._replace(**change)
    else:
        record = cls(*range(len(FIELDS[name])))
    assert type(record._replace()) is cls
    for attribute in (FIELDS[name][0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
