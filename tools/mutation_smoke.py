"""Oracle-strength smoke check: each one-line mutant must fail its tests.

Copies the checkout once into a temporary directory, then for each mutant
replaces one line of source text in the copy, runs the named tests there
with ``-x`` and requires pytest to report failing tests (exit code 1). The
copy holds the whole checkout because ``pyproject.toml`` puts its own ``src``
first on ``sys.path``, ahead of any ``PYTHONPATH``. A mutant whose original
text is not found exactly once in its file fails the check, so the list
cannot go stale silently.

    python tools/mutation_smoke.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/factordist/"

# (name, file, original text, mutated text, test files or test ids that must fail)
MUTANTS = (
    ("QUAD_HI_MARGIN 39 -> 8", PKG + "linalg.py",
     "QUAD_HI_MARGIN = 39.0", "QUAD_HI_MARGIN = 8.0",
     ["tests/test_linalg.py", "tests/test_bayes.py"]),
    ("QUAD_LO_MARGIN 13 -> 3", PKG + "linalg.py",
     "QUAD_LO_MARGIN = 13.0", "QUAD_LO_MARGIN = 3.0",
     ["tests/test_linalg.py", "tests/test_bayes.py"]),
    ("QUAD_STEP 0.25 -> 0.6", PKG + "linalg.py",
     "QUAD_STEP = 0.25", "QUAD_STEP = 0.6",
     ["tests/test_linalg.py", "tests/test_bayes.py"]),
    ("LANCZOS_PROBES cut to [1.0]", PKG + "linalg.py",
     "LANCZOS_PROBES = np.array([1.0, 1e-3, 1e-6, 1e-9])",
     "LANCZOS_PROBES = np.array([1.0])",
     ["tests/test_bayes.py"]),
    ("LANCZOS_STOP_REL 1e-12 -> 1e-6", PKG + "linalg.py",
     "LANCZOS_STOP_REL = 1e-12", "LANCZOS_STOP_REL = 1e-6",
     ["tests/test_bayes.py"]),
    ("MONOTONE_SLACK 1e-10 -> 1e-3", PKG + "equiv.py",
     "MONOTONE_SLACK = 1e-10", "MONOTONE_SLACK = 1e-3",
     ["tests/test_equiv.py"]),
    ("a stack block's results written to its rows reversed", PKG + "linalg.py",
     "out[rows] = factor", "out[rows[::-1]] = factor",
     ["tests/test_linalg.py::TestQuadratureStack::test_each_row_is_its_own_1d_sum"]),
    ("eigh/Lanczos crossover moved up by one", PKG + "linalg.py",
     "if n >= GAUSS_RULE_MIN_N and v.any():", "if n > GAUSS_RULE_MIN_N and v.any():",
     ["tests/test_grouped.py"]),
    ("exhausted Krylov space never detected", PKG + "linalg.py",
     "exhausted = beta <= ulps * top", "exhausted = False",
     ["tests/test_linalg.py::TestGaussRule::test_exhausted_krylov_space_gives_the_exact_measure"]),
    ("e = (1 - c) / 2", PKG + "bayes.py",
     "e = one_minus_c / (1.0 + root_c)", "e = one_minus_c / 2.0",
     ["tests/test_bayes.py"]),
    ("GRS quadratic form without |y - QQ'y|^2", PKG + "metrics.py",
     "quad = float(perp @ perp) + float(", "quad = 0.0 + float(",
     ["tests/test_regression.py"]),
    ("derived coefficients without the Frisch-Waugh-Lovell term", PKG + "regression.py",
     "coef_u[s] + h @ coef_u[r]", "coef_u[s]",
     ["tests/test_grouped.py"]),
    ("Omega one ulp off symmetric", PKG + "regression.py",
     "factor_cov = centered.T @ centered / dataset.t_obs",
     "factor_cov = centered.T @ centered / dataset.t_obs; "
     "factor_cov[0, -1] = np.nextafter(factor_cov[0, -1], np.inf)",
     ["tests/test_cli.py::TestOneFittingPath::test_every_factored_matrix_is_bitwise_symmetric"]),
    ("cli imports a numeric module before parsing", PKG + "cli.py",
     "from . import __version__", "from . import __version__, bayes",
     ["tests/test_cli.py::test_command_loads_only_what_it_runs"]),
    ("output rollback leaves the old files aside", PKG + "cli.py",
     "os.rename(old, path)", "pass",
     ["tests/test_cli.py::TestRank::test_failed_rename_keeps_previous_outputs"]),
    ("the portfolio tags joined in reverse order", PKG + "cli.py",
     '"portfolios=" + ",".join(ports)', '"portfolios=" + ",".join(ports[::-1])',
     ["tests/test_cli.py::TestRank::test_multiple_portfolio_files_concatenate"]),
)

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".bench_work", "*.egg-info", "build")


def main() -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        for name, rel, old, new, tests in MUTANTS:
            path = copy / rel
            source = path.read_text(encoding="utf-8")
            if source.count(old) != 1:
                print(f"STALE   {name}: {old!r} is not in {rel} exactly once")
                failed += 1
                continue
            path.write_text(source.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=copy, env=env, capture_output=True, text=True, timeout=600)
            path.write_text(source, encoding="utf-8")
            seconds = time.perf_counter() - start
            if run.returncode == 1:
                print(f"caught  {name} ({seconds:.1f} s)")
            else:
                print(f"MISSED  {name}: pytest exit code {run.returncode} ({seconds:.1f} s)")
                print(run.stdout[-2000:] + run.stderr[-2000:])
                failed += 1
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
