import ast
import shutil
import subprocess
import sys
from pathlib import Path

import factordist

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
