"""Tests of the benchmark itself (not collected by the package's test suite).

Run from the repository root::

    python3 -m pytest benchmarks/selftest.py -q

The traced-run tests start ``benchmarks/run.py --trace 1`` on every
workload with a one-second measurement and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from oracle import CheckError, EquivCheck, Oracle, RankCheck, SweepCheck  # noqa: E402
from workloads import (  # noqa: E402
    FULL_SUBSET, WORKLOADS, Workload, cli_args, nested_models, subset_models,
    write_inputs,
)

SMALL = {
    "rank": (Workload("rank-small", "rank", 30, 200, nested_models(), ()),
             RankCheck),
    "sweep": (Workload("sweep-small", "sweep", 30, 200, nested_models(),
                       ("--grid", "0,2,4")),
              lambda o: SweepCheck(o, [0.0, 2.0, 4.0])),
    "equiv": (Workload("equiv-small", "equiv", 10, 200, subset_models(),
                       ("--benchmark", FULL_SUBSET)),
              lambda o: EquivCheck(o, FULL_SUBSET)),
}
# File, column and digit (counted from the end) to perturb. equiv.csv's
# ad_at_star is only pinned to 1e-6 by the solver, so it gets a digit that
# moves it by 1e-4.
PERTURB = {"rank": ("report.csv", "AD", 1), "sweep": ("sweep.csv", "AD", 1),
           "equiv": ("equiv.csv", "ad_at_star", 3)}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", ["equiv-paper", "sweep-mid"])
def test_inputs_are_byte_deterministic_per_seed(tmp_path, name):
    workload = WORKLOADS[name]
    first = write_inputs(workload, 7, tmp_path / "a")
    again = write_inputs(workload, 7, tmp_path / "b")
    other = write_inputs(workload, 8, tmp_path / "c")
    for key in first:
        assert first[key].read_bytes() == again[key].read_bytes()
    assert first["portfolios"].read_bytes() != other["portfolios"].read_bytes()


@pytest.fixture(params=sorted(SMALL))
def checked_output(request, tmp_path):
    """A CLI output directory that passes its oracle check, and the check."""
    from factordist.cli import main

    workload, make_check = SMALL[request.param]
    paths = write_inputs(workload, 3, tmp_path / "in")
    out = tmp_path / "out"
    assert main([*cli_args(workload, paths), "--out", str(out)]) == 0
    check = make_check(Oracle(paths, workload.models))
    check.check(out)
    return out, check, PERTURB[request.param]


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def test_oracle_rejects_one_perturbed_digit(checked_output):
    out, check, (name, column, from_end) = checked_output

    def perturb(lines):
        col = lines[1].rstrip("\n").split(",").index(column)
        row = next(i for i, line in enumerate(lines) if i > 1 and line.split(",")[col])
        fields = lines[row].rstrip("\n").split(",")
        mantissa, e, exponent = fields[col].partition("e")
        i = [k for k, c in enumerate(mantissa) if c.isdigit()][-from_end]
        digit = str((int(mantissa[i]) + 1) % 10)
        fields[col] = mantissa[:i] + digit + mantissa[i + 1:] + e + exponent
        lines[row] = ",".join(fields) + "\n"
        return lines

    _rewrite(out / name, perturb)
    with pytest.raises(CheckError):
        check.check(out)


def test_oracle_rejects_a_dropped_row(checked_output):
    out, check, (name, _, _) = checked_output
    _rewrite(out / name, lambda lines: lines[:2] + lines[3:])
    with pytest.raises(CheckError):
        check.check(out)


@pytest.fixture(scope="module")
def traced():
    """Per-layer results of two traced runs per workload, one second each."""
    results = {}
    for name in WORKLOADS:
        for attempt in range(2):
            proc = run_bench("--workload", name, "--seed", "5", "--seconds", "1",
                             "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            results[name, attempt] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def test_traced_runs_pass_their_checks(traced):
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"]["trace.layer_coverage"]["value"] >= 0.9


def test_every_per_layer_metric_is_nonzero_somewhere(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["per_layer"]:
        assert any(r["metrics"][metric["name"]]["value"] != 0
                   for r in traced.values()), metric["name"]


def test_counts_repeat_across_traced_runs(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in ("count", "bytes")]
    for name in WORKLOADS:
        first, second = traced[name, 0]["metrics"], traced[name, 1]["metrics"]
        assert {c: first[c] for c in counts} == {c: second[c] for c in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "equiv-paper", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
