"""Byte identity of every CLI output against another commit.

    python tools/same_outputs.py BASE

Exports the commit BASE with ``git archive``, writes the inputs once, and
runs one fixed matrix of ``factordist`` commands with the sources of BASE and
with those of this checkout's working tree, under ``OPENBLAS_NUM_THREADS`` 1
and 2. Each run's exit code, stdout, stderr and every file it writes must be
the same bytes for both trees. Prints one line per run that differs and
exits 1 if any does.

The matrix: the three benchmark workloads at seeds 1-3; ``sweep`` and
``equiv`` on the n = 800 ``rank-wide`` inputs; ``equiv`` of the 62 factor
subsets at n = 300; ``sweep`` on the ``equiv-paper`` inputs, with the default
grid and an extreme one; ``equiv`` with ``--bracket-hi`` 0.5 and 1e60; a short
panel (n > T, so no GRS) and one with collinear factors; ``synth``; and runs
with no data, which end in the parser or before any input is read:
``--version``, ``--help``, each command's ``--help``, ``rank`` without its
data options, an unknown command, ``equiv --bracket-hi abc`` and
``sweep --grid 2,1``. The benchmark inputs come from
``benchmarks/workloads.py``, read, not changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXTREME_GRID = "0,1e-200,0.5,1e3,1e60,inf"
THREADS = ("1", "2")


def _export(commit: str, dest: Path) -> None:
    """The tree of ``commit`` under ``dest``."""
    tar = dest.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", f"--output={tar}",
                    commit], check=True)
    dest.mkdir()
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest)], check=True)
    tar.unlink()


def _data(paths: dict[str, Path]) -> list[str]:
    return ["--portfolios", str(paths["portfolios"]), "--factors", str(paths["factors"]),
            "--models", str(paths["models"])]


def _small_panel(directory: Path, T: int, n: int, models: str,
                 collinear: bool = False) -> dict[str, Path]:
    """A ``synth`` panel with two factors, with F3 = 2 F1 added if
    ``collinear``, and a model file."""
    from factordist.cli import main

    with contextlib.redirect_stderr(io.StringIO()):  # the short panel's warning
        code = main(["synth", "--out", str(directory), "--T", str(T), "--n", str(n),
                     "--k", "2", "--seed", "5", "--alpha", "0.1"])
    if code:
        raise RuntimeError(f"synth exited {code} for {directory}")
    paths = {"portfolios": directory / "portfolios.csv",
             "factors": directory / "factors.csv", "models": directory / "models.txt"}
    if collinear:
        lines = paths["factors"].read_text(encoding="utf-8").splitlines()
        rows = [lines[0], lines[1] + ",F3"]
        rows += [f"{line},{2.0 * float(line.split(',')[1])!r}" for line in lines[2:]]
        paths["factors"].write_text("\n".join(rows) + "\n", encoding="utf-8")
    paths["models"].write_text(models, encoding="utf-8")
    return paths


def matrix(inputs: Path) -> list[tuple[str, list[str]]]:
    """(label, arguments after ``factordist`` except ``--out``) of every run,
    after writing its inputs under ``inputs``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from workloads import FULL_SUBSET, WORKLOADS, Workload, cli_args, subset_models, write_inputs

    runs, first = [], {}
    for name, workload in WORKLOADS.items():
        for seed in (1, 2, 3):
            paths = write_inputs(workload, seed, inputs / f"{name}-{seed}")
            first.setdefault(name, paths)
            runs.append((f"{name} seed {seed}", cli_args(workload, paths)))
    wide, mid, paper = (_data(first[name]) for name in ("rank-wide", "sweep-mid", "equiv-paper"))
    augmented = Workload("equiv-augmented", "equiv", n=300, T=650, models=subset_models(),
                         extra_args=("--benchmark", FULL_SUBSET))
    runs += [
        ("n=800 sweep", ["sweep", *wide]),
        ("n=800 equiv", ["equiv", *wide, "--benchmark", "M6"]),
        ("n=300 equiv, 62 subsets",
         cli_args(augmented, write_inputs(augmented, 1, inputs / "equiv-augmented-1"))),
        ("equiv-paper sweep", ["sweep", *paper]),
        ("equiv-paper sweep, extreme grid", ["sweep", *paper, "--grid", EXTREME_GRID]),
        ("sweep-mid, extreme grid", ["sweep", *mid, "--grid", EXTREME_GRID]),
        *((f"equiv-paper --bracket-hi {hi}",
           ["equiv", *paper, "--benchmark", FULL_SUBSET, "--bracket-hi", hi])
          for hi in ("0.5", "1e60")),
    ]
    three = "ONE = F1\nTWO = F2\nBOTH = F1,F2\n"
    short = _data(_small_panel(inputs / "short", T=30, n=40, models=three))
    collinear = _data(_small_panel(inputs / "collinear", T=120, n=8, collinear=True,
                                   models="ONE = F1\nTHREE = F3\nBOTH = F1,F2\n"))
    for label, data in (("short", short), ("collinear", collinear)):
        runs += [(f"{label} rank", ["rank", *data]), (f"{label} sweep", ["sweep", *data]),
                 (f"{label} equiv", ["equiv", *data, "--benchmark", "BOTH"])]
    deficient = _small_panel(inputs / "deficient", T=120, n=8, collinear=True,
                             models="ONE = F1\nBAD = F1,F3\n")
    runs += [
        ("rank-deficient model", ["rank", *_data(deficient)]),
        ("synth", ["synth", "--T", "120", "--n", "5", "--k", "2", "--seed", "1"]),
        ("synth, short sample", ["synth", "--T", "60", "--n", "80", "--k", "2"]),
        ("synth --alpha inf", ["synth", "--alpha", "inf"]),
        ("--version", ["--version"]),
        ("--help", ["--help"]),
        *((f"{command} --help", [command, "--help"])
          for command in ("rank", "sweep", "equiv", "synth")),
        ("rank without data options", ["rank"]),
        ("unknown command", ["no-such-command"]),
        ("equiv --bracket-hi abc", ["equiv", "--bracket-hi", "abc"]),
        ("sweep --grid 2,1 without data", ["sweep", "--grid", "2,1"]),
    ]
    return runs


def run(src: Path, argv: list[str], threads: str, cwd: Path):
    """Exit code, stdout, stderr and the files written of one CLI run."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "factordist.cli", *argv, "--out", "out"],
                          cwd=cwd, env=env, capture_output=True, timeout=600)
    files = {str(p.relative_to(cwd)): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return done.returncode, done.stdout, done.stderr, files


def differences(base, head) -> list[str]:
    """What differs between two results of :func:`run`."""
    (code_b, out_b, err_b, files_b), (code_h, out_h, err_h, files_h) = base, head
    found = [f"exit code {code_b} -> {code_h}"] if code_b != code_h else []
    found += [name for name, b, h in (("stdout", out_b, out_h), ("stderr", err_b, err_h))
              if b != h]
    found += [name for name in sorted(files_b.keys() | files_h.keys())
              if files_b.get(name) != files_h.get(name)]
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="commit to compare this checkout with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        _export(args.base, tmp / "base")
        runs = matrix(tmp / "inputs")
        trees = {"base": tmp / "base" / "src", "head": ROOT / "src"}
        differing, codes = 0, Counter()
        for i, (label, cli_argv) in enumerate(runs):
            for threads in THREADS:
                base, head = [run(src, cli_argv, threads, tmp / "runs" / f"{i}-{threads}-{tree}")
                              for tree, src in trees.items()]
                codes[head[0]] += 1
                found = differences(base, head)
                if found:
                    differing += 1
                    print(f"DIFFERS {label} (OPENBLAS_NUM_THREADS={threads}): "
                          + ", ".join(found))
    total = len(runs) * len(THREADS)
    print(f"{total - differing} of {total} runs identical to {args.base}; exit codes here: "
          + ", ".join(f"{code} x {count}" for code, count in sorted(codes.items())))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
