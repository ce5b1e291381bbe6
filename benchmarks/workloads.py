"""Benchmark workloads and their seeded input files.

Every workload draws one synthetic panel with ``factordist.synth.generate``
from the seed the benchmark is given and writes it in the package's CSV
convention. The program under test only ever sees the written files.

The ground truth is the same for all workloads except for its size:

* five priced factors F1..F5 with heterogeneous betas and nonzero alphas,
  so every dropped factor leaves a pricing error and the nested models
  M1..M6 get distinct average distances;
* a sixth factor F6 with a high Sharpe ratio that no asset loads on. It
  widens the posterior of every model that includes it, so models without
  it can sit below the full model; on ``equiv-paper`` those alternatives
  come out ``not_bracketed`` while most others bracket the benchmark;
* a dense residual covariance (one common residual factor plus noise);
* a nonzero risk-free column, so alignment subtracts something real.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FACTOR_MEAN = np.array([0.5, 0.25, 0.3, 0.25, 0.2, 0.8])
FACTOR_VOL = np.array([4.5, 3.0, 3.0, 2.0, 2.0, 1.0])
FACTORS = tuple(f"F{j + 1}" for j in range(len(FACTOR_MEAN)))


@dataclass(frozen=True)
class Workload:
    """One CLI command on one panel size, with its model file."""

    name: str
    command: str
    n: int
    T: int
    models: tuple[tuple[str, tuple[str, ...]], ...]
    extra_args: tuple[str, ...]


def nested_models() -> tuple[tuple[str, tuple[str, ...]], ...]:
    return tuple((f"M{k}", FACTORS[:k]) for k in range(1, len(FACTORS) + 1))


def subset_models() -> tuple[tuple[str, tuple[str, ...]], ...]:
    """All non-empty factor subsets, smallest first; the last is the full model."""
    return tuple(
        ("S" + "".join(f[1:] for f in combo), combo)
        for size in range(1, len(FACTORS) + 1)
        for combo in itertools.combinations(FACTORS, size)
    )


FULL_SUBSET = "S" + "".join(f[1:] for f in FACTORS)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "rank-wide", "rank", n=800, T=1200, models=nested_models(),
            extra_args=(),
        ),
        Workload(
            "sweep-mid", "sweep", n=300, T=650, models=nested_models(),
            extra_args=("--grid", "0,2,4,6,8,10"),
        ),
        Workload(
            "equiv-paper", "equiv", n=25, T=600, models=subset_models(),
            extra_args=("--benchmark", FULL_SUBSET),
        ),
    )
}


def _synth_config(n: int, T: int, seed: int):
    from factordist.synth import SynthConfig

    rng = np.random.default_rng([seed, n, T])
    k = len(FACTORS)
    beta = np.column_stack([
        rng.uniform(0.7, 1.3, n),
        rng.normal(0.3, 0.5, n),
        rng.normal(0.2, 0.4, n),
        rng.normal(0.6, 0.3, n),
        rng.normal(0.6, 0.3, n),
        np.zeros(n),
    ])
    common = rng.normal(0.8, 0.3, n)
    idio = rng.uniform(1.2, 2.5, n)
    return SynthConfig(
        T=T, n=n, k=k,
        true_alpha=rng.normal(0.05, 0.1, n),
        true_beta=beta,
        factor_mean=FACTOR_MEAN,
        factor_cov=np.diag(FACTOR_VOL**2),
        resid_cov=np.outer(common, common) + np.diag(idio**2),
        seed=seed,
    )


def _write_csv(path: Path, comment: str, names, dates, values) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        fh.write("date," + ",".join(names) + "\n")
        for date, row in zip(dates, values):
            fh.write(f"{date}," + ",".join(format(v, ".6g") for v in row) + "\n")


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write portfolios.csv, factors.csv and models.txt for one seed.

    The same workload and seed always give byte-identical files.
    """
    from factordist.synth import generate

    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate(_synth_config(workload.n, workload.T, seed))
    dates = dataset.portfolios.dates
    rf = 0.3 + 0.05 * np.random.default_rng([seed, 0]).standard_normal(len(dates))
    comment = f"benchmark input {workload.name} seed={seed}"
    paths = {
        "portfolios": out_dir / "portfolios.csv",
        "factors": out_dir / "factors.csv",
        "models": out_dir / "models.txt",
    }
    _write_csv(paths["portfolios"], comment, dataset.portfolios.names, dates,
               dataset.portfolios.values + rf[:, None])
    _write_csv(paths["factors"], comment, dataset.factors.names + ("RF",), dates,
               np.column_stack([dataset.factors.values, rf]))
    paths["models"].write_text(
        "".join(f"{name} = {','.join(fs)}\n" for name, fs in workload.models),
        encoding="utf-8",
    )
    return paths


def cli_args(workload: Workload, paths: dict[str, Path]) -> list[str]:
    """Arguments after ``factordist`` for one invocation, except ``--out``."""
    return [
        workload.command,
        "--portfolios", str(paths["portfolios"]),
        "--factors", str(paths["factors"]),
        "--models", str(paths["models"]),
        *workload.extra_args,
    ]
