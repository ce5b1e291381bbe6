"""Independent numpy oracle for the CLI outputs of every workload.

The oracle reads the same input CSVs as the program, refits each model with
``numpy.linalg.lstsq`` and rebuilds the data-based (skeptic) posterior
moments from their closed form. It never imports ``factordist``.

A printed value passes when it is the 6-significant-digit rendering of the
oracle value, or of a value within ``REL_SLACK`` of it (so a tie at a
rounding boundary may go either way). A single changed digit fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_SLACK = 1e-8
# equiv.solve_equiv stops once |AD - target| <= 1e-6; the printed AD adds
# at most half a unit in the sixth significant digit.
EQUIV_AD_TOL = 1e-6
ROUND_REL = 5e-6


class CheckError(Exception):
    """An output file disagrees with the oracle."""


def fmt(value: float) -> str:
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".6g")


def accepted(value: float, scale: float = 0.0) -> frozenset[str]:
    """Renderings of every value within the oracle's slack of ``value``."""
    d = REL_SLACK * max(abs(value), scale)
    return frozenset({fmt(value - d), fmt(value), fmt(value + d)})


def read_returns(path: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(column names, YYYYMM dates, values) of a returns CSV."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    names = lines[0].strip().split(",")[1:]
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return names, table[:, 0].astype(int), table[:, 1:]


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV written by the CLI (metadata line skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@dataclass(frozen=True)
class ModelStats:
    """Oracle statistics of one model on the workload's cross section."""

    name: str
    k: int
    alpha: np.ndarray
    se: np.ndarray
    td: float
    ad: float
    rmse_alpha: float
    rmse_sigma: float
    ratio_var: float
    grs: float


class Oracle:
    """Expected outputs of one workload's inputs."""

    def __init__(self, paths: dict[str, Path], models, rf: str = "RF"):
        port_names, port_dates, ports = read_returns(paths["portfolios"])
        fac_names, fac_dates, facs = read_returns(paths["factors"])
        if not np.array_equal(port_dates, fac_dates):
            raise ValueError("oracle expects inputs on identical dates")
        returns = ports - facs[:, [fac_names.index(rf)]]
        self.assets = port_names
        self.T, self.n = returns.shape
        self.models = {
            name: self._fit(name, returns, facs[:, [fac_names.index(f) for f in fs]])
            for name, fs in models
        }
        self.order = sorted(self.models, key=lambda m: (self.models[m].ad,
                                                        self.models[m].td, m))

    def _fit(self, name: str, returns: np.ndarray, factors: np.ndarray) -> ModelStats:
        T, n = returns.shape
        k = factors.shape[1]
        design = np.column_stack([np.ones(T), factors])
        coef = np.linalg.lstsq(design, returns, rcond=None)[0]
        alpha = coef[0]
        resid = returns - design @ coef
        mu = factors.mean(axis=0)
        centered = factors - mu
        sh2 = float(mu @ np.linalg.solve(centered.T @ centered / T, mu))
        ssr = (resid**2).sum(axis=0)
        s2 = ssr.mean() / T
        var = (1.0 + sh2) / T / (T + 1) * (s2 + ssr)
        alpha_sq, var_sum = float(alpha @ alpha), float(var.sum())
        td = math.sqrt(alpha_sq + var_sum)
        grs = math.nan
        if T - n - k >= 1:
            quad = float(alpha @ np.linalg.solve(resid.T @ resid / T, alpha))
            grs = (T - n - k) / n * quad / (1.0 + sh2)
        return ModelStats(
            name=name, k=k, alpha=alpha, se=np.sqrt(var), td=td,
            ad=td / math.sqrt(n), rmse_alpha=math.sqrt(alpha_sq / n),
            rmse_sigma=math.sqrt(var_sum / n),
            ratio_var=var_sum / alpha_sq if alpha_sq > 0.0 else math.inf, grs=grs,
        )


def _columns(header: list[str], wanted: tuple[str, ...], where: str) -> list[int]:
    missing = [c for c in wanted if c not in header]
    if missing:
        raise CheckError(f"{where}: missing columns {missing}")
    return [header.index(c) for c in wanted]


class RankCheck:
    """``report.csv`` and ``marginal_<model>.csv`` against the oracle."""

    REPORT = ("model", "n", "T", "k", "TD", "AD", "RMSE_alpha", "RMSE_sigma",
              "ratio_var", "GRS")
    MARGINAL = ("asset", "alpha", "sigma_alpha", "t_stat", "marginal")

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.report_rows = []
        for name in oracle.order:
            m = oracle.models[name]
            self.report_rows.append((
                {name}, {str(oracle.n)}, {str(oracle.T)}, {str(m.k)},
                accepted(m.td), accepted(m.ad), accepted(m.rmse_alpha),
                accepted(m.rmse_sigma), accepted(m.ratio_var), accepted(m.grs),
            ))
        self.marginal = {}
        for name, m in oracle.models.items():
            a_scale = float(np.abs(m.alpha).max())
            tstat = m.alpha / m.se
            t_scale = float(np.abs(tstat).max())
            self.marginal[name] = [
                ({asset}, accepted(a, a_scale), accepted(s), accepted(t, t_scale),
                 accepted(math.hypot(a, s)))
                for asset, a, s, t in zip(oracle.assets, m.alpha, m.se, tstat)
            ]

    def files(self) -> list[str]:
        return ["report.csv", *(f"marginal_{name}.csv" for name in self.oracle.models)]

    def check(self, out_dir: Path) -> None:
        _compare(out_dir / "report.csv", self.REPORT, self.report_rows)
        for name, rows in self.marginal.items():
            _compare(out_dir / f"marginal_{name}.csv", self.MARGINAL, rows)


def _compare(path: Path, columns: tuple[str, ...], expected: list[tuple]) -> None:
    header, rows = read_csv(path)
    idx = _columns(header, columns, path.name)
    if len(rows) != len(expected):
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {len(expected)}")
    for lineno, (row, want) in enumerate(zip(rows, expected), start=3):
        for col, i, ok in zip(columns, idx, want):
            if row[i] not in ok:
                raise CheckError(f"{path.name}:{lineno}: {col}={row[i]}, "
                                 f"expected one of {sorted(ok)}")


class SweepCheck:
    """``sweep.csv``: grid, AD split, monotone AD, and the sigma = 0 row."""

    COLUMNS = ("model", "sigma_alpha_annual", "AD", "RMSE_alpha", "RMSE_sigma")

    def __init__(self, oracle: Oracle, grid: list[float]):
        self.oracle = oracle
        self.grid = [fmt(g) for g in grid]
        self.zero = {name: (accepted(m.ad), accepted(m.rmse_alpha),
                            accepted(m.rmse_sigma))
                     for name, m in oracle.models.items()}

    def files(self) -> list[str]:
        return ["sweep.csv"]

    def check(self, out_dir: Path) -> None:
        header, rows = read_csv(out_dir / "sweep.csv")
        im, isig, iad, ia, isg = _columns(header, self.COLUMNS, "sweep.csv")
        expected = [(name, g) for name in self.oracle.models for g in self.grid]
        if len(rows) != len(expected):
            raise CheckError(f"sweep.csv: {len(rows)} rows, expected {len(expected)}")
        prev_ad = {}
        for lineno, (row, (name, g)) in enumerate(zip(rows, expected), start=3):
            where = f"sweep.csv:{lineno}"
            if (row[im], row[isig]) != (name, g):
                raise CheckError(f"{where}: row ({row[im]}, {row[isig]}), "
                                 f"expected ({name}, {g})")
            ad, a, s = float(row[iad]), float(row[ia]), float(row[isg])
            if abs(ad * ad - (a * a + s * s)) > 6 * ROUND_REL * ad * ad:
                raise CheckError(f"{where}: AD^2 != RMSE_alpha^2 + RMSE_sigma^2")
            if name in prev_ad and ad > prev_ad[name]:
                raise CheckError(f"{where}: AD rose from {prev_ad[name]} to {ad}")
            prev_ad[name] = ad
            if float(g) == 0.0:
                for col, i, ok in zip(self.COLUMNS[2:], (iad, ia, isg), self.zero[name]):
                    if row[i] not in ok:
                        raise CheckError(f"{where}: {col}={row[i]} at sigma 0, "
                                         f"expected one of {sorted(ok)}")


class EquivCheck:
    """``equiv.csv``: target AD on solved rows and not-bracketed rows."""

    COLUMNS = ("alt_model", "benchmark_model", "ad_at_star", "converged", "status")

    def __init__(self, oracle: Oracle, benchmark: str):
        self.oracle = oracle
        self.benchmark = benchmark
        self.target = oracle.models[benchmark].ad
        self.alternatives = [m for m in oracle.models if m != benchmark]

    def files(self) -> list[str]:
        return ["equiv.csv"]

    def check(self, out_dir: Path) -> None:
        header, rows = read_csv(out_dir / "equiv.csv")
        ialt, ibench, iad, iconv, istat = _columns(header, self.COLUMNS, "equiv.csv")
        if [row[ialt] for row in rows] != self.alternatives:
            raise CheckError("equiv.csv: alternatives missing or out of order")
        tol = EQUIV_AD_TOL + ROUND_REL * self.target
        for lineno, row in enumerate(rows, start=3):
            where = f"equiv.csv:{lineno}"
            alt_ad = self.oracle.models[row[ialt]].ad
            if row[ibench] != self.benchmark:
                raise CheckError(f"{where}: benchmark {row[ibench]}")
            # not_bracketed is also right above the target when the AD at the
            # upper bracket stays above it, which the oracle does not model.
            if row[istat] == "not_bracketed":
                continue
            if row[istat] != "ok":
                raise CheckError(f"{where}: status {row[istat]}")
            if row[iconv] != "true" or abs(float(row[iad]) - self.target) > tol:
                raise CheckError(f"{where}: ad_at_star={row[iad]} converged="
                                 f"{row[iconv]}, target {self.target:.9g}")
            if alt_ad < self.target - tol:
                raise CheckError(f"{where}: solved although the dogmatic AD "
                                 f"{alt_ad:.9g} is below the target")
