"""Ingestion and alignment of monthly return panels, plus model definitions.

File conventions
----------------
Returns CSV: header row ``date,<name>,...``; dates as YYYYMM integers; values
as decimal percent per month (``0.52`` means 0.52%), each an ASCII float such
as ``-0.5`` or ``1.2e-3``, optionally space-padded or double-quoted (``1_000``,
and ``nan`` or ``inf`` in a kept row, are rejected with their line number).
Lines starting with ``#`` are ignored, so files written by this package (which
carry a metadata comment line) re-ingest cleanly.

Model file: one model per line, ``NAME = F1,F2,...``; ``#`` starts a comment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateDateError,
    DuplicateModelNameError,
    EmptyPanelError,
    MissingRiskfreeError,
    NoOverlapError,
    ParseError,
)

DEFAULT_MISSING_CODES = (-99.99, -999.0)


@dataclass(frozen=True)
class ReturnsPanel:
    """Aligned monthly return matrix: T dates by m named columns, in percent.

    Dates are strictly increasing YYYYMM integers. Rows dropped during
    ingestion (missing-value codes) may leave calendar gaps; order is
    always preserved.
    """

    dates: tuple[int, ...]
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(int(d) for d in self.dates))
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(self.dates), len(self.names)):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{len(self.dates)} dates x {len(self.names)} names"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("panel values must be finite")
        for d in self.dates:
            if d < 101 or not 1 <= d % 100 <= 12:
                raise ParseError(f"{d} is not a valid YYYYMM month")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise ParseError(f"dates not strictly increasing at {prev} -> {cur}")
        object.__setattr__(self, "values", vals)

    @property
    def t_obs(self) -> int:
        return len(self.dates)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def select(self, names: Iterable[str]) -> np.ndarray:
        """Column submatrix in the order given."""
        idx = [self.names.index(n) for n in names]
        return self.values[:, idx]

    def restrict(self, dates: Sequence[int]) -> "ReturnsPanel":
        """Panel restricted to the given dates (which must all be present)."""
        pos = {d: i for i, d in enumerate(self.dates)}
        idx = [pos[d] for d in dates]
        return ReturnsPanel(tuple(dates), self.names, self.values[idx])


@dataclass(frozen=True)
class ModelSpec:
    """Named factor subset defining one asset-pricing model."""

    name: str
    factor_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "factor_names", tuple(self.factor_names))
        if not self.factor_names:
            raise ValueError(f"model {self.name!r} has no factors")
        if len(set(self.factor_names)) != len(self.factor_names):
            raise ValueError(f"model {self.name!r} lists a factor twice")

    @property
    def k(self) -> int:
        return len(self.factor_names)


@dataclass(frozen=True)
class Dataset:
    """Excess portfolio returns and factor returns on identical dates."""

    portfolios: ReturnsPanel
    factors: ReturnsPanel

    def __post_init__(self):
        if self.portfolios.dates != self.factors.dates:
            raise ValueError("portfolio and factor panels must share dates exactly")

    @property
    def t_obs(self) -> int:
        return self.portfolios.t_obs

    @property
    def n_assets(self) -> int:
        return len(self.portfolios.names)


def load_panel(path: str | Path,
               missing_codes: Sequence[float] = DEFAULT_MISSING_CODES) -> ReturnsPanel:
    """Parse a returns CSV into a panel, dropping missing-coded rows.

    Rows containing any value in ``missing_codes`` are excluded entirely;
    remaining rows keep their original order. Lines are checked as they
    stream in and all values parsed by one ``np.loadtxt``; of several
    malformed lines, the first is reported.

    Raises
    ------
    ParseError
        Malformed header, date, or value, a non-finite value in a kept row,
        or kept dates out of order (message carries the line number).
    DuplicateDateError
        The same YYYYMM appears twice.
    EmptyPanelError
        No data rows survive.
    """
    path = Path(path)
    names: tuple[str, ...] | None = None
    dates: list[int] = []
    linenos: list[int] = []
    lines: list[str] = []  # data lines, values unparsed
    seen: set[int] = set()
    failure: ParseError | DuplicateDateError | None = None
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip(" \t\n\r\f\v,") or line.lstrip().startswith("#"):
                    continue
                if names is None:
                    header = next(csv.reader([line]))
                    if len(header) < 2:
                        raise ParseError(f"{path}:{lineno}: header needs a date column "
                                         "and at least one series")
                    names = tuple(c.strip() for c in header[1:])
                    continue
                if line.count(",") != len(names):
                    raise ParseError(f"{path}:{lineno}: expected {len(names) + 1} "
                                     f"fields, got {line.count(',') + 1}")
                head = line[:line.index(",")]
                try:
                    date = int(head.strip().strip('"'))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad date {head!r}") from None
                if date < 101 or not 1 <= date % 100 <= 12:
                    raise ParseError(f"{path}:{lineno}: {date} is not a valid YYYYMM")
                dates.append(date)
                linenos.append(lineno)
                lines.append(line)
                if date in seen:
                    raise DuplicateDateError(f"{path}: duplicate date {date}")
                seen.add(date)
        except (ParseError, DuplicateDateError) as exc:
            failure = exc  # raised once the values of earlier lines are checked
    # loadtxt warns on empty input, so a header-only file skips it.
    values = _parse_values(path, lines, linenos, len(names)) if lines else np.empty((0, 0))
    if failure is not None:
        raise failure
    if names is None:
        raise ParseError(f"{path}: no header row found")
    kept = np.flatnonzero(~np.isin(values, missing_codes).any(axis=1))
    if not kept.size:
        raise EmptyPanelError(f"{path}: no usable rows after dropping missing codes")
    values, kept_dates = values[kept], np.asarray(dates)[kept]
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}:{linenos[kept[bad[0]]]}: non-finite value")
    bad = np.flatnonzero(np.diff(kept_dates) <= 0) + 1
    if bad.size:
        raise ParseError(f"{path}:{linenos[kept[bad[0]]]}: dates not strictly "
                         f"increasing at {kept_dates[bad[0] - 1]} -> {kept_dates[bad[0]]}")
    return ReturnsPanel(tuple(kept_dates.tolist()), names, values)


def _parse_values(path: Path, lines: list[str], linenos: list[int],
                  width: int) -> np.ndarray:
    """Fields 1..width of the data lines; ParseError names the first bad line."""
    def parse(chunk: list[str]) -> np.ndarray:
        return np.loadtxt(chunk, delimiter=",", quotechar='"', comments=None,
                          ndmin=2, usecols=range(1, width + 1))
    try:
        return parse(lines)
    except ValueError:
        for line, lineno in zip(lines, linenos):
            try:
                parse([line])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric value in row") from None
        raise


def load_models(path: str | Path) -> list[ModelSpec]:
    """Parse a model-definition file in file order.

    Raises
    ------
    ParseError
        Malformed line (missing ``=``, empty factor list, repeated factor).
    DuplicateModelNameError
        Two entries share a model name.
    """
    path = Path(path)
    specs: list[ModelSpec] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'NAME = F1,F2,...'")
            name, _, factors = line.partition("=")
            name = name.strip()
            factor_names = tuple(f.strip() for f in factors.split(",") if f.strip())
            if not name:
                raise ParseError(f"{path}:{lineno}: empty model name")
            if name in seen:
                raise DuplicateModelNameError(f"{path}:{lineno}: duplicate model "
                                              f"name {name!r}")
            seen.add(name)
            try:
                specs.append(ModelSpec(name, factor_names))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not specs:
        raise ParseError(f"{path}: no model definitions found")
    return specs


def build_dataset(portfolios: ReturnsPanel, factors: ReturnsPanel,
                  riskfree_name: str = "RF") -> Dataset:
    """Align panels on common dates and subtract the risk-free rate.

    The risk-free column is removed from the factor set; portfolio returns
    become excess returns.

    Raises
    ------
    MissingRiskfreeError
        ``riskfree_name`` is not a factor-panel column.
    NoOverlapError
        The panels share no dates.
    """
    if riskfree_name not in factors.names:
        raise MissingRiskfreeError(
            f"risk-free column {riskfree_name!r} not in factor panel "
            f"(columns: {', '.join(factors.names)})"
        )
    common = sorted(set(portfolios.dates) & set(factors.dates))
    if not common:
        raise NoOverlapError("portfolio and factor panels share no dates")
    ports = portfolios.restrict(common)
    facts = factors.restrict(common)
    rf = facts.column(riskfree_name)
    excess = ReturnsPanel(ports.dates, ports.names, ports.values - rf[:, None])
    keep = [n for n in facts.names if n != riskfree_name]
    factors_only = ReturnsPanel(facts.dates, tuple(keep), facts.select(keep))
    return Dataset(portfolios=excess, factors=factors_only)


def concat_panels(panels: Sequence[ReturnsPanel]) -> ReturnsPanel:
    """Column-concatenate panels on their common dates.

    Duplicate column names get a deterministic numeric suffix so augmented
    cross sections built from several files stay addressable.
    """
    if not panels:
        raise ValueError("no panels to concatenate")
    if len(panels) == 1:
        return panels[0]
    common: set[int] = set(panels[0].dates)
    for p in panels[1:]:
        common &= set(p.dates)
    if not common:
        raise NoOverlapError("panels share no dates")
    dates = sorted(common)
    aligned = [p.restrict(dates) for p in panels]
    names: list[str] = []
    used: set[str] = set()
    for p in aligned:
        for n in p.names:
            candidate = n
            suffix = 2
            while candidate in used:
                candidate = f"{n}_{suffix}"
                suffix += 1
            used.add(candidate)
            names.append(candidate)
    values = np.hstack([p.values for p in aligned])
    return ReturnsPanel(tuple(dates), tuple(names), values)


def month_range(start: int, count: int) -> tuple[int, ...]:
    """``count`` consecutive YYYYMM months starting at ``start``."""
    year, month = divmod(start, 100)
    if not 1 <= month <= 12:
        raise ValueError(f"{start} is not a valid YYYYMM")
    out = []
    for _ in range(count):
        out.append(year * 100 + month)
        month += 1
        if month > 12:
            month = 1
            year += 1
    return tuple(out)


def write_panel(panel: ReturnsPanel, path: str | Path,
                header_comment: str | None = None) -> None:
    """Write a panel in the returns-CSV convention (6 significant digits)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("date," + ",".join(panel.names) + "\n")
        for date, row in zip(panel.dates, panel.values):
            fh.write(str(date) + "," + ",".join(format(v, ".6g") for v in row) + "\n")
