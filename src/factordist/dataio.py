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

Both are UTF-8 text (a BOM is skipped). A series or model name holding ``,``
or ``"`` (it would break the CSV rows it is written to) and a byte that is
not UTF-8 are each a ``ParseError`` naming its line. Each line is checked as
it is read, so of several malformed lines the earliest is reported.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateDateError,
    DuplicateModelNameError,
    EmptyPanelError,
    MissingRiskfreeError,
    NoOverlapError,
    NonFiniteError,
    ParseError,
)

DEFAULT_MISSING_CODES = (-99.99, -999.0)
# A byte that is not UTF-8, as the surrogateescape error handler decodes it.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


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


def load_panel(path: str | Path,
               missing_codes: Sequence[float] = DEFAULT_MISSING_CODES) -> ReturnsPanel:
    """Parse a returns CSV into a panel, dropping missing-coded rows.

    Rows containing any value in ``missing_codes`` are excluded entirely;
    remaining rows keep their original order. Lines are checked as they
    stream in and all values parsed by one ``np.loadtxt``; of several
    malformed lines, the earliest is reported, at any file size.

    Raises
    ------
    ParseError
        Malformed header, date, or value, a series name holding ``,`` or
        ``"``, a byte that is not UTF-8, a non-finite value in a kept row,
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
    try:
        for lineno, line in _lines(path):
            if not line.strip(" \t\n\r\f\v,") or line.lstrip().startswith("#"):
                continue
            if names is None:
                header = next(csv.reader([line]))
                if len(header) < 2:
                    raise ParseError(f"{path}:{lineno}: header needs a date column "
                                     "and at least one series")
                names = tuple(_check_name(path, lineno, c.strip()) for c in header[1:])
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


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    """Numbered lines of a UTF-8 text file, read once; a line holding a byte
    that is not UTF-8 is a ParseError when it is reached."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and (bad := _ESCAPED_BYTE.search(line)):
                raise ParseError(f"{path}:{lineno}: byte 0x{ord(bad[0]) - 0xdc00:02x} "
                                 "is not UTF-8")
            yield lineno, line


def _check_name(path: Path, lineno: int, name: str) -> str:
    """``name``, unless it holds ',' or '"' and so would break a CSV row."""
    if "," in name or '"' in name:
        raise ParseError(f"{path}:{lineno}: name {name!r} holds ',' or '\"'")
    return name


def load_models(path: str | Path) -> list[ModelSpec]:
    """Parse a model-definition file in file order.

    Raises
    ------
    ParseError
        Malformed line (missing ``=``, empty factor list, repeated factor,
        a name holding ``,`` or ``"``, a byte that is not UTF-8).
    DuplicateModelNameError
        Two entries share a model name.
    """
    path = Path(path)
    specs: list[ModelSpec] = []
    seen: set[str] = set()
    for lineno, raw in _lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'NAME = F1,F2,...'")
        name, _, factors = line.partition("=")
        name = _check_name(path, lineno, name.strip())
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
    NonFiniteError
        An excess return overflows.
    """
    if riskfree_name not in factors.names:
        raise MissingRiskfreeError(
            f"risk-free column {riskfree_name!r} not in factor panel "
            f"(columns: {', '.join(factors.names)})"
        )
    ports, facts = _on_common_dates([portfolios, factors], "portfolio and factor panels")
    with np.errstate(over="ignore"):
        excess = ports.values - facts.column(riskfree_name)[:, None]
    bad = np.flatnonzero(~np.isfinite(excess).all(axis=1))
    if bad.size:
        raise NonFiniteError(f"excess return overflows at {ports.dates[bad[0]]}")
    keep = [n for n in facts.names if n != riskfree_name]
    return Dataset(portfolios=ReturnsPanel(ports.dates, ports.names, excess),
                   factors=ReturnsPanel(facts.dates, tuple(keep), facts.select(keep)))


def _on_common_dates(panels: Sequence[ReturnsPanel], what: str) -> list[ReturnsPanel]:
    """The panels restricted to the dates they all hold; NoOverlapError if none."""
    common = sorted(set(panels[0].dates).intersection(*(p.dates for p in panels[1:])))
    if not common:
        raise NoOverlapError(f"{what} share no dates")
    return [p.restrict(common) for p in panels]


def concat_panels(panels: Sequence[ReturnsPanel]) -> ReturnsPanel:
    """Column-concatenate panels on their common dates.

    Duplicate column names get a deterministic numeric suffix so augmented
    cross sections built from several files stay addressable.
    """
    if not panels:
        raise ValueError("no panels to concatenate")
    if len(panels) == 1:
        return panels[0]
    aligned = _on_common_dates(panels, "panels")
    names: list[str] = []
    used: set[str] = set()
    for name in (n for p in aligned for n in p.names):
        candidate, suffix = name, 2
        while candidate in used:
            candidate, suffix = f"{name}_{suffix}", suffix + 1
        used.add(candidate)
        names.append(candidate)
    values = np.hstack([p.values for p in aligned])
    return ReturnsPanel(aligned[0].dates, tuple(names), values)


def month_range(start: int, count: int) -> tuple[int, ...]:
    """``count`` consecutive YYYYMM months starting at ``start``."""
    if not 1 <= start % 100 <= 12:
        raise ValueError(f"{start} is not a valid YYYYMM")
    first = start // 100 * 12 + start % 100 - 1  # months since January of year 0
    return tuple(m // 12 * 100 + m % 12 + 1 for m in range(first, first + count))
