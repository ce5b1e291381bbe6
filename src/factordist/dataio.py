"""Ingestion and alignment of monthly return panels, plus model definitions.

File conventions
----------------
Returns CSV: header row ``date,<name>,...``; dates as YYYYMM integers in
ASCII digits (no sign or ``_``), padded or quoted like a value; values
as decimal percent per month (``0.52`` means 0.52%), each an ASCII float such
as ``-0.5`` or ``1.2e-3``, optionally space-padded or double-quoted on one
line (``1_000``, a quote left open at the line end, and ``nan`` or ``inf`` in
a kept row, are rejected with their line number).
Lines starting with ``#`` are ignored, so files written by this package (which
carry a metadata comment line) re-ingest cleanly.

Model file: one model per line, ``NAME = F1,F2,...``; ``#`` starts a comment.

Both are UTF-8 text (a BOM is skipped). A series or model name holding ``,``
or ``"`` (it would break the CSV rows it is written to) and a byte that is
not UTF-8 are each a ``ParseError`` naming its line. Of several faulty lines
the earliest is reported, a non-finite value and kept dates out of order
included.
"""

from __future__ import annotations

import csv
import re
import warnings
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

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
# How np.loadtxt reads the fields of data lines, in the one pass or alone.
_VALUE_SYNTAX = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)
# A line whose quotes each wrap a whole field without a comma: loadtxt splits
# it at each comma and ends each row at its line end.
_PLAIN_QUOTES = re.compile(r'(?:"[^",]*"|[^",]*)(?:,(?:"[^",]*"|[^",]*))*\n?')


class _Checked:
    """Base of a record that checks its fields in ``__new__``: ``_replace``
    builds through ``_make``, so a changed copy is checked as a new record is."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _PanelFields(NamedTuple):
    dates: tuple[int, ...]
    names: tuple[str, ...]
    values: np.ndarray


class ReturnsPanel(_Checked, _PanelFields):
    """Aligned monthly return matrix: T dates by m named columns, in percent.

    Dates are strictly increasing YYYYMM integers. Rows dropped during
    ingestion (missing-value codes) may leave calendar gaps; order is
    always preserved.
    """

    __slots__ = ()

    def __new__(cls, dates, names, values):
        dates = tuple(int(d) for d in dates)
        names = tuple(str(n) for n in names)
        vals = np.asarray(values, dtype=float)
        if vals.shape != (len(dates), len(names)):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{len(dates)} dates x {len(names)} names"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("panel values must be finite")
        # An object array where a date is outside int64; all months fit.
        array = np.array(dates)
        bad = np.flatnonzero(~_is_month(array))
        if bad.size:
            raise ParseError(f"{dates[bad[0]]} is not a valid YYYYMM month")
        bad = np.flatnonzero(np.diff(array) <= 0)
        if bad.size:
            prev, cur = dates[bad[0]], dates[bad[0] + 1]
            raise ParseError(f"dates not strictly increasing at {prev} -> {cur}")
        return super().__new__(cls, dates, names, vals)

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


class _ModelFields(NamedTuple):
    name: str
    factor_names: tuple[str, ...]


class ModelSpec(_Checked, _ModelFields):
    """Named factor subset defining one asset-pricing model."""

    __slots__ = ()

    def __new__(cls, name, factor_names):
        factor_names = tuple(factor_names)
        if not factor_names:
            raise ValueError(f"model {name!r} has no factors")
        if len(set(factor_names)) != len(factor_names):
            raise ValueError(f"model {name!r} lists a factor twice")
        return super().__new__(cls, name, factor_names)

    @property
    def k(self) -> int:
        return len(self.factor_names)


class _DatasetFields(NamedTuple):
    portfolios: ReturnsPanel
    factors: ReturnsPanel


class Dataset(_Checked, _DatasetFields):
    """Excess portfolio returns and factor returns on identical dates."""

    __slots__ = ()

    def __new__(cls, portfolios, factors):
        if portfolios.dates != factors.dates:
            raise ValueError("portfolio and factor panels must share dates exactly")
        return super().__new__(cls, portfolios, factors)

    @property
    def t_obs(self) -> int:
        return self.portfolios.t_obs


def load_panel(path: str | Path,
               missing_codes: Sequence[float] = DEFAULT_MISSING_CODES) -> ReturnsPanel:
    """Parse a returns CSV into a panel, dropping missing-coded rows.

    Rows containing any value in ``missing_codes`` are excluded entirely;
    remaining rows keep their original order. The file is read in one pass
    over one handle: its data lines feed one ``np.loadtxt``, each checked as
    it is handed over, in the order fields, date, values, quote, duplicate
    date. The rows before the first faulty line are then checked as arrays
    for a kept row's rules, finiteness and date order, so the fault on the
    earliest line is reported. ``loadtxt`` converts each row before it reads
    the next line, so where it fails the fault is on the last line handed
    over; only then are the rows before that line read again.

    Raises
    ------
    ParseError
        Malformed header, date, or value, a quote not closed on its line, a
        series name holding ``,`` or ``"``, a byte that is not UTF-8, a
        non-finite value in a kept row,
        or kept dates out of order (message carries the line number).
    DuplicateDateError
        The same YYYYMM appears twice.
    EmptyPanelError
        No data rows survive.
    """
    path = Path(path)
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        names, rows, values, fault = _read(path, fh)
    coded = np.zeros(len(values), dtype=bool)
    for code in missing_codes:
        coded |= (values == code).any(axis=1)
    kept = np.flatnonzero(~coded)
    kept_dates = np.fromiter(rows, dtype=int, count=len(rows))[kept]
    finite = np.isfinite(values).all(axis=1)
    # A kept row's fault is on a line before the one the pass stopped at.
    faulty = ~finite[kept]
    faulty[1:] |= np.diff(kept_dates) <= 0
    if faulty.any():
        i = int(faulty.argmax())
        what = ("non-finite value" if not finite[kept[i]] else "dates not strictly "
                f"increasing at {kept_dates[i - 1]} -> {kept_dates[i]}")
        raise ParseError(f"{path}:{list(rows.values())[kept[i]]}: {what}")
    if fault is not None:
        raise fault
    if not kept.size:
        raise EmptyPanelError(f"{path}: no usable rows after dropping missing codes")
    if coded.any():
        values = values[kept]
    return ReturnsPanel(tuple(kept_dates.tolist()), names, values)


def _read(path: Path, fh: TextIO, end: int | None = None) -> tuple[
        tuple[str, ...], dict[int, int], np.ndarray, Exception | None]:
    """Series names, then the line number of each date and the values of the
    data rows of ``fh``, in file order, before its first line that breaks a
    line rule (or line ``end``), and that line's fault, ``None`` if none."""
    lines = _lines(path, fh)
    names = _header(path, lines)
    width = len(names)
    rows: dict[int, int] = {}
    fault = last = None

    def data_lines() -> Iterator[str]:
        nonlocal fault, last
        try:
            for lineno, line in lines:
                if lineno == end:
                    return
                if _skipped(line):
                    continue
                try:
                    date = _date(path, lineno, line[:line.find(",")])
                except ParseError:
                    date = None
                # Checked alone: a bad date, a quote not wrapping a whole field,
                # and the first row's width, which loadtxt holds later rows to.
                if (date is None or (last is None and line.count(",") != width)
                        or ('"' in line and not _PLAIN_QUOTES.fullmatch(line))):
                    line = _plain_line(path, lineno, line, width)
                last = lineno, line
                yield line
                # Asked for the next line, loadtxt has read this one's values.
                if date in rows:
                    raise DuplicateDateError(f"{path}: duplicate date {date}")
                rows[date] = lineno
        except (ParseError, DuplicateDateError) as exc:
            fault = exc

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file without data
            table = np.loadtxt(data_lines(), **_VALUE_SYNTAX)
    except ValueError:  # on the last line handed over; the rows before it are read again
        try:
            _plain_line(path, *last, width)
        except ParseError as exc:
            fault = exc
        else:
            raise
        fh.seek(0)
        _, rows, values, _ = _read(path, fh, end=last[0])
        return names, rows, values, fault
    # A duplicate date's line has a row in the table but no date.
    return names, rows, table[:len(rows), 1:], fault


def _plain_line(path: Path, lineno: int, line: str, width: int) -> str:
    """Data ``line`` as loadtxt reads it alone, as plain ``date,value,...`` text;
    a ParseError names its first fault, in the order fields, date, values, quote."""
    if line.count(",") != width:
        raise ParseError(f"{path}:{lineno}: expected {width + 1} "
                         f"fields, got {line.count(',') + 1}")
    date = _date(path, lineno, line[:line.index(",")])
    try:
        row = np.loadtxt([line], usecols=range(1, width + 1), **_VALUE_SYNTAX)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: non-numeric value in row") from None
    if line.count('"') % 2:  # loadtxt ends a quoted field left open at the line end
        raise ParseError(f"{path}:{lineno}: quote not closed")
    return ",".join([str(date), *map(repr, row[0].tolist())]) + "\n"


def _skipped(line: str) -> bool:
    """A blank, comma-only or ``#`` comment line, which ingest ignores."""
    return not line.strip(" \t\n\r\f\v,") or line.lstrip().startswith("#")


def _header(path: Path, lines: Iterator[tuple[int, str]]) -> tuple[str, ...]:
    """Series names of the first line in numbered ``lines`` not skipped; a
    name that breaks a CSV row or repeats an earlier one is a ParseError."""
    for lineno, line in lines:
        if not _skipped(line):
            header = next(csv.reader([line]))
            if len(header) < 2:
                raise ParseError(f"{path}:{lineno}: header needs a date column "
                                 "and at least one series")
            names = tuple(_check_name(path, lineno, c.strip()) for c in header[1:])
            if len(set(names)) < len(names):
                repeated = next(n for i, n in enumerate(names) if n in names[:i])
                raise ParseError(f"{path}:{lineno}: duplicate series name {repeated!r}")
            return names
    raise ParseError(f"{path}: no header row found")


def _is_month(date):
    """Whether ``date`` is a YYYYMM month, year 1 to 9999; elementwise over an
    array of dates."""
    return (101 <= date) & (date <= 999912) & (1 <= date % 100) & (date % 100 <= 12)


def _date(path: Path, lineno: int, head: str) -> int:
    """The YYYYMM date in a line's first field: ASCII digits only, optionally
    space-padded or double-quoted."""
    digits = head.strip().strip('"').strip()
    # int() alone would also take a sign, '_' separators and non-ASCII digits.
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{path}:{lineno}: bad date {head!r}")
    date = int(digits)
    if not _is_month(date):
        raise ParseError(f"{path}:{lineno}: {date} is not a valid YYYYMM")
    return date


def _lines(path: Path, fh: TextIO) -> Iterator[tuple[int, str]]:
    """Numbered lines of a text file opened with ``errors="surrogateescape"``;
    a line holding a byte that is not UTF-8 is a ParseError when reached."""
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
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in _lines(path, fh):
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
    if all(p.dates == panels[0].dates for p in panels[1:]):
        return list(panels)
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
    if not _is_month(start):
        raise ValueError(f"{start} is not a valid YYYYMM")
    first = start // 100 * 12 + start % 100 - 1  # months since January of year 0
    return tuple(m // 12 * 100 + m % 12 + 1 for m in range(first, first + count))
