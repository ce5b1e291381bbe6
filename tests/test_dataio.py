import builtins
import csv
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factordist.dataio import (
    DEFAULT_MISSING_CODES,
    ReturnsPanel,
    build_dataset,
    concat_panels,
    load_models,
    load_panel,
    month_range,
)
from factordist.errors import (
    DuplicateDateError,
    DuplicateModelNameError,
    EmptyPanelError,
    MissingRiskfreeError,
    NonFiniteError,
    NoOverlapError,
    ParseError,
)

from conftest import panel_from_columns


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def reference_load_panel(path, missing_codes=DEFAULT_MISSING_CODES):
    """The row-by-row parser: csv records, one ``float()`` per value and a
    per-row missing-code scan. Oracle for :func:`load_panel`."""
    codes = set(float(c) for c in missing_codes)
    names = None
    dates, rows, seen = [], [], set()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not "".join(row).strip():
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if names is None:
                if len(row) < 2:
                    raise ParseError(f"{path}:{lineno}: header")
                names = tuple(c.strip() for c in row[1:])
                continue
            if len(row) != len(names) + 1:
                raise ParseError(f"{path}:{lineno}: ragged")
            digits = row[0].strip()
            if not (digits.isascii() and digits.isdigit()):
                raise ParseError(f"{path}:{lineno}: bad date")
            date = int(digits)
            if not 101 <= date <= 999912 or not 1 <= date % 100 <= 12:
                raise ParseError(f"{path}:{lineno}: not a valid YYYYMM")
            try:
                vals = [float(c) for c in row[1:]]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric") from None
            if date in seen:
                raise DuplicateDateError(f"{path}: duplicate date {date}")
            seen.add(date)
            if any(v in codes for v in vals):
                continue
            dates.append(date)
            rows.append(vals)
    if names is None:
        raise ParseError(f"{path}: no header row found")
    if not rows:
        raise EmptyPanelError(f"{path}: no usable rows")
    return ReturnsPanel(tuple(dates), names, np.array(rows, dtype=float))


def _outcome(loader, path):
    """(dates, names, value bytes) of a parse, or (error type, line number)."""
    try:
        panel = loader(path)
    except (ParseError, DuplicateDateError, EmptyPanelError) as exc:
        lineno = re.search(r":(\d+):", str(exc))
        return type(exc), lineno and int(lineno.group(1))
    return panel.dates, panel.names, panel.values.tobytes()


_VALUES = st.floats(-50.0, 50.0, allow_nan=False).map(lambda v: round(v, 4))
_PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _value_field(draw):
    text = draw(st.sampled_from([repr, lambda v: format(v, ".6g"),
                                 lambda v: f"{v:.3f}", lambda v: f"{v:e}"]))(
        draw(_VALUES))
    text = draw(_PAD) + text + draw(_PAD)
    return f'"{text}"' if draw(st.booleans()) else text


_MALFORMED_VALUE = st.sampled_from(["oops", "", "1.2.3", "--1", "1e", "0x10",
                                    "1#2", "1 2", '"1,5"'])
_SKIPPED = st.sampled_from(["", "   ", ",,", " , ", "# comment", "  # a, b c"])


@st.composite
def _panel_file(draw, malformed):
    """CSV text with comments, blank lines, padded and quoted fields and
    missing-code rows; ``malformed`` data lines are spoiled in place."""
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 8))
    year = draw(st.integers(1926, 2030))
    dates = [100 * (year + i // 12) + 1 + i % 12 for i in range(n_rows)]
    header = ["date"] + [f"S{j}" for j in range(width)]
    header = [draw(st.sampled_from([h, f" {h} ", f'"{h}"'])) for h in header]
    rows = []
    for date in dates:
        fields = [draw(_value_field()) for _ in range(width)]
        if draw(st.integers(0, 4)) == 0:
            fields[draw(st.integers(0, width - 1))] = draw(
                st.sampled_from(["-99.99", "-999", "-999.0", " -99.990"]))
        head = draw(st.sampled_from([str(date), f" {date} ", f'"{date}"']))
        rows.append([head] + fields)
    for i in draw(st.lists(st.integers(0, n_rows - 1), max_size=malformed,
                           min_size=min(malformed, 1), unique=True)):
        kind = draw(st.sampled_from(["ragged", "date", "month", "value", "dup"]))
        if kind == "ragged":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1.0"]
        elif kind == "date":
            rows[i][0] = draw(st.sampled_from(["x2000", "2000-01", "", "20.01"]))
        elif kind == "month":
            rows[i][0] = str(dates[i] // 100 * 100 + draw(st.sampled_from([0, 13])))
        elif kind == "value":
            rows[i][draw(st.integers(1, width))] = draw(_MALFORMED_VALUE)
        elif i > 0:
            rows[i][0] = str(dates[i - 1])
    lines = [",".join(header)] + [",".join(r) for r in rows]
    out = []
    for line in lines:
        out.extend(draw(st.lists(_SKIPPED, max_size=2)))
        out.append(line)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + eol.join(out) + (eol if draw(st.booleans()) else "")


class TestLoadPanel:
    def test_missing_code_row_dropped(self, tmp_path):
        path = _write(tmp_path, "f.csv",
                      "date,MKT\n196701,0.5\n196702,-99.99\n196703,1.0\n")
        panel = load_panel(path)
        assert panel.dates == (196701, 196703)
        np.testing.assert_array_equal(panel.values[:, 0], [0.5, 1.0])

    def test_custom_missing_codes(self, tmp_path):
        path = _write(tmp_path, "f.csv",
                      "date,A\n200001,-99.99\n200002,1.0\n")
        panel = load_panel(path, missing_codes=[-1234.0])
        assert panel.dates == (200001, 200002)

    def test_drop_preserves_order(self, tmp_path):
        rows = "\n".join(f"{d},{v}" for d, v in
                         [(200001, 1.0), (200002, -999), (200003, 2.0),
                          (200004, -99.99), (200005, 3.0)])
        panel = load_panel(_write(tmp_path, "f.csv", "date,A\n" + rows + "\n"))
        assert panel.dates == (200001, 200003, 200005)
        np.testing.assert_array_equal(panel.values[:, 0], [1.0, 2.0, 3.0])

    def test_duplicate_date(self, tmp_path):
        path = _write(tmp_path, "f.csv", "date,A\n200001,1.0\n200001,2.0\n")
        with pytest.raises(DuplicateDateError):
            load_panel(path)

    def test_duplicate_detected_even_when_missing_coded(self, tmp_path):
        path = _write(tmp_path, "f.csv", "date,A\n200001,1.0\n200001,-99.99\n")
        with pytest.raises(DuplicateDateError):
            load_panel(path)

    def test_empty_after_drops(self, tmp_path):
        path = _write(tmp_path, "f.csv", "date,A\n200001,-99.99\n")
        with pytest.raises(EmptyPanelError):
            load_panel(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = _write(tmp_path, "f.csv", "date,A\n200001,1.0\n200002,oops\n")
        with pytest.raises(ParseError, match=":3:"):
            load_panel(path)

    def test_bad_date(self, tmp_path):
        path = _write(tmp_path, "f.csv", "date,A\n200013,1.0\n")
        with pytest.raises(ParseError, match="YYYYMM"):
            load_panel(path)

    @pytest.mark.parametrize("date, fault", [
        ("1963_01", "bad date '1963_01'"),
        ("+196301", r"bad date '\+196301'"),
        ("\u0661\u0669\u0666\u0663\u0660\u0661", "bad date"),
        ("100000000000000000001", "100000000000000000001 is not a valid YYYYMM"),
    ], ids=["digit_separator", "sign", "arabic_indic_digits", "21_digits"])
    def test_date_is_ascii_digits_up_to_999912(self, tmp_path, date, fault):
        # Each of these is 196301 or a number to Python's int().
        path = _write(tmp_path, "f.csv", f"date,A\n196212,1\n{date},1\n")
        with pytest.raises(ParseError, match=rf"f\.csv:3: {fault}"):
            load_panel(path)

    def test_padded_and_quoted_dates_load(self, tmp_path):
        # A stray quote after 196305 leaves the one before 5 unpaired, which
        # loadtxt would run on into the next line: each line is read as
        # loadtxt reads it alone, and so is "4"0, which is 40.
        path = _write(tmp_path, "f.csv", 'date,A\n 196301 ,1\n"196302",2\n" 196303 ",3\n'
                      '196304,"4"0\n196305","5\n999912,6\n')
        panel = load_panel(path)
        assert panel.dates == (196301, 196302, 196303, 196304, 196305, 999912)
        np.testing.assert_array_equal(panel.values[:, 0], [1, 2, 3, 40, 5, 6])

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, "f.csv", "date,A,B\n200001,1.0\n")
        with pytest.raises(ParseError, match="expected 3 fields"):
            load_panel(path)

    def test_unsorted_dates_rejected(self, tmp_path):
        path = _write(tmp_path, "f.csv", "date,A\n200002,1.0\n200001,2.0\n")
        with pytest.raises(ParseError, match="strictly increasing"):
            load_panel(path)

    def test_unsorted_kept_date_names_line(self, tmp_path):
        # The out-of-order row follows a dropped row; only kept dates count.
        path = _write(tmp_path, "f.csv", "date,A\n200003,1.0\n200004,-99.99\n"
                                         "# note\n200002,2.0\n")
        with pytest.raises(ParseError, match=r"f\.csv:5: dates not strictly "
                                             r"increasing at 200003 -> 200002"):
            load_panel(path)

    def test_header_only_is_empty_panel(self, tmp_path):
        path = _write(tmp_path, "f.csv", "# meta\ndate,A,B\n\n")
        with pytest.raises(EmptyPanelError):
            load_panel(path)

    def test_no_header_row(self, tmp_path):
        path = _write(tmp_path, "f.csv", "# meta\n\n,,\n  \n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: no header row found$"):
            load_panel(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = _write(tmp_path, "f.csv", f"date,A,B\n200001,1,2\n200002,1,{value}\n")
        with pytest.raises(ParseError, match=r"f\.csv:3: non-finite value"):
            load_panel(path)

    def test_non_finite_value_in_dropped_row_ignored(self, tmp_path):
        path = _write(tmp_path, "f.csv", "date,A,B\n200001,1,2\n200002,-99.99,nan\n")
        assert load_panel(path).dates == (200001,)

    def test_underscore_digit_groups_rejected(self, tmp_path):
        path = _write(tmp_path, "f.csv", "date,A\n200001,1_000\n")
        with pytest.raises(ParseError, match=":2: non-numeric"):
            load_panel(path)

    def test_hash_inside_value_rejected(self, tmp_path):
        # Only a line that starts with '#' is a comment.
        path = _write(tmp_path, "f.csv", "date,A,B\n200001,1,2\n200002,1,2#3\n")
        with pytest.raises(ParseError, match=":3: non-numeric"):
            load_panel(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "f.csv",
                      "# factordist 0.1.0 | cmd=synth\ndate,A\n200001,1.5\n")
        panel = load_panel(path)
        assert panel.names == ("A",)
        assert panel.values[0, 0] == 1.5

    def test_deterministic(self, tmp_path):
        text = "date,A,B\n200001,1.0,2.0\n200002,0.5,-0.5\n"
        p1 = load_panel(_write(tmp_path, "a.csv", text))
        p2 = load_panel(_write(tmp_path, "b.csv", text))
        assert p1.dates == p2.dates and p1.names == p2.names
        assert p1.values.tobytes() == p2.values.tobytes()

    @pytest.mark.parametrize("name", ['"A,x"', '"A""x"', 'A"x', "B"])
    def test_name_breaking_a_csv_row_rejected(self, tmp_path, name):
        # "B" repeats the first series name: two output rows would share it.
        path = _write(tmp_path, "f.csv", f"# meta\ndate,B,{name}\n200001,1,2\n")
        fault = "duplicate series name 'B'" if name == "B" else "name .* holds"
        with pytest.raises(ParseError, match=rf"f\.csv:2: {fault}"):
            load_panel(path)

    @pytest.mark.parametrize("rows", [8, 800], ids=["under_8KB", "over_8KB"])
    def test_earliest_fault_reported_before_a_later_bad_byte(self, tmp_path, rows):
        # Line 3 is ragged and a later line holds a byte that is not UTF-8:
        # line 3 is reported whatever the size of the file.
        good = [f"{200001 + i % 12 + 100 * (i // 12)},1.0,2.0\n" for i in range(rows)]
        text = "date,A,B\n200001,1.0,2.0\n200002,1.0\n" + "".join(good[2:])
        raw = text.encode() + b"209901,1.0,2\xe9\n"
        assert (len(raw) < 8192) == (rows == 8)
        path = tmp_path / "f.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=r"f\.csv:3: expected 3 fields"):
            load_panel(path)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_bad_byte_names_its_line(self, tmp_path, eol):
        # A BOM, then a comment line and a later data line that are not UTF-8.
        path = tmp_path / "f.csv"
        path.write_bytes(b"\xef\xbb\xbf" + eol.encode().join(
            [b"date,A", b"# caf\xe9", b"200001,1", b"200002,2\x80", b""]))
        with pytest.raises(ParseError, match=r"f\.csv:2: byte 0xe9 is not UTF-8"):
            load_panel(path)

    @pytest.mark.parametrize("raw, fault", [
        (b"date,A,B\n200001,1,2\n200002,1,nan\n200003,1,2\n200004,1\n",
         r"f\.csv:3: non-finite value"),
        (b"date,A,B\n200002,1,2\n200001,1,2\n200003,1\n",
         r"f\.csv:3: dates not strictly increasing at 200002 -> 200001"),
        (b"date,A\n200002,1\n200001,1\n200003,nan\n",
         r"f\.csv:3: dates not strictly increasing at 200002 -> 200001"),
        (b"date,A\n200001,nan\n200002,1\n200002,1\n", r"f\.csv:2: non-finite value"),
        (b"date,A\n200001,nan\n200002,2\xe9\n", r"f\.csv:2: non-finite value"),
        # loadtxt fails on line 4, so the rows before it are read again.
        (b"date,A,B\n200001,1,2\n200002,1,nan\n200003,1,x\n",
         r"f\.csv:3: non-finite value"),
    ], ids=["non_finite_then_ragged", "order_then_ragged", "order_then_non_finite",
            "non_finite_then_duplicate", "non_finite_then_bad_byte",
            "non_finite_then_non_numeric"])
    def test_kept_row_fault_reported_before_a_later_fault(self, tmp_path, raw, fault):
        path = tmp_path / "f.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=fault):
            load_panel(path)

    @pytest.mark.parametrize("text, fault", [
        ("date,A,B\n200001,1,2\nx,1\n", r"f\.csv:3: expected 3 fields, got 2"),
        ("date,A\n200001,1\n200001,x\n", r"f\.csv:3: non-numeric value"),
        ('date,A\n200001,"x\n', r"f\.csv:2: non-numeric value"),
        ('date,A\n200001,1\n200001,"1\n', r"f\.csv:3: quote not closed"),
    ], ids=["fields_then_date", "values_then_duplicate", "values_then_quote",
            "quote_then_duplicate"])
    def test_line_faults_reported_in_rule_order(self, tmp_path, text, fault):
        with pytest.raises(ParseError, match=fault):
            load_panel(_write(tmp_path, "f.csv", text))

    def test_late_non_numeric_value_in_a_large_file_names_its_line(self, tmp_path):
        # loadtxt converts each row before it reads the next line, so the
        # last line handed to it is the one it failed on, at any file size.
        rows = [f"{100001 + i % 12 + 100 * (i // 12)}" + ",0.125" * 30
                for i in range(6000)]
        rows[5990] += "x"
        header = "date" + "".join(f",S{j}" for j in range(30))
        path = _write(tmp_path, "f.csv", header + "\n" + "\n".join(rows))
        assert path.stat().st_size > 2**20
        with pytest.raises(ParseError, match=r"f\.csv:5992: non-numeric value"):
            load_panel(path)

    @pytest.mark.parametrize("text, fault", [
        ('date,A\n"2000"01,1\n', r"f\.csv:2: bad date '\"2000\"01'"),
        # A quoted field that runs over a line end: one row to loadtxt.
        ('date,A,B\n200001,"\n200002",2\n200003,-99.99,1\n',
         r"f\.csv:2: expected 3 fields, got 2"),
        # Read alone, the line's open quote is closed by loadtxt at its end.
        ('date,A\n200001,"1\n200002,2\n', r"f\.csv:2: quote not closed"),
        # Here csv.reader, and so reference_load_panel, reads the value 2.
        ('date,A\n200001,1\n200002,"2\n', r"f\.csv:3: quote not closed"),
    ], ids=["quote_inside_date", "quote_over_line_end", "quote_open_at_line_end",
            "quote_open_at_file_end"])
    def test_line_rules_hold_where_loadtxt_joins_quoted_text(self, tmp_path, text,
                                                            fault):
        path = _write(tmp_path, "f.csv", text)
        with pytest.raises(ParseError, match=fault):
            load_panel(path)

    @pytest.mark.parametrize("panel, models", [
        (b"date,A\n200001,1.0\n", b"M = F1\n"),
        # A dropped row out of date order.
        (b"date,A\n200002,1.0\n200001,-99.99\n200003,2\n", b"M = F1\n"),
        (b"date,A\n200001,1.0\n200002,2\xe9\n", b"M = F1\nN = F\xe9\n"),
        # loadtxt fails on line 3, so line 2 is read again.
        (b"date,A\n200001,nan\n200002,x\n", b"M = F1\n"),
    ], ids=["utf8", "scanned", "bad_byte", "read_again"])
    def test_each_file_opened_once(self, tmp_path, monkeypatch, panel, models):
        panel_path, models_path = tmp_path / "p.csv", tmp_path / "m.txt"
        panel_path.write_bytes(panel)
        models_path.write_bytes(models)
        opened = []
        real_open = io.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        monkeypatch.setattr(io, "open", spy)
        for loader, path in ((load_panel, panel_path), (load_models, models_path)):
            try:
                loader(path)
            except ParseError:
                pass
            assert opened.count(str(path)) == 1, loader.__name__


class TestLoadPanelOracle:
    """load_panel against the row-by-row reference parser."""

    @settings(max_examples=200, deadline=None)
    @given(text=_panel_file(malformed=0))
    def test_well_formed_matches_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(load_panel, path) == _outcome(reference_load_panel, path)

    @settings(max_examples=200, deadline=None)
    @given(text=_panel_file(malformed=3))
    def test_malformed_matches_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(load_panel, path) == _outcome(reference_load_panel, path)

    @settings(max_examples=200, deadline=None)
    @given(text=_panel_file(malformed=0))
    def test_one_pass_parse_takes_well_formed_files(self, tmp_path_factory, text):
        # Skipped lines anywhere included: one loadtxt reads every data line.
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            assert _outcome(load_panel, path) == _outcome(reference_load_panel, path)
        assert loadtxt.call_count == 1

    @pytest.mark.parametrize("text", [
        "date,A\n196301.0,1.5\n196302,2\n",
        'date,A\n"  196301 ",1.5\n196302,2\n',
        "\ufeffdate,A,B\r\n196301,1,2\r\n\r\n196302,3,4\r\n",
        "date,A,B\r196301,1,2\r196302,3,4\r",
        "date,A,B\n196301,nan,-99.99\n196302,3,4\n",
        "date,A\n196301,1\n196302,2\n196301,-999\n",
        'date,A\n196301,"1\n196302,2\n',
    ], ids=["float_date", "padded_quoted_date", "bom_crlf", "cr", "nan_in_dropped_row",
            "duplicate_in_dropped_row", "quote_open_at_line_end"])
    def test_hazard_matches_reference(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            outcome = _outcome(load_panel, path)
        assert outcome == _outcome(reference_load_panel, path)
        assert loadtxt.call_count == 1 or isinstance(outcome[0], type)


class TestBuildDataset:
    def test_excess_return_subtraction(self):
        ports = panel_from_columns({"P": [1.0]})
        facts = panel_from_columns({"MKT": [0.9], "RF": [0.4]})
        ds = build_dataset(ports, facts, "RF")
        assert ds.portfolios.values[0, 0] == pytest.approx(0.6)
        assert ds.factors.names == ("MKT",)

    def test_date_intersection(self):
        long_dates = month_range(196701, 600)    # 1967-2016
        short_dates = month_range(197001, 492)   # 1970-2010
        ports = ReturnsPanel(long_dates, ("P",), np.ones((600, 1)))
        facts = ReturnsPanel(short_dates, ("MKT", "RF"), np.ones((492, 2)))
        ds = build_dataset(ports, facts, "RF")
        assert ds.portfolios.dates[0] == 197001
        assert ds.portfolios.dates[-1] == 201012
        assert ds.t_obs == 492

    def test_missing_riskfree(self):
        ports = panel_from_columns({"P": [1.0]})
        facts = panel_from_columns({"MKT": [0.9]})
        with pytest.raises(MissingRiskfreeError):
            build_dataset(ports, facts, "RF")

    def test_no_overlap(self):
        ports = panel_from_columns({"P": [1.0]}, start=196701)
        facts = panel_from_columns({"MKT": [0.9], "RF": [0.1]}, start=200001)
        with pytest.raises(NoOverlapError,
                           match="^portfolio and factor panels share no dates$"):
            build_dataset(ports, facts, "RF")

    def test_overflowing_excess_return(self):
        ports = panel_from_columns({"P": [1.0, 1.7e308]})
        facts = panel_from_columns({"MKT": [0.9, 0.8], "RF": [0.1, -1.7e308]})
        with pytest.raises(NonFiniteError, match="overflows at 200002"):
            build_dataset(ports, facts, "RF")

    def test_equal_row_counts(self):
        ports = panel_from_columns({"P": [1.0, 2.0, 3.0]})
        facts = panel_from_columns({"MKT": [0.9, 0.8, 0.7],
                                    "RF": [0.1, 0.1, 0.1]})
        ds = build_dataset(ports, facts, "RF")
        assert ds.portfolios.values.shape[0] == ds.factors.values.shape[0]


class TestLoadModels:
    def test_basic_entries(self, tmp_path):
        path = _write(tmp_path, "m.txt",
                      "# standard models\n"
                      "CAPM = MKT\n"
                      "FF3 = MKT,SMB,HML\n")
        specs = load_models(path)
        assert [s.name for s in specs] == ["CAPM", "FF3"]
        assert specs[0].factor_names == ("MKT",)
        assert specs[0].k == 1
        assert specs[1].factor_names == ("MKT", "SMB", "HML")

    def test_duplicate_model_name(self, tmp_path):
        path = _write(tmp_path, "m.txt", "FF3 = MKT,SMB,HML\nFF3 = MKT\n")
        with pytest.raises(DuplicateModelNameError):
            load_models(path)

    def test_repeated_factor_rejected(self, tmp_path):
        path = _write(tmp_path, "m.txt", "BAD = MKT,MKT\n")
        with pytest.raises(ParseError):
            load_models(path)

    def test_empty_factor_list_rejected(self, tmp_path):
        path = _write(tmp_path, "m.txt", "BAD =\n")
        with pytest.raises(ParseError):
            load_models(path)

    def test_inline_comment(self, tmp_path):
        path = _write(tmp_path, "m.txt", "CAPM = MKT  # one factor\n")
        assert load_models(path)[0].factor_names == ("MKT",)

    @pytest.mark.parametrize("name", ["ONE,X", 'ONE"X', '"ONE"'])
    def test_name_breaking_a_csv_row_rejected(self, tmp_path, name):
        path = _write(tmp_path, "m.txt", f"CAPM = MKT\n{name} = MKT\n")
        with pytest.raises(ParseError, match=r"m\.txt:2: name .* holds"):
            load_models(path)


class TestConcatPanels:
    def test_aligns_and_concatenates(self):
        a = panel_from_columns({"P1": [1.0, 2.0, 3.0]}, start=200001)
        b = ReturnsPanel(month_range(200002, 3), ("P2",),
                         np.array([[4.0], [5.0], [6.0]]))
        merged = concat_panels([a, b])
        assert merged.dates == (200002, 200003)
        assert merged.names == ("P1", "P2")
        np.testing.assert_array_equal(merged.values,
                                      [[2.0, 4.0], [3.0, 5.0]])

    def test_name_collision_gets_suffix(self):
        a = panel_from_columns({"Lo 10": [1.0]})
        b = panel_from_columns({"Lo 10": [2.0]})
        merged = concat_panels([a, b])
        assert merged.names == ("Lo 10", "Lo 10_2")

    def test_single_panel_passthrough(self):
        a = panel_from_columns({"P": [1.0]})
        assert concat_panels([a]) is a

    def test_no_panels(self):
        with pytest.raises(ValueError, match="^no panels to concatenate$"):
            concat_panels([])

    def test_no_overlap(self):
        a = panel_from_columns({"P1": [1.0]}, start=196701)
        b = panel_from_columns({"P2": [1.0, 2.0]}, start=196702)
        with pytest.raises(NoOverlapError, match="^panels share no dates$"):
            concat_panels([a, b, a])


class TestReturnsPanel:
    def test_month_past_999912_rejected(self):
        # load_panel rejects such a month, so a panel built in code must too;
        # generate rejects a T-th month past 999912 before it draws a number
        # (tests/test_synth.py).
        with pytest.raises(ParseError, match="1000001 is not a valid YYYYMM"):
            ReturnsPanel((1000001,), ("A",), np.ones((1, 1)))

    @pytest.mark.parametrize("dates, message", [
        # The first date that is not a month, also ahead of an order fault,
        # and a date outside int64 like any other.
        ((196702, 196701, 196713, 2**70), "196713 is not a valid YYYYMM month"),
        ((196701, 2**70, 196613), f"{2**70} is not a valid YYYYMM month"),
        ((-2**70,), f"{-2**70} is not a valid YYYYMM month"),
        ((196701, 0), "0 is not a valid YYYYMM month"),
        ((196701, 196703, 196703, 196702), "dates not strictly increasing at 196703 -> 196703"),
    ])
    def test_first_bad_date_reported(self, dates, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            ReturnsPanel(dates, ("A",), np.ones((len(dates), 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="^panel values must be finite$"):
            ReturnsPanel((196701, 196702), ("A",), np.array([[1.0], [bad]]))

    @pytest.mark.parametrize("dates", [(196702, 196701), (196701, 196701)])
    def test_dates_not_strictly_increasing_rejected(self, dates):
        with pytest.raises(ParseError, match=f"^dates not strictly increasing at "
                                             f"{dates[0]} -> {dates[1]}$"):
            ReturnsPanel(dates, ("A",), np.ones((2, 1)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^values shape \(2, 2\) does not match "
                                             "2 dates x 1 names$"):
            ReturnsPanel((196701, 196702), ("A",), np.ones((2, 2)))


class TestMonthRange:
    def test_year_wrap(self):
        assert month_range(196711, 4) == (196711, 196712, 196801, 196802)

    def test_length(self):
        dates = month_range(196701, 600)
        assert len(dates) == 600
        assert dates[-1] == 201612

    def test_invalid_start(self):
        with pytest.raises(ValueError):
            month_range(196713, 2)
