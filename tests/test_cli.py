import contextlib
import gc
import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factordist import (
    PosteriorFamily,
    __version__,
    build_dataset,
    dataio,
    fit_ols,
    linalg,
    load_models,
    load_panel,
    posterior_alpha_skeptic,
    wd2_components,
)
from factordist.cli import _file_tag, _fmt, main
from factordist.dataio import month_range

from conftest import direct_fits

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def _synth(tmp_path, **overrides):
    args = {"T": "240", "n": "4", "k": "2", "seed": "11", "alpha": "0.15"}
    args.update({k: str(v) for k, v in overrides.items()})
    out = tmp_path / "data"
    code = main(["synth", "--out", str(out),
                 "--T", args["T"], "--n", args["n"], "--k", args["k"],
                 "--seed", args["seed"], "--alpha", args["alpha"]])
    assert code == 0
    return out / "portfolios.csv", out / "factors.csv"


def _models(tmp_path, text="ONE = F1\nBOTH = F1,F2\n"):
    path = tmp_path / "models.txt"
    path.write_text(text, encoding="utf-8")
    return path


def _with_doubled_f1(tmp_path, facts):
    """A copy of the factor file with a column F3 = 2 F1."""
    lines = facts.read_text(encoding="utf-8").splitlines()
    rows = [lines[1] + ",F3"] + [
        f"{line},{2.0 * float(line.split(',')[1])!r}" for line in lines[2:]]
    path = tmp_path / "collinear.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _spoil(path, column, text):
    """Overwrite one field of the second data row of a CSV file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[3].split(",")
    fields[column] = text
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_columns(path, dates, columns):
    """A returns CSV of the given columns, every value written exactly."""
    rows = [",".join(["date", *columns])]
    rows += [",".join([str(d), *(repr(float(c[t])) for c in columns.values())])
             for t, d in enumerate(dates)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# factordist")
    header = lines[1].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[2:]]


class TestRank:
    def test_single_model_single_row(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path, "ONE = F1\n")
        out = tmp_path / "out"
        assert main(["rank", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(models), "--out", str(out)]) == 0
        header, rows = _read_rows(out / "report.csv")
        assert len(rows) == 1
        assert rows[0]["model"] == "ONE"
        assert header[:6] == ["model", "n", "T", "k", "TD", "AD"]
        assert (out / "marginal_ONE.csv").exists()

    def test_rows_sorted_by_ad(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        out = tmp_path / "out"
        main(["rank", "--portfolios", str(ports), "--factors", str(facts),
              "--models", str(models), "--out", str(out)])
        _, rows = _read_rows(out / "report.csv")
        ads = [float(r["AD"]) for r in rows]
        assert ads == sorted(ads)
        # The correctly specified two-factor model wins.
        assert rows[0]["model"] == "BOTH"

    def test_marginal_file_contents(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path, "BOTH = F1,F2\n")
        out = tmp_path / "out"
        main(["rank", "--portfolios", str(ports), "--factors", str(facts),
              "--models", str(models), "--out", str(out)])
        header, rows = _read_rows(out / "marginal_BOTH.csv")
        assert header == ["asset", "alpha", "sigma_alpha", "t_stat", "marginal"]
        assert len(rows) == 4
        for row in rows:
            a = float(row["alpha"])
            s = float(row["sigma_alpha"])
            d = float(row["marginal"])
            assert d == pytest.approx(np.hypot(a, s), rel=1e-4)
            assert float(row["t_stat"]) == pytest.approx(a / s, rel=1e-4)

    def test_missing_factor_exit_1_names_factor(self, tmp_path, capsys):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path, "BAD = F1,NOPE\n")
        code = main(["rank", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(models), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "NOPE" in capsys.readouterr().err

    def test_failure_leaves_no_partial_outputs(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path, "ONE = F1\nBAD = NOPE\n")
        out = tmp_path / "out"
        code = main(["rank", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(models), "--out", str(out)])
        assert code == 1
        assert not (out / "report.csv").exists()

    def test_non_finite_value_exit_1_names_line(self, tmp_path, capsys):
        _, facts = _synth(tmp_path)
        ports = tmp_path / "nan.csv"
        ports.write_text("date,A,B\n200001,1.0,2.0\n200002,1.0,nan\n",
                         encoding="utf-8")
        models = _models(tmp_path, "ONE = F1\n")
        code = main(["rank", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(models), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "nan.csv:3: non-finite value" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, content, line", [
        ("portfolios", b"date,A,B\n200001,1.0,2.0\n200002,1.0,2\xe9\n", 3),
        ("models", b"ONE = F1\nCAF\xe9 = F1\n", 2),
    ], ids=["portfolios", "models"])
    def test_non_utf8_file_exit_1_names_line(self, tmp_path, capsys, kind,
                                             content, line):
        ports, facts = _synth(tmp_path)
        files = {"portfolios": ports, "models": _models(tmp_path, "ONE = F1\n")}
        files[kind] = tmp_path / "latin1.csv"
        files[kind].write_bytes(content)
        code = main(["rank", "--portfolios", str(files["portfolios"]),
                     "--factors", str(facts), "--models", str(files["models"]),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert f"latin1.csv:{line}: byte 0xe9 is not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, extra", [
        ("rank", []), ("sweep", []), ("equiv", ["--benchmark", "ONE"]),
    ], ids=["rank", "sweep", "equiv"])
    @pytest.mark.parametrize("kind", ["model", "series", "repeated_portfolio",
                                      "repeated_factor"])
    def test_name_breaking_a_csv_row_exit_1(self, tmp_path, capsys, command,
                                            extra, kind):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path, "ONE = F1\nONE,X = F1\n" if kind == "model"
                         else "ONE = F1\n")
        if kind == "model":
            where = "models.txt:2: name 'ONE,X'"
        elif kind == "series":
            lines = ports.read_text(encoding="utf-8").splitlines()
            lines[1] = lines[1].replace("A1", '"A1,x"')
            ports.write_text("\n".join(lines) + "\n", encoding="utf-8")
            where = "portfolios.csv:2: name 'A1,x'"
        else:
            # A name repeated in a header: the factors' F1 would make the
            # union model list it twice, and two marginal rows would share A1.
            path, name = (ports, "A1") if kind == "repeated_portfolio" else (facts, "F1")
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[1] += f",{name}"
            lines[2:] = [line + "," + line.split(",")[1] for line in lines[2:]]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            where = f"{path.name}:2: duplicate series name {name!r}"
        out = tmp_path / "out"
        code = main([command, "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(models), "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and where in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, spoiled, text, message", [
        (["sweep", "--grid", "1,x"], None, None,
         "expected comma-separated numbers, got '1,x'"),
        (["equiv", "--benchmark", "ONE", "--alternatives", "NOPE"], None, None,
         "alternative model 'NOPE' not in model file"),
        (["rank"], "models", "TWO F1\n", "models.txt:1: expected 'NAME = F1,F2,...'"),
        (["rank"], "models", "ONE = F1\n = F1\n", "models.txt:2: empty model name"),
        (["rank"], "models", "# none\n", "models.txt: no model definitions found"),
        (["rank"], "portfolios", "date\n200001\n",
         "portfolios.csv:1: header needs a date column and at least one series"),
        (["rank"], "portfolios", "# none\n\n,,\n", "portfolios.csv: no header row found"),
    ], ids=["grid_value", "alternative", "model_without_equals", "empty_model_name",
            "no_model", "one_column_header", "no_header_row"])
    def test_user_error_exit_1_names_it(self, tmp_path, capsys, argv, spoiled, text,
                                        message):
        ports, facts = _synth(tmp_path)
        files = {"portfolios": ports, "factors": facts, "models": _models(tmp_path)}
        if spoiled:
            files[spoiled].write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = main([*argv, *(f"--{k}={v}" for k, v in files.items()), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"{message}\n")

    @pytest.mark.parametrize("command, extra", [
        ("rank", []), ("sweep", []), ("equiv", ["--benchmark", "BOTH"]),
    ], ids=["rank", "sweep", "equiv"])
    @pytest.mark.parametrize("value, rf", [("1e200", None), ("1.7e308", "-1.7e308")],
                             ids=["moments", "excess"])
    def test_overflowing_returns_exit_1(self, tmp_path, capsys, command, extra,
                                        value, rf):
        # 1e200 overflows the residual sums of squares; 1.7e308 less an RF
        # of -1.7e308 overflows the excess return itself.
        ports, facts = _synth(tmp_path)
        _spoil(ports, 2, value)
        if rf is not None:
            _spoil(facts, 3, rf)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--portfolios", str(ports), "--factors",
                         str(facts), "--models", str(_models(tmp_path)),
                         "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("rank", []), ("sweep", []), ("equiv", ["--benchmark", "M0"]),
    ], ids=["rank", "sweep", "equiv"])
    def test_overflowing_distance_exit_1(self, tmp_path, capsys, command, extra):
        # Alphas near 5e153 on three months: every sum of squares of the fit
        # is finite, but |alpha|^2 is not, so neither is the distance.
        ports, facts = _synth(tmp_path, T=3, n=9, k=1, seed=1, alpha=5e153)
        capsys.readouterr()
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--portfolios", str(ports), "--factors", str(facts),
                         "--models", str(_models(tmp_path, "M0 = F1\n")),
                         "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: model 'M0': returns too large: the distance overflows\n"
        assert not out.exists()

    def test_huge_riskfree_rate_exit_0(self, tmp_path, capsys):
        # MAE <= RMSE holds for every vector; rounding near 1e103 used to
        # trip a check of it and exit 1 with "MAE ... exceeds RMSE ...".
        ports, facts = _synth(tmp_path, T=120, n=5, k=2, seed=1, alpha=0)
        _spoil(facts, 3, "1.7e105")
        code = main(["rank", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(_models(tmp_path)), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 0, err
        assert "exceeds" not in err

    def test_line_scan_gives_the_same_outputs(self, tmp_path):
        # A comment line after the header is skipped: the outputs are those
        # of the file without it.
        ports, facts = _synth(tmp_path)
        lines = ports.read_text(encoding="utf-8").splitlines(keepends=True)
        noted = tmp_path / "noted.csv"
        noted.write_text("".join([*lines[:5], "# note\n", *lines[5:]]), encoding="utf-8")

        def outputs(path, name):
            out = tmp_path / name
            assert main(["rank", "--portfolios", str(path), "--factors", str(facts),
                         "--models", str(_models(tmp_path)), "--out", str(out)]) == 0
            # Below the metadata line, which names and hashes the inputs.
            return {p.name: p.read_text(encoding="utf-8").split("\n", 1)[1]
                    for p in out.iterdir()}

        assert outputs(ports, "plain") == outputs(noted, "noted")

    def test_write_failure_keeps_previous_outputs(self, tmp_path, monkeypatch):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        out = tmp_path / "out"
        argv = ["rank", "--portfolios", str(ports), "--factors", str(facts),
                "--models", str(models), "--out", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "report.csv").write_bytes(b"previous run\n")
        before["report.csv"] = b"previous run\n"

        real_write_text = Path.write_text
        calls = []

        def failing_write_text(self, *args, **kwargs):
            calls.append(self.name)
            if len(calls) == 2:
                raise OSError("disk full")
            return real_write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_write_text)
        assert main(argv) == 1
        assert len(calls) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_directory_at_output_path_keeps_previous_outputs(self, tmp_path, capsys):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        out = tmp_path / "out"
        argv = ["rank", "--portfolios", str(ports), "--factors", str(facts),
                "--models", str(models), "--out", str(out)]
        assert main(argv) == 0
        (out / "report.csv").write_bytes(b"previous run\n")
        (out / "marginal_ONE.csv").unlink()
        (out / "marginal_ONE.csv").mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "marginal_ONE.csv" in err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, "marginal_ONE.csv"])

    def test_no_rename_lands_on_an_existing_file(self, tmp_path, monkeypatch):
        # Old outputs are moved aside before the new ones are renamed in: a
        # rename over an existing file makes ext4 flush it to disk.
        ports, facts = _synth(tmp_path)
        out = tmp_path / "out"
        targets = []

        def recording(real):
            def rename(src, dst):
                targets.append((Path(dst).name, os.path.lexists(dst)))
                return real(src, dst)
            return rename

        monkeypatch.setattr(os, "replace", recording(os.replace))
        monkeypatch.setattr(os, "rename", recording(os.rename))
        for text in ("ONE = F1\nBOTH = F1,F2\n", "ONE = F1\nBOTH = F1,F2\n", "TWO = F2\n"):
            assert main(["rank", "--portfolios", str(ports), "--factors", str(facts),
                         "--models", str(_models(tmp_path, text)), "--out", str(out)]) == 0
        # Three files renamed in; three moved aside and three renamed in; one
        # moved aside and two renamed in.
        assert len(targets) == 3 + 6 + 3
        assert [name for name, existed in targets if existed] == []
        assert sorted(p.name for p in out.iterdir()) == [
            "marginal_BOTH.csv", "marginal_ONE.csv", "marginal_TWO.csv", "report.csv"]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_failed_rename_keeps_previous_outputs(self, tmp_path, monkeypatch, capsys, k):
        # The old set holds report.csv and marginal_BOTH.csv, changed since
        # they were written, and no marginal_ONE.csv. The rerun moves two old
        # files aside and renames three new ones in; whichever rename fails,
        # the directory holds the old set, byte for byte.
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        out = tmp_path / "out"
        argv = ["rank", "--portfolios", str(ports), "--factors", str(facts),
                "--models", str(models), "--out", str(out)]
        assert main(argv) == 0
        (out / "report.csv").write_bytes(b"previous run\n")
        (out / "marginal_ONE.csv").unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_rename = os.rename
        calls = []

        def rename(src, dst):
            calls.append(dst)
            if len(calls) == fail_at:
                raise OSError(f"rename {fail_at} failed")
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", rename)
        fail_at = k
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: rename {k} failed\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # Each fault above struck one of the five renames a rerun makes.
        calls.clear()
        fail_at = 0
        assert main(argv) == 0
        assert len(calls) == 5

    def test_model_names_sharing_a_file_exit_1_before_writing(self, tmp_path, capsys):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path, "M 1 = F1\nM_1 = F1,F2\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main(["rank", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(models), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "marginal_M_1.csv" in err
        assert list(out.iterdir()) == []

    def test_byte_identical_reruns(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        outs = []
        for name in ("out1", "out2"):
            out = tmp_path / name
            main(["rank", "--portfolios", str(ports), "--factors", str(facts),
                  "--models", str(models), "--out", str(out)])
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_metadata_line(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        out = tmp_path / "out"
        main(["rank", "--portfolios", str(ports), "--factors", str(facts),
              "--models", str(models), "--out", str(out)])
        first = (out / "report.csv").read_text().splitlines()[0]
        assert first.startswith(f"# factordist {__version__}")
        assert "cmd=rank" in first
        assert "portfolios.csv:" in first and "factors.csv:" in first

    def test_multiple_portfolio_files_concatenate(self, tmp_path):
        ports, facts = _synth(tmp_path)
        second = tmp_path / "data2"
        main(["synth", "--out", str(second), "--T", "240", "--n", "3",
              "--k", "2", "--seed", "99"])
        models = _models(tmp_path, "BOTH = F1,F2\n")
        out = tmp_path / "out"
        code = main(["rank", "--portfolios", str(ports),
                     str(second / "portfolios.csv"),
                     "--factors", str(facts), "--models", str(models),
                     "--out", str(out)])
        assert code == 0
        _, rows = _read_rows(out / "report.csv")
        assert rows[0]["n"] == "7"
        # The metadata line tags the portfolio files in argument order.
        tags = [_tag(p) for p in (ports, second / "portfolios.csv", facts, models)]
        assert tags[0] != tags[1]
        missing = ",".join(str(c) for c in dataio.DEFAULT_MISSING_CODES)
        assert (out / "report.csv").read_text().splitlines()[0] == (
            f"# factordist {__version__} | cmd=rank | portfolios={tags[0]},{tags[1]}"
            f" | factors={tags[2]} | models={tags[3]} | rf=RF | missing={missing}")


    def test_grs_undefined_still_reports_distance(self, tmp_path, capsys):
        # T - n - k < 1: GRS cannot be computed, the distance still is.
        ports, facts = _synth(tmp_path, T=60, n=80, k=2)
        capsys.readouterr()
        models = _models(tmp_path)
        out = tmp_path / "out"
        argv = ["--portfolios", str(ports), "--factors", str(facts),
                "--models", str(models), "--out", str(out)]
        assert main(["rank", *argv]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for name, line in zip(("ONE", "BOTH"), err):
            assert line.startswith(f"warning: model '{name}': GRS not reported: T - n - k")
        _, rows = _read_rows(out / "report.csv")
        assert all(r["GRS"] == "" and r["GRS_pvalue"] == "" for r in rows)
        assert all(float(r["TD"]) > 0.0 for r in rows)
        assert {p.name for p in out.iterdir()} == {
            "report.csv", "marginal_ONE.csv", "marginal_BOTH.csv"}
        assert main(["sweep", *argv, "--grid", "0"]) == 0
        _, sweep_rows = _read_rows(out / "sweep.csv")
        assert {r["model"]: r["AD"] for r in sweep_rows} == {
            r["model"]: r["AD"] for r in rows}

    def test_singular_residual_cov_still_reports_distance(self, tmp_path, capsys):
        # Asset EXACT is priced without error, so Sigma_mle is singular.
        _, facts = _synth(tmp_path)
        f1 = np.loadtxt(facts, delimiter=",", skiprows=2, usecols=(0, 1))
        noise = np.random.default_rng(3).standard_normal(len(f1))
        ports = tmp_path / "exact.csv"
        ports.write_text("date,EXACT,NOISY\n" + "".join(
            f"{int(d)},{float(0.25 + 2.0 * f)!r},{float(f + e)!r}\n"
            for (d, f), e in zip(f1, noise)), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["rank", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(_models(tmp_path, "ONE = F1\n")),
                     "--out", str(out)]) == 0
        assert "GRS not reported: residual covariance singular" in capsys.readouterr().err
        _, rows = _read_rows(out / "report.csv")
        assert rows[0]["GRS"] == "" and rows[0]["GRS_pvalue"] == ""
        assert float(rows[0]["AD"]) > 0.0

    @pytest.mark.parametrize("bad", ["unknown", "collinear", "singular_factor_cov"])
    def test_later_failure_after_grs_warning_matches_direct_path(
            self, tmp_path, capsys, monkeypatch, bad):
        # ONE warns that GRS is undefined (T - n - k < 1), then BAD fails:
        # the union path prints what fitting one model at a time printed,
        # in the same order, and exits with the same code.
        import factordist.bayes as bayes
        import factordist.regression as regression
        from factordist.errors import SingularFactorCovError

        ports, facts = _synth(tmp_path, T=60, n=80, k=2)
        capsys.readouterr()
        bad_factors = {"unknown": "NOPE", "collinear": "F1,F3",
                       "singular_factor_cov": "F2"}[bad]
        if bad == "collinear":
            facts = _with_doubled_f1(tmp_path, facts)
        if bad == "singular_factor_cov":
            real = regression.sharpe_sq

            def sharpe_sq(fit):
                if fit.model.name == "BAD":
                    raise SingularFactorCovError("pivot 0 at column 0 is <= 1e-14")
                return real(fit)

            monkeypatch.setattr(regression, "sharpe_sq", sharpe_sq)
            monkeypatch.setattr(bayes, "sharpe_sq", sharpe_sq)
        models = _models(tmp_path, f"ONE = F1\nBAD = {bad_factors}\nBOTH = F1,F2\n")
        argv = ["rank", "--portfolios", str(ports), "--factors", str(facts),
                "--models", str(models), "--out", str(tmp_path / "out")]
        code = main(argv)
        err = capsys.readouterr().err
        with monkeypatch.context() as m:
            m.setattr(regression, "_fit_models", direct_fits)
            want_code = main(argv)
            want_err = capsys.readouterr().err
        assert (code, err) == (want_code, want_err)
        assert code == (2 if bad == "singular_factor_cov" else 1)
        first, second = err.splitlines()
        assert first.startswith("warning: model 'ONE': GRS not reported: T - n - k")
        assert "'BAD'" in second or "pivot 0" in second
        assert not (tmp_path / "out").exists()

    def test_dogmatic_distance_builds_no_posterior_matrix(self, tmp_path, monkeypatch):
        # rank and the equiv target read only skeptic_moments: no n x n
        # skeptic posterior and no PosteriorFamily. equiv builds one family
        # per alternative.
        import factordist.bayes as bayes
        import factordist.cli as cli
        import factordist.transport as transport

        calls = {"skeptic": 0, "family": 0}
        real_skeptic = transport.posterior_alpha_skeptic
        real_moments = bayes._moments

        def counted_skeptic(fit):
            calls["skeptic"] += 1
            return real_skeptic(fit)

        def counted_moments(fit):
            calls["family"] += 1
            return real_moments(fit)

        monkeypatch.setattr(transport, "posterior_alpha_skeptic", counted_skeptic)
        monkeypatch.setattr(cli, "posterior_alpha_skeptic", counted_skeptic,
                            raising=False)
        # Every family, alone or built with others, starts from its moments.
        monkeypatch.setattr(bayes, "_moments", counted_moments)
        ports, facts = _synth(tmp_path)
        argv = ["--portfolios", str(ports), "--factors", str(facts),
                "--models", str(_models(tmp_path)), "--out", str(tmp_path / "out")]
        assert main(["rank", *argv]) == 0
        assert calls == {"skeptic": 0, "family": 0}
        assert main(["equiv", *argv, "--benchmark", "BOTH"]) == 0
        assert calls == {"skeptic": 0, "family": 1}
        assert main(["equiv", *argv, "--benchmark", "BOTH",
                     "--alternatives", "ONE", "BOTH"]) == 0
        assert calls == {"skeptic": 0, "family": 3}


@pytest.mark.parametrize("value, text", [
    (None, ""), (7, "7"), (np.int64(-3), "-3"), (math.inf, "inf"),
    (-math.inf, "-inf"), (np.float64(-np.inf), "-inf"), (math.nan, "nan"),
    (-0.0, "-0"), (0.1 + 0.2, "0.3"), (np.float64(1234567.0), "1.23457e+06"),
])
def test_fmt(value, text):
    assert _fmt(value) == text


def test_file_tag_hashes_a_file_over_several_chunks(tmp_path):
    data = bytes(range(256)) * 10_000  # 2.56 MB: three 1 MB reads
    path = tmp_path / "big.csv"
    path.write_bytes(data)
    assert _file_tag(path) == f"big.csv:{hashlib.sha256(data).hexdigest()[:12]}"


def _tag(path):
    """``name:`` and the first 12 hex digits of the sha256 of the file's bytes."""
    return f"{path.name}:{hashlib.sha256(path.read_bytes()).hexdigest()[:12]}"


class TestInputTags:
    @pytest.mark.parametrize("command, output", [
        ("rank", "report.csv"), ("sweep", "sweep.csv"), ("equiv", "equiv.csv")])
    def test_input_rewritten_during_the_fits_keeps_its_parsed_tag(
            self, tmp_path, monkeypatch, command, output):
        # A comment line appended to the portfolio file once its parse is
        # done: the metadata line still names the bytes that were parsed.
        import factordist.regression as regression

        ports, facts = _synth(tmp_path)
        parsed = _tag(ports)
        real = regression._fit_models

        def rewriting_fits(dataset, models):
            with open(ports, "a", encoding="utf-8") as fh:
                fh.write("# rewritten\n")
            return real(dataset, models)

        monkeypatch.setattr(regression, "_fit_models", rewriting_fits)
        out = tmp_path / "out"
        assert main([command, "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(_models(tmp_path)), "--out", str(out),
                     *(["--benchmark", "BOTH"] if command == "equiv" else [])]) == 0
        assert _tag(ports) != parsed
        assert f" | portfolios={parsed} | " in (out / output).read_text().splitlines()[0]

    def test_tag_is_of_the_raw_bytes(self, tmp_path):
        # A UTF-8 BOM and CRLF line ends change no output below the metadata
        # line; each tag is of the bytes as they are on disk.
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        inputs = (ports, facts, models)
        argv = ["rank", "--portfolios", str(ports), "--factors", str(facts),
                "--models", str(models), "--out"]
        assert main([*argv, str(tmp_path / "plain")]) == 0
        for path in inputs:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
        assert main([*argv, str(tmp_path / "bom")]) == 0
        plain, bom = ((tmp_path / d / "report.csv").read_text().splitlines()
                      for d in ("plain", "bom"))
        assert bom[1:] == plain[1:]
        for name, path in zip(("portfolios", "factors", "models"), inputs):
            assert f" | {name}={_tag(path)} | " in bom[0]
            assert f" | {name}={_tag(path)} | " not in plain[0]


def _python(*args):
    """A fresh interpreter that imports this checkout's package, run to its end."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_commands_do_not_import_numpy_ma(tmp_path):
    # numpy.ma takes 13-15 ms to import; np.unique, for one, imports it.
    ports, facts = _synth(tmp_path)
    data = ["--portfolios", str(ports), "--factors", str(facts),
            "--models", str(_models(tmp_path)), "--out", str(tmp_path / "out")]
    # sweep and equiv load neither factordist.metrics nor factordist.synth,
    # and rank does not load factordist.synth.
    script = (
        "import sys\n"
        "from factordist.cli import main\n"
        f"data = {data!r}\n"
        "loaded = lambda: [m in sys.modules for m in "
        "('factordist.metrics', 'factordist.synth')]\n"
        "codes = [main(['sweep', *data]), main(['equiv', *data, '--benchmark', 'BOTH'])]\n"
        "before_rank = loaded()\n"
        "codes.append(main(['rank', *data]))\n"
        "print(codes, 'numpy.ma' in sys.modules, before_rank, loaded())\n"
    )
    run = _python("-c", script)
    assert run.stdout.strip() == "[0, 0, 0] False [False, False] [True, False]", run.stderr


_RANK_LOADS = ["bayes", "dataio", "linalg", "metrics", "regression"]
_POSTERIOR_LOADS = ["bayes", "dataio", "equiv", "linalg", "regression"]


@pytest.mark.parametrize("argv, loaded", [
    (["rank", "DATA"], _RANK_LOADS),
    (["sweep", "DATA"], _POSTERIOR_LOADS),
    (["equiv", "DATA", "--benchmark", "BOTH"], _POSTERIOR_LOADS),
    (["synth", "OUT"], ["dataio", "linalg", "synth"]),
    (["--version"], []),
    (["--help"], []),
    (["rank"], []),
], ids=["rank", "sweep", "equiv", "synth", "version", "help", "usage-error"])
def test_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    # Where no bytecode is cached, each module a command imports is compiled
    # on every run. Arguments are parsed before numpy loads, so --version,
    # --help and a usage error load no numeric module. Only rank loads the
    # GRS (factordist.metrics), only sweep and equiv the posterior sweep and
    # solver (factordist.equiv), and no command loads dataclasses or the
    # dense Gaussian forms (factordist.transport).
    ports, facts = _synth(tmp_path)
    out = ["--out", str(tmp_path / "out")]
    data = ["--portfolios", str(ports), "--factors", str(facts),
            "--models", str(_models(tmp_path)), *out]
    argv = [tok for arg in argv for tok in {"DATA": data, "OUT": out}.get(arg, [arg])]
    script = (
        "import sys\n"
        "from factordist.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m in ('dataclasses', 'numpy') "
        "or m.startswith('factordist.')))\n"
    )
    run = _python("-c", script)
    want = sorted(["factordist.cli", "factordist.errors",
                   *(f"factordist.{m}" for m in loaded), *(["numpy"] if loaded else [])])
    code = 1 if argv == ["rank"] else 0
    assert run.stdout.splitlines()[-1] == f"{code} {want}", run.stderr


def test_every_public_name_imports():
    # The package resolves its names on first access; each one must resolve,
    # to the object its module defines.
    script = (
        "import importlib, sys\n"
        "import factordist\n"
        "assert 'factordist.synth' not in sys.modules\n"
        "for name, module in factordist._MODULE_OF.items():\n"
        "    module = importlib.import_module('factordist.' + module)\n"
        "    assert getattr(factordist, name) is getattr(module, name), name\n"
        "from factordist import *\n"
        "print(len(factordist.__all__), hasattr(factordist, 'no_such_name'))\n"
    )
    run = _python("-c", script)
    assert run.stdout.strip() == "38 False", run.stderr


class TestProcessEntry:
    """``python -m factordist.cli`` and the console script end through
    ``cli.run()``; ``main`` is the in-process entry."""

    @staticmethod
    def _data(tmp_path):
        ports, facts = _synth(tmp_path)
        return ["--portfolios", str(ports), "--factors", str(facts),
                "--models", str(_models(tmp_path))]

    def test_version_exit_0(self):
        run = _python("-m", "factordist.cli", "--version")
        assert (run.returncode, run.stdout, run.stderr) == (
            0, f"factordist {__version__}\n", "")

    def test_user_error_exit_1_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        run = _python("-m", "factordist.cli", "sweep", *self._data(tmp_path),
                      "--grid", "2,1", "--out", str(out))
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: ")
        assert not out.exists()

    def test_numerical_failure_exit_2(self, tmp_path):
        argv = ["factordist", "rank", *self._data(tmp_path), "--out", str(tmp_path / "out")]
        script = (
            "import sys\n"
            "import factordist.cli as cli\n"
            "import factordist.regression as regression\n"
            "from factordist.errors import NumericalError\n"
            "def boom(dataset, models):\n"
            "    raise NumericalError('synthetic breakage')\n"
            "regression._fit_models = boom\n"
            f"sys.argv = {argv!r}\n"
            "cli.run()\n"
        )
        run = _python("-c", script)
        assert (run.returncode, run.stderr) == (
            2, "numerical failure: synthetic breakage\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, extra", [
        ("rank", []), ("sweep", []), ("equiv", ["--benchmark", "BOTH"]),
    ], ids=["rank", "sweep", "equiv"])
    def test_same_outputs_as_main(self, tmp_path, capsys, command, extra):
        data = [command, *self._data(tmp_path), *extra]
        child, here = tmp_path / "child", tmp_path / "here"
        run = _python("-m", "factordist.cli", *data, "--out", str(child))
        assert main([*data, "--out", str(here)]) == run.returncode == 0
        assert capsys.readouterr().err == run.stderr
        names = sorted(p.name for p in here.iterdir())
        assert names == sorted(p.name for p in child.iterdir())
        for name in names:
            assert (child / name).read_bytes() == (here / name).read_bytes(), name

    def test_only_run_freezes_the_collector(self, tmp_path):
        data = ["sweep", *self._data(tmp_path)]
        assert main([*data, "--out", str(tmp_path / "here")]) == 0
        assert gc.get_freeze_count() == 0
        # Shutdown still runs atexit handlers and flushes stdout.
        script = (
            "import atexit, gc, sys\n"
            "from factordist.cli import run\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            f"sys.argv = {['factordist', *data, '--out', str(tmp_path / 'child')]!r}\n"
            "run()\n"
        )
        run = _python("-c", script)
        assert run.returncode == 0, run.stderr
        label, count = run.stdout.split()
        assert label == "frozen" and int(count) > 0

    def test_run_calls_main_with_the_collector_off(self, tmp_path):
        argv = ["factordist", "sweep", *self._data(tmp_path), "--out", str(tmp_path / "out")]
        script = (
            "import gc, sys\n"
            "import factordist.cli as cli\n"
            "real = cli.main\n"
            "def spy():\n"
            "    print('enabled', gc.isenabled())\n"
            "    return real()\n"
            "cli.main = spy\n"
            f"sys.argv = {argv!r}\n"
            "cli.run()\n"
        )
        run = _python("-c", script)
        assert (run.returncode, run.stdout) == (0, "enabled False\n"), run.stderr

    def test_main_leaves_the_collector_as_it_found_it(self, tmp_path):
        argv = ["sweep", *self._data(tmp_path)]
        script = (
            "import gc\n"
            "from factordist.cli import main\n"
            "for i, switch in enumerate((gc.enable, gc.disable)):\n"
            "    switch()\n"
            f"    code = main({argv!r} + ['--out', {str(tmp_path)!r} + f'/out{{i}}'])\n"
            "    print(code, gc.isenabled(), gc.get_freeze_count())\n"
        )
        run = _python("-c", script)
        assert (run.returncode, run.stdout) == (0, "0 True 0\n0 False 0\n"), run.stderr


class TestSweep:
    def test_grid_zero_matches_rank_ad(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        out = tmp_path / "out"
        main(["rank", "--portfolios", str(ports), "--factors", str(facts),
              "--models", str(models), "--out", str(out)])
        main(["sweep", "--portfolios", str(ports), "--factors", str(facts),
              "--models", str(models), "--out", str(out), "--grid", "0"])
        _, rank_rows = _read_rows(out / "report.csv")
        _, sweep_rows = _read_rows(out / "sweep.csv")
        rank_ad = {r["model"]: r["AD"] for r in rank_rows}
        for row in sweep_rows:
            assert row["AD"] == rank_ad[row["model"]]

    def test_default_grid_monotone(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path, "BOTH = F1,F2\n")
        out = tmp_path / "out"
        assert main(["sweep", "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models),
                     "--out", str(out)]) == 0
        _, rows = _read_rows(out / "sweep.csv")
        ads = [float(r["AD"]) for r in rows]
        assert len(ads) == 6
        assert all(a >= b for a, b in zip(ads, ads[1:]))

    def test_empty_grid_exit_1(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        code = main(["sweep", "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models),
                     "--out", str(tmp_path / "out"), "--grid", ""])
        assert code == 1


    @pytest.mark.parametrize("grid", ["nan", "0,nan"])
    def test_nan_grid_exit_1(self, tmp_path, capsys, grid):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        code = main(["sweep", "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models),
                     "--out", str(tmp_path / "out"), "--grid", grid])
        assert code == 1
        assert "error: sigma grid" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0,1e-200", "1e300,inf"])
    def test_sigma_whose_square_leaves_the_float_range_is_a_limit_row(
            self, tmp_path, capsys, grid):
        # 1e-200 squared underflows to 0 (dogmatic belief); 1e300 squared
        # overflows (the skeptic): each row equals its limit's row.
        ports, facts = _synth(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(_models(tmp_path)), "--out", str(out),
                     "--grid", grid]) == 0
        assert capsys.readouterr().err == ""
        _, rows = _read_rows(out / "sweep.csv")
        assert len(rows) == 4
        for first, second in zip(rows[::2], rows[1::2]):
            assert first.pop("sigma_alpha_annual") != second.pop("sigma_alpha_annual")
            assert first == second

    @pytest.mark.parametrize("command, extra", [
        ("sweep", []), ("equiv", ["--benchmark", "BOTH"]),
    ], ids=["sweep", "equiv"])
    @pytest.mark.parametrize("column", ["portfolio", "rf"])
    @pytest.mark.parametrize("value", ["1.7e100", "1.7e153"])
    def test_huge_returns_exit_1(self, tmp_path, capsys, command, extra, column, value):
        # Below the overflow of any sum of squares, but the squared Gauss
        # nodes of the posterior's scale A ~ T Sigma overflow.
        ports, facts = _synth(tmp_path, T=120, n=5)
        _spoil(*((ports, 2) if column == "portfolio" else (facts, 3)), value)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--portfolios", str(ports), "--factors",
                         str(facts), "--models", str(_models(tmp_path)),
                         "--out", str(out), *extra])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "returns too large" in err
        assert not out.exists()

    def test_lanczos_rows_match_dense_forms(self, tmp_path, monkeypatch):
        # n = 160 is past linalg.GAUSS_RULE_MIN_N, so each family takes its
        # Gauss rule from Lanczos; every printed row must still agree with the
        # dense distance from the posterior to the skeptic posterior.
        T, n, k = 400, 160, 4
        rng = np.random.default_rng(0)
        f = rng.normal(0.5, 4.0, (T, k))
        betas = rng.normal(1.0, 0.5, (n, k))
        noise = rng.normal(0.0, 2.0, (T, n)) @ (np.eye(n) + 0.3 * rng.normal(size=(n, n)))
        returns = rng.normal(0.0, 0.3, n) + f @ betas.T + noise
        dates = dataio.month_range(200001, T)
        ports = _write_columns(tmp_path / "ports.csv", dates,
                               {f"A{i}": returns[:, i] for i in range(n)})
        facts = _write_columns(tmp_path / "facts.csv", dates,
                               {**{f"F{j + 1}": f[:, j] for j in range(k)},
                                "RF": np.zeros(T)})
        models = _models(tmp_path, "".join(
            f"M{m} = {','.join(f'F{j + 1}' for j in range(m))}\n" for m in range(1, k + 1)))
        sizes = []
        real = linalg._lanczos_rule

        def spy(a, *args):
            sizes.append(a.shape[0])
            return real(a, *args)

        out = tmp_path / "out"
        with monkeypatch.context() as m:
            m.setattr(linalg, "_lanczos_rule", spy)
            assert main(["sweep", "--portfolios", str(ports), "--factors", str(facts),
                         "--models", str(models), "--out", str(out),
                         "--grid", "0,2,4,6,8,10,20,50"]) == 0
        assert sizes == [n] * k
        dataset = build_dataset(load_panel(ports), load_panel(facts))
        dense = {}
        for model in load_models(models):
            fit = fit_ols(dataset, model)
            dense[model.name] = PosteriorFamily(fit), posterior_alpha_skeptic(fit)
        _, rows = _read_rows(out / "sweep.csv")
        assert len(rows) == 8 * k
        for row in rows:
            family, skeptic = dense[row["model"]]
            mean_sq, trace = wd2_components(
                family.at(float(row["sigma_alpha_annual"])), skeptic)
            want = [math.sqrt((mean_sq + trace) / n), math.sqrt(mean_sq / n),
                    math.sqrt(trace / n)]
            got = [float(row[c]) for c in ("AD", "RMSE_alpha", "RMSE_sigma")]
            assert got == pytest.approx(want, rel=1e-5), row

    @pytest.mark.parametrize("n", [25, 130])
    def test_joint_rows_equal_rows_alone(self, tmp_path, n):
        # Families whose fits are derived from one union fit, with rules
        # from eigh below GAUSS_RULE_MIN_N or from Lanczos from it on, print
        # each model's rows as a run with that model alone does.
        ports, facts = _synth(tmp_path, n=n, k=3, T=400)
        lines = ["S1 = F1", "S23 = F2,F3", "S123 = F1,F2,F3", "S12 = F1,F2", "S3 = F3"]

        def rows(text, out):
            assert main(["sweep", "--portfolios", str(ports), "--factors", str(facts),
                         "--models", str(_models(tmp_path, text)), "--out", str(out),
                         "--grid", "0,1e-200,0.5,2,8,1e3,1e60,inf"]) == 0
            return (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[2:]

        joint = rows("\n".join(lines) + "\n", tmp_path / "joint")
        assert len(joint) == 8 * len(lines)
        for line in lines:
            name = line.split(" ")[0]
            assert rows(line + "\n", tmp_path / name) == [
                row for row in joint if row.startswith(name + ",")], name

    def test_sweep_builds_no_family_past_a_failed_sweep(self, tmp_path, capsys,
                                                         monkeypatch):
        # sweep fits, builds and sweeps one model at a time: ONE's sweep fails
        # (no AD falls by a negative slack), so TWO's family is never built.
        import factordist.bayes as bayes
        from factordist import equiv

        built = []
        real_moments = bayes._moments

        def moments(fit):
            built.append(fit.model.name)
            return real_moments(fit)

        monkeypatch.setattr(bayes, "_moments", moments)
        monkeypatch.setattr(equiv, "MONOTONE_SLACK", -1.0)
        ports, facts = _synth(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["sweep", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(_models(tmp_path, "ONE = F1\nTWO = F2\n")),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: average distance increased"), err
        assert built == ["ONE"]
        assert not out.exists()

    def test_sweep_derives_no_fit_past_a_failed_sweep(self, tmp_path, capsys,
                                                     monkeypatch):
        # Each fit is derived in its turn: ONE's sweep fails (no AD falls by a
        # negative slack), so _assemble runs for the union and for ONE only,
        # and TWO, of another factor count, is never derived.
        from factordist import equiv, regression

        assembled = []
        real_assemble = regression._assemble

        def assemble(*args):
            assembled.append(args[1])
            return real_assemble(*args)

        monkeypatch.setattr(regression, "_assemble", assemble)
        monkeypatch.setattr(equiv, "MONOTONE_SLACK", -1.0)
        ports, facts = _synth(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["sweep", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(_models(tmp_path, "ONE = F1\nTWO = F1,F2\n")),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: average distance increased"), err
        assert len(assembled) == 2
        assert [model.name for model in assembled] == ["union", "ONE"]
        assert not out.exists()

    def test_inf_grid_is_skeptic_row(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path, "BOTH = F1,F2\n")
        out = tmp_path / "out"
        assert main(["sweep", "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models), "--out", str(out),
                     "--grid", "0,inf"]) == 0
        _, rows = _read_rows(out / "sweep.csv")
        assert rows[1]["sigma_alpha_annual"] == "inf"
        assert rows[1]["AD"] == "0"


class TestGolden:
    """rank, sweep and equiv outputs pinned byte for byte below the metadata
    line, on an n = 6 panel and, past ``linalg.GAUSS_RULE_MIN_N``, on an
    n = 130 panel whose every family takes its rule from Lanczos.

    The files under tests/data (``golden_<output name>``, and
    ``golden_n130_<output name>``) fix every printed number; rewrite them
    only for an intended change of output.
    """

    OUTPUTS = {"rank": ("report.csv", "marginal_M3.csv"),
               "sweep": ("sweep.csv",), "equiv": ("equiv.csv",)}

    @pytest.mark.parametrize("command,extra", [
        ("sweep", ()),
        ("equiv", ("--benchmark", "M3")),
        ("rank", ()),
    ])
    def test_matches_golden(self, tmp_path, command, extra):
        self._check(tmp_path, command, extra, "golden_", n=6, k=3)

    @pytest.mark.parametrize("command,extra", [
        ("sweep", ()),
        ("equiv", ("--benchmark", "M3")),
    ])
    def test_lanczos_path_matches_golden(self, tmp_path, monkeypatch, command, extra):
        rules = []
        real = linalg._lanczos_rule

        def spy(*args):
            rules.append(real(*args))
            return rules[-1]

        monkeypatch.setattr(linalg, "_lanczos_rule", spy)
        self._check(tmp_path, command, extra, "golden_n130_", n=130, k=3, T=400)
        assert len(rules) == (3 if command == "sweep" else 2)
        assert all(rule is not None for rule in rules)

    def _check(self, tmp_path, command, extra, prefix, **panel):
        ports, facts = _synth(tmp_path, **panel)
        models = _models(tmp_path, "M1 = F1\nM2 = F1,F2\nM3 = F1,F2,F3\n")
        out = tmp_path / "out"
        assert main([command, "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models), "--out", str(out),
                     *extra]) == 0
        for name in self.OUTPUTS[command]:
            got = (out / name).read_bytes().split(b"\n", 1)
            want = (DATA / f"{prefix}{name}").read_bytes().split(b"\n", 1)
            assert got[0].startswith(b"# factordist")
            assert got[1] == want[1], name


def _permuted_columns(path, out, order):
    """A copy of a returns CSV with its value columns in ``order``, a
    permutation of their indices; the date column and comment lines stay."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        fields = line.split(",")
        rows.append(line if line.startswith("#")
                    else ",".join([fields[0], *(fields[1 + i] for i in order)]))
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return out


def _same_cell(a, b):
    """Equal text, or numbers within one unit in the 6th significant digit."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if x == y or not (math.isfinite(x) and math.isfinite(y)):
        return x == y
    return abs(x - y) <= 10.0 ** (math.floor(math.log10(max(abs(x), abs(y)))) - 5)


class TestInputOrder:
    """Permuting the asset columns, the factor columns and the model lines
    together changes no output cell: rows are matched by model, by (model,
    sigma), by alternative and, in the marginal files, by asset name."""

    KEYS = {"report.csv": ("model",), "sweep.csv": ("model", "sigma_alpha_annual"),
            "equiv.csv": ("alt_model",)}

    @pytest.mark.parametrize("n", [25, 130])
    def test_outputs_do_not_depend_on_input_order(self, tmp_path, n):
        k = 4
        ports, facts = _synth(tmp_path, n=n, k=k, T=300)
        names = [f"F{j + 1}" for j in range(k)]
        lines = [f"S{''.join(c[1:] for c in subset)} = {','.join(subset)}\n"
                 for size in range(1, k + 1)
                 for subset in itertools.combinations(names, size)]
        rng = np.random.default_rng(7)
        runs = {}
        for label, ports_in, facts_in, text in [
            ("given", ports, facts, "".join(lines)),
            ("permuted",
             _permuted_columns(ports, tmp_path / "ports.csv", rng.permutation(n)),
             # RF, the last column, moves with the factors.
             _permuted_columns(facts, tmp_path / "facts.csv", rng.permutation(k + 1)),
             "".join(lines[i] for i in rng.permutation(len(lines)))),
        ]:
            models = tmp_path / f"{label}.txt"
            models.write_text(text, encoding="utf-8")
            out = tmp_path / label
            for command, extra in [("rank", ()), ("sweep", ()),
                                   ("equiv", ("--benchmark", "S1234"))]:
                assert main([command, "--portfolios", str(ports_in), "--factors",
                             str(facts_in), "--models", str(models), "--out", str(out),
                             *extra]) == 0
            runs[label] = {path.name: self._rows(path) for path in out.glob("*.csv")}
        given, permuted = runs["given"], runs["permuted"]
        assert sorted(given) == sorted(permuted)
        assert len(given) == 3 + len(lines)
        for name, rows in given.items():
            assert rows.keys() == permuted[name].keys(), name
            for key, row in rows.items():
                other = permuted[name][key]
                assert row.keys() == other.keys()
                assert all(_same_cell(row[c], other[c]) for c in row), (name, row, other)

    def _rows(self, path):
        """The rows of one output file, keyed by the columns that name them."""
        _, rows = _read_rows(path)
        key = self.KEYS.get(path.name, ("asset",))
        keyed = {tuple(row[c] for c in key): row for row in rows}
        assert len(keyed) == len(rows)
        return keyed


class TestEquiv:
    def test_self_benchmark_sigma_zero(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        out = tmp_path / "out"
        assert main(["equiv", "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models), "--out", str(out),
                     "--benchmark", "ONE", "--alternatives", "ONE"]) == 0
        _, rows = _read_rows(out / "equiv.csv")
        assert rows[0]["alt_model"] == "ONE"
        assert float(rows[0]["sigma_star_annual"]) == 0.0
        assert rows[0]["status"] == "ok"

    def test_not_bracketed_flagged_not_fatal(self, tmp_path):
        # The misspecified one-factor model has a larger dogmatic distance
        # than the true two-factor model, so using it as the benchmark
        # leaves the alternative unbracketed.
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        out = tmp_path / "out"
        assert main(["equiv", "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models), "--out", str(out),
                     "--benchmark", "ONE", "--alternatives", "BOTH"]) == 0
        _, rows = _read_rows(out / "equiv.csv")
        assert rows[0]["status"] == "not_bracketed"
        assert rows[0]["converged"] == "false"

    def test_solves_for_worse_alternative(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        out = tmp_path / "out"
        assert main(["equiv", "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models), "--out", str(out),
                     "--benchmark", "BOTH"]) == 0
        _, rows = _read_rows(out / "equiv.csv")
        one = [r for r in rows if r["alt_model"] == "ONE"][0]
        assert one["status"] == "ok"
        assert float(one["sigma_star_annual"]) > 0.0

    def test_unknown_benchmark_exit_1(self, tmp_path):
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        code = main(["equiv", "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models),
                     "--out", str(tmp_path / "out"), "--benchmark", "NOPE"])
        assert code == 1


    @pytest.mark.parametrize("command, order, code, message", [
        ("equiv", ["ONE", "TWO"], 2, "numerical failure: model 'ONE': bisection"),
        ("equiv", ["TWO", "ONE"], 1, "error: model 'TWO': returns too large"),
        ("sweep", ["ONE", "TWO"], 2, "numerical failure: average distance increased"),
        ("sweep", ["TWO", "ONE"], 1, "error: model 'TWO': returns too large"),
    ])
    def test_failures_reported_in_model_order(self, tmp_path, capsys, monkeypatch,
                                              command, order, code, message):
        # ONE cannot converge (no AD is within a negative tolerance) or its
        # sweep fails (no AD falls by a negative slack), and TWO's family
        # fails to build: the first in the order given is reported, as one
        # model at a time would report it.
        import factordist.bayes as bayes
        from factordist import equiv
        from factordist.errors import NonFiniteError

        real_moments = bayes._moments

        def moments(fit):
            if fit.model.name == "TWO":
                raise NonFiniteError("model 'TWO': returns too large")
            return real_moments(fit)

        monkeypatch.setattr(bayes, "_moments", moments)
        monkeypatch.setattr(equiv, "AD_TOL", -1.0)
        monkeypatch.setattr(equiv, "MONOTONE_SLACK", -1.0)
        ports, facts = _synth(tmp_path)
        factors = {"ONE": "F1", "TWO": "F2"}
        if command == "equiv":
            text = "BOTH = F1,F2\nONE = F1\nTWO = F2\n"
            extra = ["--benchmark", "BOTH", "--alternatives", *order]
        else:
            text = "".join(f"{name} = {factors[name]}\n" for name in order)
            extra = []
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(_models(tmp_path, text)), "--out", str(out),
                     *extra]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err
        assert not out.exists()

    def test_iteration_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # No AD is within a negative tolerance, so ONE's bisection runs to a
        # cap of 30 steps, for which a bracket of 1000 is inside the bound.
        from factordist import equiv

        monkeypatch.setattr(equiv, "AD_TOL", -1.0)
        monkeypatch.setattr(equiv, "MAX_BISECTIONS", 30)
        ports, facts = _synth(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["equiv", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(_models(tmp_path)), "--benchmark", "BOTH",
                     "--bracket-hi", "1000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("numerical failure: model 'ONE': bisection did not reach "
                       "|AD - target| <= -1.0 in 30 iterations\n")
        assert not out.exists()

    @pytest.mark.parametrize("hi", ["nan", "-5", "inf", "0", "1.7e54", "1e60", "1e300"])
    def test_bad_bracket_hi_exit_1(self, tmp_path, capsys, hi):
        ports, facts = _synth(tmp_path)
        # The second file holds only the benchmark, so no alternative is
        # ever solved: the option must be checked where it is parsed.
        benchmark_only = tmp_path / "benchmark_only.txt"
        benchmark_only.write_text("BOTH = F1,F2\n", encoding="utf-8")
        for models in (_models(tmp_path), benchmark_only):
            code = main(["equiv", "--portfolios", str(ports), "--factors",
                         str(facts), "--models", str(models),
                         "--out", str(tmp_path / "out"), "--benchmark", "BOTH",
                         "--bracket-hi", hi])
            assert code == 1, models.name
            assert ("error: bracket_hi must be finite and positive"
                    in capsys.readouterr().err), models.name
            assert not (tmp_path / "out").exists(), models.name


class TestOneFittingPath:
    """rank, sweep and equiv take every fit from ``regression._fit_models``."""

    def test_printed_values_agree_bit_for_bit(self, tmp_path, monkeypatch):
        # Printed in full, rank's AD is the AD of sweep's sigma = 0 row for
        # every model, and equiv's target is rank's AD of the benchmark.
        import factordist.cli as cli
        import factordist.equiv as equiv

        ports, facts = _synth(tmp_path)
        targets = []
        real_solve = equiv.solve_equivs

        def solve_spy(*args, **kwargs):
            targets.append(args[-1])
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(cli, "_fmt", lambda v: "" if v is None else repr(float(v)))
        monkeypatch.setattr(equiv, "solve_equivs", solve_spy)
        out = tmp_path / "out"
        argv = ["--portfolios", str(ports), "--factors", str(facts),
                "--models", str(_models(tmp_path)), "--out", str(out)]
        assert main(["rank", *argv]) == 0
        assert main(["sweep", *argv, "--grid", "0"]) == 0
        assert main(["equiv", *argv, "--benchmark", "ONE"]) == 0
        _, rank_rows = _read_rows(out / "report.csv")
        _, sweep_rows = _read_rows(out / "sweep.csv")
        rank_ad = {r["model"]: r["AD"] for r in rank_rows}
        assert {r["model"]: r["AD"] for r in sweep_rows} == rank_ad
        assert [repr(t) for t in targets] == [rank_ad["ONE"]]

    def test_every_factored_matrix_is_bitwise_symmetric(self, tmp_path, monkeypatch):
        # cholesky_spd factors its input as given, so each caller owns exact
        # symmetry. Nested models derive from the union (X'X, G_ss, Omega,
        # Sigma_U); beside F3 = 2 F1 the union is collinear and each model
        # takes its own fit_ols and grs_test.
        import factordist.metrics as metrics
        import factordist.regression as regression

        factored = []

        def chol_spy(module):
            def spy(m, *args, **kwargs):
                factored.append((module.__name__, m.shape[0], m.copy()))
                return linalg.cholesky_spd(m, *args, **kwargs)
            return spy

        for module in (regression, metrics):
            monkeypatch.setattr(module, "cholesky_spd", chol_spy(module))
        ports, facts = _synth(tmp_path, n=5)
        facts = _with_doubled_f1(tmp_path, facts)
        callers = set()
        for label, text in (("nested", "ONE = F1\nBOTH = F1,F2\n"),
                            ("direct", "ONE = F1\nTHREE = F3\nBOTH = F1,F2\n")):
            argv = ["--portfolios", str(ports), "--factors", str(facts),
                    "--models", str(_models(tmp_path, text)),
                    "--out", str(tmp_path / label)]
            for extra in (["rank"], ["sweep"], ["equiv", "--benchmark", "BOTH"]):
                factored.clear()
                assert main([*extra, *argv]) == 0
                assert factored
                for _, _, m in factored:
                    assert np.array_equal(m.view(np.int64), m.T.view(np.int64))
                callers |= {(name, size) for name, size, _ in factored}
        # X'X and G_ss of orders 2 to 4, Omega of 1 and 2, and Sigma: Sigma_U
        # in regression, a model's own in metrics.grs_test.
        assert callers == {*(("factordist.regression", size) for size in range(1, 6)),
                           ("factordist.metrics", 5)}

    @pytest.mark.parametrize("case", ["unknown", "collinear", "short", "grid",
                                      "alternatives"])
    def test_sweep_and_equiv_match_direct_path(self, tmp_path, capsys,
                                               monkeypatch, case):
        # Fitting one model at a time prints the same errors and exits with
        # the same codes; the files agree too.
        import factordist.regression as regression

        ports, facts = _synth(tmp_path, **({"T": 30, "n": 40} if case == "short" else {}))
        text = {"unknown": "ONE = F1\nBAD = NOPE\nBOTH = F1,F2\n",
                "collinear": "ONE = F1\nTWO = F3\nBOTH = F1,F2\n"}.get(
                    case, "ONE = F1\nBOTH = F1,F2\n")
        if case == "collinear":
            facts = _with_doubled_f1(tmp_path, facts)
        data = ["--portfolios", str(ports), "--factors", str(facts),
                "--models", str(_models(tmp_path, text))]
        runs = [["sweep", *data], ["equiv", *data, "--benchmark", "BOTH"]]
        if case == "grid":
            runs = [["sweep", *data, "--grid", grid] for grid in ("2,1", "", "0,nan")]
        if case == "alternatives":
            runs = [["equiv", *data, "--benchmark", "BOTH", "--alternatives", *alts]
                    for alts in (["BOTH", "ONE"], ["ONE", "ONE"], ["ONE", "BOTH", "ONE"])]
        for i, argv in enumerate(runs):
            capsys.readouterr()
            got, want = tmp_path / f"got{i}", tmp_path / f"want{i}"
            code = main([*argv, "--out", str(got)])
            err = capsys.readouterr().err
            with monkeypatch.context() as m:
                m.setattr(regression, "_fit_models", direct_fits)
                assert (code, err) == (main([*argv, "--out", str(want)]),
                                       capsys.readouterr().err), argv
            assert code == (1 if case in ("unknown", "grid") else 0), argv
            files = sorted(p.name for p in got.glob("*")) if got.exists() else []
            assert files == (sorted(p.name for p in want.glob("*")) if want.exists() else [])
            for name in files:
                assert (got / name).read_bytes() == (want / name).read_bytes(), name

    def test_bad_grid_reported_before_a_model_error(self, tmp_path, capsys):
        ports, facts = _synth(tmp_path)
        out = tmp_path / "out"
        capsys.readouterr()
        code = main(["sweep", "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(_models(tmp_path, "BAD = NOPE\nONE = F1\n")),
                     "--out", str(out), "--grid", "2,1"])
        assert code == 1
        assert capsys.readouterr().err == "error: sigma grid must be sorted ascending\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, calls", [
        ("sweep", ["fit_ols"]),
        ("equiv", ["fit_ols"]),
        ("rank", ["fit_ols", *["_grs", "f_cdf_upper"] * 4]),
    ])
    def test_one_residual_cross_product_and_grs_only_for_rank(
            self, tmp_path, monkeypatch, command, calls):
        # The union vouches for every model: one fit_ols, the union's, and
        # the GRS work only where rank asks for it.
        import factordist.metrics as metrics
        import factordist.regression as regression

        seen = []

        def spy(name, real):
            def wrapper(*args):
                seen.append(name)
                return real(*args)
            return wrapper

        for module, name in ((regression, "fit_ols"), (metrics, "_grs"),
                             (metrics, "f_cdf_upper")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        ports, facts = _synth(tmp_path, n=6, k=3)
        models = _models(tmp_path, "M1 = F1\nM2 = F1,F2\nM3 = F1,F2,F3\nM4 = F2,F3\n")
        extra = ["--benchmark", "M3"] if command == "equiv" else []
        assert main([command, "--portfolios", str(ports), "--factors", str(facts),
                     "--models", str(models), "--out", str(tmp_path / "out"),
                     *extra]) == 0
        assert seen == calls


class TestSynthCommand:
    def test_outputs_reingest(self, tmp_path):
        ports, facts = _synth(tmp_path)
        from factordist import build_dataset, load_panel
        dataset = build_dataset(load_panel(ports), load_panel(facts), "RF")
        assert dataset.t_obs == 240
        assert dataset.factors.names == ("F1", "F2")
        # RF column is zero, so ingested returns are already excess.
        assert dataset.portfolios.names == ("A1", "A2", "A3", "A4")

    def test_deterministic_given_seed(self, tmp_path):
        p1, f1 = _synth(tmp_path / "a")
        p2, f2 = _synth(tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()
        assert f1.read_bytes() == f2.read_bytes()

    def test_metadata_records_rng(self, tmp_path):
        ports, _ = _synth(tmp_path)
        first = ports.read_text().splitlines()[0]
        assert "rng=numpy.random.Philox" in first
        assert "seed=11" in first

    def test_short_sample_warns_in_one_plain_line(self, tmp_path, capsys):
        capsys.readouterr()
        _synth(tmp_path, T=60, n=80, k=2)
        assert capsys.readouterr().err == (
            "warning: T=60 below the recommended n + k + 2 = 84\n")

    @pytest.mark.parametrize("options, message", [
        (["--alpha", "inf"], "true_alpha must be finite"),
        (["--factor-mean", "nan"], "factor_mean must be finite"),
        (["--resid-vol", "nan"], "resid_cov must be finite"),
        (["--factor-vol", "nan"], "factor_cov must be finite"),
        (["--factor-vol", "1e200"], "factor_cov must be finite"),
        (["--resid-vol", "1e200"], "resid_cov must be finite"),
        (["--alpha", "1.7e308", "--factor-mean", "1.7e308"],
         "the drawn factors or returns overflow"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--T", "1000000000"], "start_date=196701 and T=1000000000 must give "
                                "YYYYMM months up to 999912"),
    ])
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, options, message):
        # A square that overflows is inf, so it fails as a non-finite value.
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), *options]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_usage_error_exit_1(self, capsys):
        assert main(["rank"]) == 1
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("command, extra", [
        ("rank", []), ("sweep", []), ("equiv", ["--benchmark", "ONE"]),
    ], ids=["rank", "sweep", "equiv"])
    def test_jobs_flag_is_usage_error(self, tmp_path, capsys, command, extra):
        ports, facts = _synth(tmp_path)
        code = main([command, "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(_models(tmp_path)),
                     "--out", str(tmp_path / "out"), "--jobs", "2", *extra])
        assert code == 1
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_internal_numerical_failure_exit_2(self, tmp_path, monkeypatch,
                                               capsys):
        from factordist.errors import NumericalError

        def boom(dataset, models):
            raise NumericalError("synthetic breakage")

        monkeypatch.setattr("factordist.regression._fit_models", boom)
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        code = main(["rank", "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "synthetic breakage" in capsys.readouterr().err


# Output columns that hold a distance: finite in every file of a run that exits 0.
_DISTANCE_COLUMNS = ("TD", "AD", "RMSE_alpha", "RMSE_sigma", "ad_at_star")


def _contract_inputs(directory, seed, T, n, k, log10_scale, masks):
    """A random panel with returns scaled by 10^log10_scale and a model file
    whose model j holds factor F(i mod k + 1) for every bit i set in masks[j]."""
    rng = np.random.default_rng(seed)
    factors = rng.normal(0.5, 4.0, (T, k))
    returns = (rng.normal(0.2, 0.3, n) + factors @ rng.normal(1.0, 0.5, (n, k)).T
               + rng.normal(0.0, 2.0, (T, n))) * 10.0**log10_scale
    dates = month_range(196701, T)
    ports = _write_columns(directory / "portfolios.csv", dates,
                           {f"P{i + 1}": returns[:, i] for i in range(n)})
    facts = _write_columns(directory / "factors.csv", dates,
                           {**{f"F{j + 1}": factors[:, j] for j in range(k)},
                            "RF": np.zeros(T)})
    models = _models(directory, "".join(
        f"M{j} = " + ",".join(sorted({f"F{i % k + 1}" for i in range(4) if mask >> i & 1}))
        + "\n" for j, mask in enumerate(masks)))
    return ports, facts, models


def _run_contract(argv, out):
    """``main(argv)``: exit code 0, 1 or 2 and no warning; on failure one error
    line and nothing written at ``out``. Returns the exit code."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(out)])
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    if code:
        assert not out.exists()
        assert sum(line.startswith(("error: ", "numerical failure: "))
                   for line in err.getvalue().splitlines()) == 1, err.getvalue()
    return code


class TestContract:
    """Whatever the panel, models and options, ``main`` returns 0, 1 or 2,
    warns nothing, writes nothing and prints one error line when it fails,
    and writes only finite distances when it succeeds; ``synth`` writes
    only finite returns."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(command=st.sampled_from(["rank", "sweep", "equiv"]),
           seed=st.integers(0, 2**32 - 1), T=st.integers(3, 80), n=st.integers(1, 9),
           k=st.integers(1, 4), log10_scale=st.floats(-2.0, 160.0),
           masks=st.lists(st.integers(1, 15), min_size=1, max_size=8),
           grid=st.lists(st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e300),
                                   st.sampled_from([1e-200, math.inf])),
                         min_size=1, max_size=4),
           log10_hi=st.floats(-6.0, 54.2), benchmark=st.integers(0, 2))
    # Alphas near 1e153 on three months: every sum of squares of the fit is
    # finite, but the distance is not.
    @example(command="equiv", seed=1, T=3, n=9, k=1, log10_scale=153.0, masks=[1],
             grid=[0.0], log10_hi=2.0, benchmark=0)
    def test_exit_codes_outputs_and_messages(self, command, seed, T, n, k, log10_scale,
                                             masks, grid, log10_hi, benchmark):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            ports, facts, models = _contract_inputs(tmp, seed, T, n, k, log10_scale,
                                                    masks)
            out = tmp / "out"
            extra = {"rank": [],
                     "sweep": ["--grid", ",".join(map(repr, sorted(grid)))],
                     "equiv": ["--benchmark", f"M{benchmark % len(masks)}",
                               "--bracket-hi", repr(10.0**log10_hi)]}[command]
            if _run_contract([command, "--portfolios", str(ports), "--factors", str(facts),
                              "--models", str(models), *extra], out):
                return
            for path in out.glob("*.csv"):
                header, rows = _read_rows(path)
                for row in rows:
                    for column in set(header).intersection(_DISTANCE_COLUMNS):
                        assert row[column] == "" or math.isfinite(float(row[column])), (
                            path.name, column, row)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(T=st.integers(1, 120), n=st.integers(1, 12), k=st.integers(1, 4),
           seed=st.integers(-1, 2**63),
           values=st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
           wild=st.tuples(st.integers(0, 7), st.floats()))
    # Sizes below 1: generate names them, before any array is sized by one.
    @example(T=10, n=-1, k=-2, seed=1, values=[0.0, 2.0, 0.5, 4.5], wild=(4, 0.0))
    @example(T=0, n=0, k=0, seed=1, values=[0.0, 2.0, 0.5, 4.5], wild=(4, 0.0))
    # A T past the last YYYYMM month, rejected before any month is built, a
    # negative seed and a huge factor volatility, whose square overflows.
    @example(T=10**9, n=3, k=1, seed=1, values=[0.0, 2.0, 0.5, 4.5], wild=(4, 0.0))
    @example(T=10, n=3, k=1, seed=-1, values=[0.0, 2.0, 0.5, 4.5], wild=(4, 0.0))
    @example(T=10, n=3, k=1, seed=1, values=[0.0, 2.0, 0.5, 4.5], wild=(3, 1e200))
    def test_synth_exit_codes_and_finite_returns(self, T, n, k, seed, values, wild):
        # In half the examples one option takes any float: nan, inf or huge.
        where, value = wild
        if where < len(values):
            values[where] = value
        options = ("--alpha", "--resid-vol", "--factor-mean", "--factor-vol")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            if _run_contract(["synth", f"--T={T}", f"--n={n}", f"--k={k}",
                              f"--seed={seed}",
                              *(f"{o}={v!r}" for o, v in zip(options, values))], out):
                return
            assert sorted(p.name for p in out.iterdir()) == ["factors.csv", "portfolios.csv"]
            for path in out.iterdir():
                _, rows = _read_rows(path)
                assert len(rows) == T
                for row in rows:
                    assert all(math.isfinite(float(v)) for v in list(row.values())[1:]), row
