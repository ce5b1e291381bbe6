from pathlib import Path

import numpy as np
import pytest

from factordist import __version__
from factordist.cli import main

DATA = Path(__file__).parent / "data"


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

    def test_dogmatic_distance_builds_no_posterior_matrix(self, tmp_path, monkeypatch):
        # rank and the equiv target read only skeptic_moments: no n x n
        # skeptic posterior and no PosteriorFamily. equiv builds one family
        # per alternative.
        import factordist.bayes as bayes
        import factordist.cli as cli

        calls = {"skeptic": 0, "family": 0}
        real_skeptic = bayes.posterior_alpha_skeptic
        real_init = bayes.PosteriorFamily.__init__

        def counted_skeptic(fit):
            calls["skeptic"] += 1
            return real_skeptic(fit)

        def counted_init(self, dataset, model):
            calls["family"] += 1
            real_init(self, dataset, model)

        monkeypatch.setattr(bayes, "posterior_alpha_skeptic", counted_skeptic)
        monkeypatch.setattr(cli, "posterior_alpha_skeptic", counted_skeptic,
                            raising=False)
        monkeypatch.setattr(bayes.PosteriorFamily, "__init__", counted_init)
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
    line.

    The files under tests/data (``golden_<output name>``) fix every printed
    number; rewrite them only for an intended change of output.
    """

    OUTPUTS = {"rank": ("report.csv", "marginal_M3.csv"),
               "sweep": ("sweep.csv",), "equiv": ("equiv.csv",)}

    @pytest.mark.parametrize("command,extra", [
        ("sweep", ()),
        ("equiv", ("--benchmark", "M3")),
        ("rank", ()),
    ])
    def test_matches_golden(self, tmp_path, command, extra):
        ports, facts = _synth(tmp_path, n=6, k=3)
        models = _models(tmp_path, "M1 = F1\nM2 = F1,F2\nM3 = F1,F2,F3\n")
        out = tmp_path / "out"
        assert main([command, "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models), "--out", str(out),
                     *extra]) == 0
        for name in self.OUTPUTS[command]:
            got = (out / name).read_bytes().split(b"\n", 1)
            want = (DATA / f"golden_{name}").read_bytes().split(b"\n", 1)
            assert got[0].startswith(b"# factordist")
            assert got[1] == want[1], name


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


    @pytest.mark.parametrize("hi", ["nan", "-5", "inf", "0"])
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


class TestSynthCommand:
    def test_outputs_reingest(self, tmp_path):
        ports, facts = _synth(tmp_path)
        from factordist import build_dataset, load_panel
        dataset = build_dataset(load_panel(ports), load_panel(facts), "RF")
        assert dataset.t_obs == 240
        assert dataset.factors.names == ("F1", "F2")
        # RF column is zero, so ingested returns are already excess.
        assert dataset.n_assets == 4

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

        def boom(dataset, model):
            raise NumericalError("synthetic breakage")

        monkeypatch.setattr("factordist.cli.fit_ols", boom)
        ports, facts = _synth(tmp_path)
        models = _models(tmp_path)
        code = main(["rank", "--portfolios", str(ports), "--factors",
                     str(facts), "--models", str(models),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "synthetic breakage" in capsys.readouterr().err
