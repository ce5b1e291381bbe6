"""Command-line interface: rank | sweep | equiv | synth.

Outputs are deterministic: identical inputs and flags produce byte-identical
CSVs (floats at 6 significant digits, no timestamps). A run has three steps:
``_load`` reads every input of ``rank``, ``sweep`` and ``equiv`` and tags
each file by a sha256 prefix of its bytes right after its parse; the
``cmd_*`` functions compute, each returning its metadata fields (input tags
and parameter values) and its tables; and ``main`` writes them once, under
one metadata comment line that starts with the tool version and command, so
a command that fails writes nothing. Exit codes: 0 success, 1 user or data error,
2 internal numerical failure. Where the GRS test is undefined (T - n - k < 1
or a singular residual covariance), ``rank`` still reports the distance,
leaves the GRS cells empty and names the reason on stderr.

Arguments are parsed before any numeric module loads: this module imports
only the standard library and ``errors``, and each ``cmd_*`` imports numpy
and the modules it runs when it starts. So ``--version``, ``--help`` and a
usage error load no numpy, and a command loads only its own modules.

Two entries: ``run()`` is the process entry, behind both
``python -m factordist.cli`` and the ``factordist`` console script, and
``main(argv)`` is the in-process entry, which returns the exit code. Only
``run()`` touches the garbage collector. It turns collection off for
``main``, as a command makes few reference cycles (``sweep`` and ``equiv``
ran 9-11 ms faster, ``rank`` no slower, on a 2-vCPU machine), and freezes
what is left once ``main`` has closed every output, as the shutdown
collection runs all the same (about 20 ms per command); atexit handlers and
the flush of the standard streams still run. ``main`` leaves the collector
as it found it, for a caller that goes on running.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from .errors import FactorDistError, InputError, NotBracketedError

if TYPE_CHECKING:
    from .dataio import Dataset, ModelSpec

DEFAULT_GRID = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
# How every output float is written.
_FLOAT = "%.6g"


def _fmt(value) -> str:
    return "" if value is None else _FLOAT % float(value)


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _file_tag(path: str | Path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return f"{Path(path).name}:{digest.hexdigest()[:12]}"


class _Parser(argparse.ArgumentParser):
    # Usage problems are user errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from None


def _write(out_dir: Path, metadata: str, tables: list[tuple[str, str, list[str]]]) -> None:
    """Write each ``(name, header, rows)`` table to ``out_dir/name`` under the
    ``# metadata`` line, all or nothing: a repeated name or a target that is
    a directory is rejected before any output is replaced. Each file is staged
    in a temporary file; each existing target is moved aside to a hidden name,
    its staged file renamed into the free name, and the old files are
    unlinked once every output is in place; if staging or any rename fails,
    the new files go and the old ones are renamed back. No rename lands on an
    existing file, so ext4 does not flush the staged data to disk as it does
    for a rename over one. The cost: while the set is replaced, a name may be
    briefly absent, but it is never half written."""
    files: dict[Path, str] = {}
    for name, header, rows in tables:
        path = out_dir / name
        if path in files:
            raise InputError(f"two outputs would be written to {path}")
        files[path] = "\n".join([f"# {metadata}", header, *rows]) + "\n"
    out_dir.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[Path, Path]] = []
    aside: list[tuple[Path, Path]] = []
    placed: list[Path] = []
    try:
        for path, body in files.items():
            if path.is_dir():
                raise IsADirectoryError(f"output path {path} is a directory")
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            staged.append((tmp, path))
            tmp.write_text(body, encoding="utf-8")
        for tmp, path in staged:
            if os.path.lexists(path):
                old = path.with_name(f".{path.name}.{os.getpid()}.old")
                os.rename(path, old)
                aside.append((old, path))
            os.rename(tmp, path)
            placed.append(path)
    except BaseException:
        for path in placed:
            path.unlink()
        for old, path in aside:
            os.rename(old, path)
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    for old, _ in aside:
        old.unlink()


def _load(args) -> tuple[Dataset, list[ModelSpec], list[str]]:
    """The dataset, models and metadata fields of ``rank``, ``sweep`` and
    ``equiv``. Each file is tagged right after its parse, before any fit."""
    from .dataio import (DEFAULT_MISSING_CODES, build_dataset, concat_panels,
                         load_models, load_panel)

    if args.missing is None:
        args.missing = ",".join(str(c) for c in DEFAULT_MISSING_CODES)
    missing = _parse_floats(args.missing)
    tags = []

    def read(load, path, *rest):
        value = load(path, *rest)
        tags.append(_file_tag(path))
        return value

    portfolios = concat_panels([read(load_panel, p, missing) for p in args.portfolios])
    dataset = build_dataset(portfolios, read(load_panel, args.factors, missing), args.rf)
    models = read(load_models, args.models)
    *ports, factors, models_tag = tags
    return dataset, models, [
        "portfolios=" + ",".join(ports), f"factors={factors}", f"models={models_tag}",
        f"rf={args.rf}", f"missing={args.missing}"]


def cmd_rank(args) -> tuple[list[str], list]:
    import numpy as np

    from .bayes import distance_breakdown, skeptic_moments
    from .metrics import GRS_UNDEFINED, build_report, rank_models
    from .regression import _fit_models

    dataset, models, fields = _load(args)
    results = []
    for fit, deferred_grs in _fit_models(dataset, models):
        alpha, var = skeptic_moments(fit)
        try:
            grs = deferred_grs()
        except GRS_UNDEFINED as exc:
            print(f"warning: model {fit.model.name!r}: GRS not reported: {exc}",
                  file=sys.stderr)
            grs = None
        report = build_report(fit, distance_breakdown(alpha, var), grs)
        results.append((report, alpha, var))
    ranked = rank_models([r for r, _, _ in results])
    header = ("model,n,T,k,TD,AD,RMSE_alpha,RMSE_sigma,ratio_var,"
              "GRS,GRS_pvalue,MAE,MAE_over_Ar,mean_R2")
    rows = [",".join([
        r.model_name, str(r.n), str(r.T), str(r.k),
        _fmt(r.td), _fmt(r.ad), _fmt(r.rmse_alpha), _fmt(r.rmse_sigma),
        _fmt(r.ratio_var), _fmt(r.grs), _fmt(r.grs_pvalue),
        _fmt(r.mae), _fmt(r.mae_over_ar), _fmt(r.mean_r2),
    ]) for r in ranked]
    tables = [("report.csv", header, rows)]
    assets = dataset.portfolios.names
    row_format = ",".join(["%s"] + 4 * [_FLOAT])
    for report, alpha, var in results:
        sigma = np.sqrt(var)
        with np.errstate(divide="ignore", invalid="ignore"):
            tstat = np.where(sigma > 0.0, alpha / sigma, np.inf)
        lines = [row_format % row for row in zip(
            assets, alpha.tolist(), sigma.tolist(), tstat.tolist(),
            report.marginal.tolist())]
        tables.append((f"marginal_{_sanitize(report.model_name)}.csv",
                       "asset,alpha,sigma_alpha,t_stat,marginal", lines))
    return fields, tables


def cmd_sweep(args) -> tuple[list[str], list]:
    from .bayes import PosteriorFamily
    from .equiv import check_grid, sweep
    from .regression import _fit_models

    grid = _parse_floats(args.grid)
    dataset, models, fields = _load(args)
    check_grid(grid)  # before any model's fit can fail
    # One model at a time: a model's sweep failure comes before a later
    # model's fit or family error.
    rows = [
        ",".join([fit.model.name, _fmt(r.sigma_alpha_annual), _fmt(r.ad),
                  _fmt(r.rmse_alpha), _fmt(r.rmse_sigma), _fmt(r.ratio_var)])
        for fit, _ in _fit_models(dataset, models)
        for r in sweep(PosteriorFamily(fit), grid)
    ]
    return [*fields, f"grid={args.grid}"], [
        ("sweep.csv", "model,sigma_alpha_annual,AD,RMSE_alpha,RMSE_sigma,ratio", rows)]


def cmd_equiv(args) -> tuple[list[str], list]:
    from .bayes import PosteriorFamily, distance_breakdown, skeptic_moments
    from .equiv import DEFAULT_BRACKET_HI, check_bracket_hi, solve_equivs
    from .regression import _fit_models

    if args.bracket_hi is None:
        args.bracket_hi = DEFAULT_BRACKET_HI
    check_bracket_hi(args.bracket_hi)
    dataset, models, fields = _load(args)
    by_name = {m.name: m for m in models}
    if args.benchmark not in by_name:
        raise InputError(f"benchmark model {args.benchmark!r} not in model file")
    alternatives = args.alternatives or [m.name for m in models
                                         if m.name != args.benchmark]
    for name in alternatives:
        if name not in by_name:
            raise InputError(f"alternative model {name!r} not in model file")

    fits = _fit_models(dataset, [by_name[n] for n in (args.benchmark, *alternatives)])
    benchmark_fit, _ = next(fits)
    benchmark_ad = distance_breakdown(*skeptic_moments(benchmark_fit)).ad
    families, failure = [], None
    try:
        for fit, _ in fits:
            families.append(PosteriorFamily(fit))
    except FactorDistError as exc:
        failure = exc
    # An alternative before the one that failed reports its own
    # NoConvergenceError first, as one alternative at a time would.
    results = solve_equivs(families, benchmark_ad, bracket_hi=args.bracket_hi)
    if failure is not None:
        raise failure
    rows = []
    for family, res in zip(families, results):
        if isinstance(res, NotBracketedError):
            rows.append(",".join([family.fit.model.name, args.benchmark, "", "",
                                  "0", "false", "not_bracketed"]))
        else:
            rows.append(",".join([
                res.alt_model, args.benchmark, _fmt(res.sigma_star_annual),
                _fmt(res.ad_at_star), str(res.iterations), "true", "ok",
            ]))
    return [*fields, f"benchmark={args.benchmark}", f"bracket_hi={args.bracket_hi}"], [
        ("equiv.csv", "alt_model,benchmark_model,sigma_star_annual,"
                      "ad_at_star,iterations,converged,status", rows)]


def cmd_synth(args) -> tuple[list[str], list]:
    import numpy as np

    from .linalg import square
    from .synth import RNG_ALGORITHM, SynthConfig, generate

    # generate rejects an n or k below 1 by name; numpy cannot size by one.
    n, k = max(args.n, 0), max(args.k, 0)
    config = SynthConfig(
        T=args.T,
        n=args.n,
        k=args.k,
        true_alpha=np.full(n, args.alpha),
        true_beta=np.ones((n, k)),
        factor_mean=np.full(k, args.factor_mean),
        # A square that overflows is inf, which generate rejects.
        factor_cov=np.diag(np.full(k, square(args.factor_vol))),
        resid_cov=np.diag(np.full(n, square(args.resid_vol))),
        seed=args.seed,
    )
    # generate warns about a short sample; say so in one plain line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dataset = generate(config)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    fields = [
        f"T={args.T}", f"n={args.n}", f"k={args.k}", f"seed={args.seed}",
        f"alpha={_fmt(args.alpha)}", f"resid_vol={_fmt(args.resid_vol)}",
        f"factor_mean={_fmt(args.factor_mean)}",
        f"factor_vol={_fmt(args.factor_vol)}", f"rng={RNG_ALGORITHM}",
    ]
    tables = []
    for name, panel, rf in (("portfolios.csv", dataset.portfolios, ()),
                            ("factors.csv", dataset.factors, (0.0,))):
        # The factors file ends in an RF column of zeros.
        names = panel.names + ("RF",) * len(rf)
        row_format = ",".join(["%d"] + [_FLOAT] * len(names))
        tables.append((name, "date," + ",".join(names),
                       [row_format % (d, *row.tolist(), *rf)
                        for d, row in zip(panel.dates, panel.values)]))
    return fields, tables


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--portfolios", nargs="+", required=True,
                   help="portfolio returns CSV(s); several files are "
                        "column-concatenated after date alignment")
    p.add_argument("--factors", required=True, help="factor returns CSV")
    p.add_argument("--models", required=True, help="model definition file")
    p.add_argument("--rf", default="RF", help="risk-free column name")
    # None stands for dataio.DEFAULT_MISSING_CODES, filled in after its import.
    p.add_argument("--missing", default=None, help="comma-separated missing-value codes")
    p.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="factordist",
                     description="Distance-based comparison of asset-pricing "
                                 "factor models.")
    parser.add_argument("--version", action="version",
                        version=f"factordist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="fit models and rank by average distance")
    _add_data_options(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_sweep = sub.add_parser("sweep", help="distance metrics over a sigma grid")
    _add_data_options(p_sweep)
    p_sweep.add_argument("--grid", default=",".join(str(g) for g in DEFAULT_GRID),
                         help="comma-separated annualized sigma values (percent)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_equiv = sub.add_parser("equiv", help="solve for distance-equivalent sigma")
    _add_data_options(p_equiv)
    p_equiv.add_argument("--benchmark", required=True, help="benchmark model name")
    p_equiv.add_argument("--alternatives", nargs="*", default=None,
                         help="alternative model names (default: all others)")
    # None stands for equiv.DEFAULT_BRACKET_HI, filled in after its import.
    p_equiv.add_argument("--bracket-hi", type=float, default=None,
                         help="upper bisection bracket, annual percent; at most "
                              "1e-6 * 2**200 (~1.6e54), which 200 halvings narrow to 1e-6")
    p_equiv.set_defaults(func=cmd_equiv)

    p_synth = sub.add_parser("synth", help="write synthetic returns CSVs")
    p_synth.add_argument("--out", default=".", help="output directory")
    p_synth.add_argument("--T", type=int, default=600, help="months")
    p_synth.add_argument("--n", type=int, default=5, help="assets")
    p_synth.add_argument("--k", type=int, default=1, help="factors")
    p_synth.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_synth.add_argument("--alpha", type=float, default=0.0,
                         help="common true alpha, percent per month")
    p_synth.add_argument("--resid-vol", type=float, default=2.0,
                         help="residual vol, percent per month")
    p_synth.add_argument("--factor-mean", type=float, default=0.5,
                         help="factor mean, percent per month")
    p_synth.add_argument("--factor-vol", type=float, default=4.5,
                         help="factor vol, percent per month")
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fields, tables = args.func(args)
        metadata = " | ".join([f"factordist {__version__}", f"cmd={args.command}", *fields])
        _write(Path(args.out), metadata, tables)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FactorDistError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Run ``main()`` on ``sys.argv``, collector off, and exit with its code."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
