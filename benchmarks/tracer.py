"""Outside-in layer tracing of ``factordist.cli.main``.

:class:`Tracer` replaces each traced function at every name a caller looks
it up by (module globals and class attributes) with a wrapper that records
a span: name, start, end and the span that was open when it was called.
Nothing under ``src/`` changes; uninstalling puts the originals back.

Run as a script, this file is the traced child process of
``benchmarks/run.py``: it times ``import factordist.cli``, then alternates
untraced and traced calls of ``main(argv)`` for the given number of
seconds and writes per-layer aggregates and the last traced run's spans.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

# (span name, defining module, attribute path). A target that a later
# version of the package no longer has is skipped and its metrics read 0.
# Spans without a metric in BENCHMARK.json still take their time out of
# their caller's self time.
TARGETS = (
    ("dataio.load_panel", "factordist.dataio", "load_panel"),
    ("dataio.load_models", "factordist.dataio", "load_models"),
    ("dataio.concat_panels", "factordist.dataio", "concat_panels"),
    ("dataio.build_dataset", "factordist.dataio", "build_dataset"),
    ("regression.fit_ols", "factordist.regression", "fit_ols"),
    ("regression.grs_test", "factordist.regression", "grs_test"),
    ("regression.sharpe_sq", "factordist.regression", "sharpe_sq"),
    ("linalg.cholesky_spd", "factordist.linalg", "cholesky_spd"),
    ("linalg.chol_solve", "factordist.linalg", "chol_solve"),
    ("linalg.spd_sqrt", "factordist.linalg", "spd_sqrt"),
    ("linalg.symmetrize", "factordist.linalg", "symmetrize"),
    ("linalg.f_cdf_upper", "factordist.linalg", "f_cdf_upper"),
    ("bayes.skeptic", "factordist.bayes", "posterior_alpha_skeptic"),
    ("bayes.skeptic", "factordist.bayes", "PosteriorFamily.skeptic"),
    ("bayes.family_init", "factordist.bayes", "PosteriorFamily.__init__"),
    ("bayes.at", "factordist.bayes", "PosteriorFamily.at"),
    ("bayes.gaussian_init", "factordist.bayes", "GaussianDist.__post_init__"),
    ("transport.wd2_components", "factordist.transport", "wd2_components"),
    ("transport.distance_breakdown", "factordist.transport", "distance_breakdown"),
    ("equiv.sweep", "factordist.equiv", "sweep"),
    ("equiv.solve_equiv", "factordist.equiv", "solve_equiv"),
    ("metrics.build_report", "factordist.metrics", "build_report"),
    ("metrics.rank_models", "factordist.metrics", "rank_models"),
)
ROOT_SPAN = "cli.main"


class Tracer:
    """Spans and counters of traced calls, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.counters = {"dataio.bytes_read": 0, "equiv.bisections": 0,
                         "equiv.not_bracketed": 0, "trace.exceptions": 0}
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        for key in self.counters:
            self.counters[key] = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        span = [name, 0, 0, stack[-1] if stack else -1]
        spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[2] = time.perf_counter_ns()
            stack.pop()
            self.counters["trace.exceptions"] += 1
            if type(exc).__name__ == "NotBracketedError":
                self.counters["equiv.not_bracketed"] += 1
            raise
        span[2] = time.perf_counter_ns()
        stack.pop()
        if name in ("dataio.load_panel", "dataio.load_models"):
            self.counters["dataio.bytes_read"] += os.path.getsize(args[0])
        elif name == "equiv.solve_equiv":
            self.counters["equiv.bisections"] += result.iterations
        return result

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every target at every module or class attribute bound to it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "factordist" or key.startswith("factordist.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules.get(module_name)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrapper(name, original)
            if cls_path:
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def aggregate(self) -> dict[str, float]:
        """Per-name ``.self_s``/``.calls`` plus root totals and counters."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - inner) / 1e9
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        roots = [s for s in self.spans if s[0] == ROOT_SPAN]
        total = sum(end - start for _, start, end, _ in roots) / 1e9
        out[f"{ROOT_SPAN}.total_s"] = total
        out["trace.layer_coverage"] = 1.0 - out.get(f"{ROOT_SPAN}.self_s", 0.0) / total
        out.update(self.counters)
        return out


def _run_child(job: dict) -> dict:
    """Time the import, then alternate untraced and traced ``main`` calls."""
    start = time.perf_counter()
    import factordist.cli as cli
    import_s = time.perf_counter() - start

    def run(out_dir: str) -> tuple[int, float]:
        t0 = time.perf_counter()
        code = cli.main([*job["argv"], "--out", out_dir])
        return code, time.perf_counter() - t0

    exit_codes = [run(job["untraced_out"])[0]]   # warm-up, untimed
    untraced, runs = [], []
    tracer = Tracer()
    deadline = time.perf_counter() + job["seconds"]
    while len(runs) < 2 or time.perf_counter() < deadline:
        code, elapsed = run(job["untraced_out"])
        exit_codes.append(code)
        untraced.append(elapsed)
        tracer.reset()
        tracer.install()
        try:
            code = tracer.call(ROOT_SPAN, cli.main,
                               [*job["argv"], "--out", job["traced_out"]])
        finally:
            tracer.uninstall()
        exit_codes.append(code)
        runs.append(tracer.aggregate())

    def timed(key: str) -> bool:
        return key.endswith(("_s", "_coverage"))

    counts = [{k: v for k, v in r.items() if not timed(k)} for r in runs]
    metrics = {key: statistics.median(r.get(key, 0) for r in runs)
               for key in set().union(*runs) if timed(key)}
    metrics.update(counts[0])
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_ratio"] = (metrics[f"{ROOT_SPAN}.total_s"]
                                       / statistics.median(untraced))
    with open(job["spans"], "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "metrics": metrics,
        "exit_codes": exit_codes,
        "counts_repeat": all(c == counts[0] for c in counts),
        "traced_runs": len(runs),
    }


if __name__ == "__main__":
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    Path(job["result"]).write_text(json.dumps(_run_child(job)), encoding="utf-8")
