"""End-to-end and per-layer benchmark of the ``factordist`` CLI.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload rank-wide --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

``--trace 0`` times the CLI as a subprocess, one invocation at a time
(closed loop, one client), and reports the end-to-end metrics of
``BENCHMARK.json``. ``--trace 1`` runs the same CLI in a traced child
process (``benchmarks/tracer.py``) and reports the per-layer metrics.
Every invocation's outputs are checked against an independent numpy
oracle. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, and the provenance.
Scratch files go to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, here and in every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from oracle import CheckError, EquivCheck, Oracle, RankCheck, SweepCheck  # noqa: E402
from workloads import WORKLOADS, Workload, cli_args, write_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().with_name("tracer.py")
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), **THREAD_ENV}
SETUP_REPS = 12
CLI_TIMEOUT_S = 150.0
# A sample this many times its run's median is reported as an outlier.
OUTLIER_FACTOR = 2.0
# Median time of calibrate() on the reference machine (2-vCPU Xeon VM).
CALIBRATION_S = 0.16

_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL, _CAL_LARGE = (a @ a.T for a in (_CAL_RNG.standard_normal((25, 25)),
                                            _CAL_RNG.standard_normal((200, 200))))


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and small/large ``eigh``.

    The speed of a shared virtual CPU drifts by 10-30% within seconds to
    minutes, and the CLI slows with it. Each timed sample is scaled by
    ``CALIBRATION_S`` over the calibration time around it, on the same
    pinned CPU, which removes most of that drift from the reported medians
    (raw medians are printed too).
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(500_000):
        total += (i % 7) * 0.5
    for _ in range(500):
        np.linalg.eigh(_CAL_SMALL)
    for _ in range(10):
        np.linalg.eigh(_CAL_LARGE)
    return time.perf_counter() - start


def spawn(argv: list[str], stdout: Path, stderr: Path,
          timeout: float = CLI_TIMEOUT_S) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, max RSS in KiB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], CHILD_ENV,
                         file_actions=actions)
    killer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


def output_check(workload: Workload, oracle: Oracle):
    if workload.command == "rank":
        return RankCheck(oracle)
    option = dict(zip(workload.extra_args[::2], workload.extra_args[1::2]))
    if workload.command == "sweep":
        return SweepCheck(oracle, [float(g) for g in option["--grid"].split(",")])
    return EquivCheck(oracle, option["--benchmark"])


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return (names == sorted(p.name for p in b.iterdir())
            and all((a / n).read_bytes() == (b / n).read_bytes() for n in names))


def summary(samples: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                  else samples * 3)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples),
            "outliers": [x for x in samples
                         if x > OUTLIER_FACTOR * statistics.median(samples)]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "child_env": THREAD_ENV,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "cpu": cpu,
        "git_commit": git_commit(),
    }


class Run:
    """One workload, one seed: inputs, oracle, invocations and tallies."""

    def __init__(self, workload: Workload, seed: int, trace: int):
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        start = time.perf_counter()
        self.paths = write_inputs(workload, seed, self.dir / "inputs")
        self.input_bytes = {k: p.stat().st_size for k, p in self.paths.items()}
        self.check = output_check(workload, Oracle(self.paths, workload.models))
        self.prepare_s = time.perf_counter() - start
        self.args = cli_args(workload, self.paths)
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def tally(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def cli(self, argv: list[str], tag: str) -> tuple[int, float, int]:
        return spawn(["-m", "factordist.cli", *argv], self.dir / f"{tag}.out",
                     self.dir / f"{tag}.err")

    def failure(self, code: int, tag: str) -> str | None:
        if code == 0:
            return None
        return f"{tag} exit code {code}: {(self.dir / f'{tag}.err').read_text()[-500:]}"

    def version(self) -> float:
        code, wall, _ = self.cli(["--version"], "version")
        text = (self.dir / "version.out").read_text()
        self.tally(self.failure(code, "version") or (
            None if text.startswith("factordist ") else f"--version printed {text!r}"))
        return wall

    def invoke(self, out: Path) -> tuple[float, int]:
        """One checked invocation of the workload: (wall seconds, max RSS KiB)."""
        shutil.rmtree(out, ignore_errors=True)
        code, wall, rss = self.cli([*self.args, "--out", str(out)], "cli")
        self.tally(self.failure(code, "cli") or self.verify(out))
        return wall, rss

    def verify(self, out: Path) -> str | None:
        missing = [f for f in self.check.files() if not (out / f).is_file()]
        if missing:
            return f"missing outputs {missing}"
        try:
            self.check.check(out)
        except (CheckError, OSError, ValueError, IndexError) as exc:
            return f"output check: {exc}"
        return None

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        """Time ``--version`` runs, then workload runs until ``seconds`` pass.

        A calibration runs before the first sample and after every sample;
        each sample is scaled by the mean of the two around it.
        """
        self.invoke(self.dir / "out")   # warm-up: page cache and bytecode
        calib = [calibrate()]
        setup, walls, rss = [], [], []
        for _ in range(SETUP_REPS):
            setup.append(self.version())
            calib.append(calibrate())
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            wall, kib = self.invoke(self.dir / "out")
            walls.append(wall)
            rss.append(kib / 1024.0)
            calib.append(calibrate())
        scale = [2.0 * CALIBRATION_S / (a + b) for a, b in zip(calib, calib[1:])]
        stats = {"wall_s": summary(walls), "peak_rss_mb": summary(rss),
                 "setup_s": summary(setup), "calibrate_s": summary(calib)}
        return {
            "wall_s": statistics.median(
                t * f for t, f in zip(walls, scale[SETUP_REPS:])),
            "setup_s": statistics.median(t * f for t, f in zip(setup, scale)),
            "peak_rss_mb": stats["peak_rss_mb"]["median"],
        }, stats

    def per_layer(self, seconds: float, spans: Path) -> tuple[dict, dict]:
        ref = self.dir / "ref"
        self.invoke(ref)
        job = {
            "argv": self.args, "seconds": seconds, "spans": str(spans),
            "untraced_out": str(self.dir / "untraced"),
            "traced_out": str(self.dir / "traced"),
            "result": str(self.dir / "trace.json"),
        }
        job_path = self.dir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        code, _, _ = spawn([str(TRACER), str(job_path)], self.dir / "trace.out",
                           self.dir / "trace.err", timeout=seconds + CLI_TIMEOUT_S)
        if code != 0:
            self.tally(self.failure(code, "trace"))
            return {}, {}
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        for code in result["exit_codes"]:
            self.tally(None if code == 0 else f"in-process main exit {code}")
        for tag in ("traced", "untraced"):
            out = self.dir / tag
            self.tally(self.verify(out) or (
                None if same_files(out, ref) else f"{tag} outputs differ from CLI"))
        self.tally(None if result["counts_repeat"]
                   else "call counts differ between traced runs")
        metrics = result["metrics"]
        metrics["cli.bytes_written"] = sum(p.stat().st_size
                                           for p in (self.dir / "traced").iterdir())
        return metrics, {"traced_runs": result["traced_runs"]}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> dict:
    workload = WORKLOADS[name]
    run = Run(workload, seed, trace)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    try:
        if trace:
            raw, stats = run.per_layer(seconds, results / f"{stem}.spans.jsonl")
            wanted = spec["per_layer"]
        else:
            raw, stats = run.end_to_end(seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    metrics = {m["name"]: {"value": raw.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    print(f"workload {name} seed {seed} trace {trace}: "
          f"inputs and oracle {run.prepare_s:.2f} s, input bytes {run.input_bytes}")
    for key, metric in metrics.items():
        line = f"  {key} = {metric['value']:.6g} {metric['unit']}"
        if key in stats:
            s = stats[key]
            line += (f" (raw median {s['median']:.6g} of {s['n']} samples, "
                     f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
            if s["outliers"]:
                line += f" OUTLIERS {[round(x, 4) for x in s['outliers']]}"
        print(line)
    if "traced_runs" in stats:
        print(f"  per-layer values are medians of {stats['traced_runs']} traced runs")
    if "calibrate_s" in stats:
        s = stats["calibrate_s"]
        print(f"  times scaled per sample to calibrate_s = {CALIBRATION_S:g} s "
              f"(measured median {s['median']:.6g} of {s['n']})")
    print(f"  fail_ratio = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted} invocations)")
    for error in run.errors:
        print(f"  FAILED: {error}")
    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "input_bytes": run.input_bytes, "provenance": provenance(), "stats": stats,
        "attempted": run.attempted, "failed": run.failed, "errors": run.errors,
        "metrics": metrics,
    }
    print("provenance " + json.dumps(record["provenance"]))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "factordist" / "__init__.py").is_file():
        print(f"error: no factordist sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every child: the calibration then
    # measures the CPU the CLI runs on.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"warning: running unpinned: {exc}", file=sys.stderr)
    sys.path.insert(0, str(SRC))
    import factordist

    if Path(factordist.__file__).resolve().parent != SRC / "factordist":
        print(f"error: imported factordist from {factordist.__file__}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, spec)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
