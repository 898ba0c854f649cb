#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of posheaf.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 20 --trace 0

The run builds the workload's documents from the seed, writes them under
``perfbench/_work``, computes independent references for every job, then
runs passes over the job list in this one process, through
``posheaf.cli.cli(argv)`` and, for the library job ``cohomology``, through
``cochain.build_complex`` and ``cochain.cohomology``.  Every output is checked
against its reference.  ``--trace 1`` alternates untraced and traced passes
and reports per-layer metrics instead of end-to-end ones.

Stdout carries one detail line (every metric, the environment and the sample
counts) and then, as the last line, the result object whose metrics are the
ones ``BENCHMARK.json`` lists for the chosen mode.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so runs fit a two-core machine.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 9
# Calibration: a fixed pure-Python probe runs between jobs (about every
# PROBE_EVERY_S of job time); every reported time t is scaled to
# t * PROBE_REF_S / probe time around it, i.e. to a CPU on which the probe
# takes PROBE_REF_S.  The shared machine this was written on drifts by 20-40 %
# in speed over minutes, and the probe ratio cancels most of that drift.
PROBE_EVERY_S = 0.025
PROBE_REF_S = 0.002
MIN_TRACED_PASSES = 2
P99_MIN_SAMPLES = 1000

UNITS = {"io.bytes_in": "bytes", "linalg.rref_density": "ratio",
         "trace.overhead_frac": "ratio", "failed_frac": "ratio"}


def unit_of(name: str) -> str:
    if name in spans.COUNTS:
        return "count"
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    return "MB" if name.endswith("_mb") else "s"


def import_posheaf():
    """Fresh import of the package (earlier copies are dropped first)."""
    for name in [n for n in sys.modules if n == "posheaf" or n.startswith("posheaf.")]:
        del sys.modules[name]
    pkg = importlib.import_module("posheaf")
    for sub in ("cli", "cochain", "io", "errors"):
        importlib.import_module(f"posheaf.{sub}")
    return pkg


def setup(workload: str, seed: int):
    """Import posheaf, build the documents and write them; returns the
    package, documents, jobs and the elapsed time."""
    start = time.perf_counter()
    pkg = import_posheaf()
    docs, jobs = gen.build(workload, seed)
    WORK.mkdir(parents=True, exist_ok=True)
    for d in docs:
        (WORK / d.name).write_text(d.text)
    return pkg, docs, jobs, time.perf_counter() - start


_PROBE_DOC = json.dumps({
    "elements": [f"x{i}" for i in range(16)],
    "maps": {f"x{i}<x{i + 1}": [f"{i % 5 - 2}/{i % 3 + 1}", str(i)] for i in range(15)},
})


def probe() -> float:
    """Seconds taken by a fixed mix of the interpreter work posheaf does:
    JSON parsing and emission, Fraction literals and arithmetic, dict and list
    building, sorting with a key, and a small modular elimination."""
    start = time.perf_counter()
    for _ in range(6):
        doc = json.loads(_PROBE_DOC)
        values = [Fraction(v) for entries in doc["maps"].values() for v in entries]
        acc = sum(a * b - c for a, b, c in zip(values, values[1:], values[2:]))
        index = {e: i for i, e in enumerate(doc["elements"])}
        keys = sorted(doc["maps"], key=lambda k: -index[k.split("<")[1]])
        rows = [[(i * j + 1) % 7 for j in range(10)] for i in range(10)]
        for c in range(10):
            pivot = next((r for r in range(c, 10) if rows[r][c]), None)
            if pivot is None:
                continue
            rows[c], rows[pivot] = rows[pivot], rows[c]
            inv = pow(rows[c][c], -1, 7)
            for r in range(c + 1, 10):
                f = rows[r][c] * inv % 7
                rows[r] = [(x - f * y) % 7 for x, y in zip(rows[r], rows[c])]
        json.dumps({"acc": str(acc), "keys": keys, "rows": rows})
    return time.perf_counter() - start


@dataclass
class Pass:
    """One pass: calibrated and raw wall time, per-job (seconds, exit code,
    stdout) and each job's calibration factor."""

    wall: float
    raw_wall: float
    records: list
    scales: list

    def job_times(self) -> list[float]:
        return [dt * f for (dt, _, _), f in zip(self.records, self.scales)]


class Runner:
    """Runs jobs in-process and records (seconds, exit code, stdout)."""

    def __init__(self, pkg, jobs):
        self.pkg = pkg
        self.jobs = jobs
        self.tracer = None  # a spans.Tracer during traced passes
        self.bytes_in = sum((WORK / f).stat().st_size for j in jobs for f in j.files)

    def _cohomology(self, path: Path) -> int:
        pkg = self.pkg
        try:
            sheaf = pkg.io.parse_sheaf(path.read_text())
            groups = pkg.cochain.cohomology(pkg.cochain.build_complex(sheaf, "minimal"))
        except pkg.errors.PosheafError as exc:
            sys.stdout.write(pkg.io.canonical_json(
                {"error": {"code": exc.code, "message": str(exc)}}) + "\n")
            return 1
        report = {
            "betti": [dim for dim, _ in groups],
            "representatives": [
                [[pkg.io.scalar_to_string(v, sheaf.field) for v in vec] for vec in reps]
                for _, reps in groups
            ],
        }
        sys.stdout.write(pkg.io.canonical_json(report) + "\n")
        return 0

    def _call(self, job) -> int:
        if job.kind == "cohomology":
            return self._cohomology(WORK / job.doc)
        argv = [str(WORK / a) if a in job.files else a for a in job.argv]
        return self.pkg.cli.cli(argv)

    def run(self, index: int, job):
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if self.tracer is None:
                    rc = self._call(job)
                else:
                    name = "bench.cohomology" if job.kind == "cohomology" else "cli"
                    with self.tracer.span(name, index):
                        rc = self._call(job)
        except Exception:  # a traceback is a failed job, recorded with its text
            rc, text = -1, out.getvalue() + traceback.format_exc()
        else:
            text = out.getvalue()
        return time.perf_counter() - start, rc, text

    def one_pass(self) -> Pass:
        gc.collect()
        records, scales = [], []
        wall = raw_wall = 0.0
        before = probe()
        start, pending = time.perf_counter(), 0
        for i, job in enumerate(self.jobs):
            records.append(self.run(i, job))
            pending += 1
            elapsed = time.perf_counter() - start
            if elapsed >= PROBE_EVERY_S or i == len(self.jobs) - 1:
                after = probe()
                factor = 2.0 * PROBE_REF_S / (before + after)
                scales += [factor] * pending
                wall += elapsed * factor
                raw_wall += elapsed
                before = after
                start, pending = time.perf_counter(), 0
        return Pass(wall, raw_wall, records, scales)


def check_pass(jobs, records, refs, failures: list) -> int:
    failed = 0
    for job, (_, rc, out) in zip(jobs, records):
        reason = oracle.check(job, rc, out, refs)
        if reason is not None:
            failed += 1
            failures.append(f"{' '.join(job.argv)}: {reason}")
    return failed


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def timed_run(runner, jobs, refs, seconds: float, setup_times: list[float]):
    passes, per_kind, latencies, raw_latencies = [], {}, [], []
    failures: list[str] = []
    failed = 0
    start = time.perf_counter()
    while True:
        p = runner.one_pass()
        passes.append(p)
        kinds: dict[str, float] = {}
        for job, dt in zip(jobs, p.job_times()):
            kinds[job.kind] = kinds.get(job.kind, 0.0) + dt
        latencies += p.job_times()
        raw_latencies += [dt for dt, _, _ in p.records]
        for kind, total in kinds.items():
            per_kind.setdefault(kind, []).append(total)
        failed += check_pass(jobs, p.records, refs, failures)
        if time.perf_counter() - start >= seconds:
            break
    attempted = len(jobs) * len(passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_p50_ms": 1000.0 * percentile(latencies, 50),
        "job_p90_ms": 1000.0 * percentile(latencies, 90),
        "raw_wall_s": statistics.median(p.raw_wall for p in passes),
        "raw_job_p50_ms": 1000.0 * percentile(raw_latencies, 50),
        "raw_job_p90_ms": 1000.0 * percentile(raw_latencies, 90),
    }
    if len(latencies) >= P99_MIN_SAMPLES:
        metrics["job_p99_ms"] = 1000.0 * percentile(latencies, 99)
    for kind, totals in per_kind.items():
        metrics[f"{kind.replace('-', '_')}_s"] = statistics.median(totals)
    samples = {"passes": len(passes), "pass_walls_s": [p.wall for p in passes],
               "raw_pass_walls_s": [p.raw_wall for p in passes],
               "jobs_per_pass": len(jobs), "latency_samples": len(latencies),
               "setup_repeats": len(setup_times), "failed_frac_base": attempted}
    return metrics, samples, attempted, failed, failures


def traced_run(runner, jobs, refs, seconds: float, workload: str, seed: int):
    tracer = spans.Tracer()
    untraced_walls, traced_walls, layer_metrics = [], [], []
    failures: list[str] = []
    failed = attempted = 0
    start = time.perf_counter()
    while len(traced_walls) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        if len(traced_walls) != 1:  # passes run U T T U T U T ...
            p = runner.one_pass()
            untraced_walls.append(p.wall)
            plain = p.records
            failed += check_pass(jobs, plain, refs, failures)
            attempted += len(jobs)
        tracer.reset()
        tracer.install()
        runner.tracer = tracer
        try:
            p = runner.one_pass()
        finally:
            runner.tracer = None
            tracer.uninstall()
        traced_walls.append(p.wall)
        traced = p.records
        metrics = tracer.metrics()
        metrics["io.bytes_in"] = runner.bytes_in
        layer_metrics.append(metrics)
        if len(traced_walls) == 1:
            span_count = len(tracer.spans)
            exercised = {name.split(".")[0] for name in tracer.self_time}
            tracer.write(WORK / f"trace-{workload}-seed{seed}.json",
                         {"workload": workload, "seed": seed})
        failed += check_pass(jobs, traced, refs, failures)
        attempted += len(jobs)
        for job, (_, _, a), (_, _, b) in zip(jobs, plain, traced):
            if a != b:
                failed += 1
                failures.append(f"{' '.join(job.argv)}: traced stdout differs")
    first = layer_metrics[0]
    for other in layer_metrics[1:]:
        for name in spans.COUNTS + ("io.bytes_in",):
            if other[name] != first[name]:
                failed += 1
                failures.append(f"count {name} differs between traced passes")
    out = {}
    for name in first:
        values = [m[name] for m in layer_metrics]
        out[name] = statistics.median(values) if unit_of(name) == "s" else first[name]
    out["trace.overhead_frac"] = (statistics.median(traced_walls)
                                  / statistics.median(untraced_walls) - 1.0)
    samples = {"traced_passes": len(traced_walls),
               "untraced_passes": len(untraced_walls), "jobs_per_pass": len(jobs),
               "spans_first_traced_pass": span_count, "failed_frac_base": attempted,
               "modules": sorted(exercised | {"io", "trace"})}
    return out, samples, attempted, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "posheaf" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"posheaf sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        pkg, docs, jobs, elapsed = setup(args.workload, args.seed)
        setup_times.append(elapsed * 2.0 * PROBE_REF_S / (before + probe()))
    refs = oracle.references(docs, jobs)
    runner = Runner(pkg, jobs)
    seen = set()
    for i, job in enumerate(jobs):  # warm-up: the first job of every kind
        if job.kind not in seen:
            seen.add(job.kind)
            runner.run(i, job)

    if args.trace:
        metrics, samples, attempted, failed, failures = traced_run(
            runner, jobs, refs, args.seconds, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        metrics, samples, attempted, failed, failures = timed_run(
            runner, jobs, refs, args.seconds, setup_times)
        wanted = spec["end_to_end"]
    shown = {k: v for k, v in metrics.items()
             if "modules" not in samples or k.split(".")[0] in samples["modules"]}
    shown["failed_frac"] = failed / attempted
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "samples": samples,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in shown.items()},
        "failures": failures[:20],
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
