"""Tests of the benchmark itself: seeded documents, reference checks, tracing.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _digests(workload: str, seed: int) -> list[str]:
    docs, _ = gen.build(workload, seed)
    return [gen.digest(d.text) for d in docs]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_documents(workload):
    assert _digests(workload, 11) == _digests(workload, 11)
    assert _digests(workload, 11) != _digests(workload, 12)


def _variant(job) -> tuple:
    options = tuple(job.argv[i + 1] for i, a in enumerate(job.argv)
                    if a in ("--method", "--norm", "--mode"))
    return job.kind, options, job.files[-1].endswith("_eta.json")


def _first_of_each_kind(jobs):
    seen, out = set(), []
    for job in jobs:
        key = _variant(job)
        if key not in seen:
            seen.add(key)
            out.append(job)
    return out


@pytest.fixture(scope="module")
def outputs():
    """Real program outputs for one job of every kind and option, per workload."""
    result = {}
    for workload in gen.WORKLOADS:
        pkg, docs, jobs, _ = run.setup(workload, 5)
        if workload == "exact-ladder":  # keep the smoke run small
            docs = [d for d in docs if "160" not in d.name and "10" not in d.name]
            jobs = [j for j in jobs if j.doc in {d.name for d in docs}]
        jobs = _first_of_each_kind(jobs)
        refs = oracle.references(docs, jobs)
        runner = run.Runner(pkg, jobs)
        records = runner.one_pass().records
        result[workload] = (pkg, jobs, refs, runner, records)
    return result


def test_program_outputs_match_references(outputs):
    for workload, (_, jobs, refs, _, records) in outputs.items():
        for job, (_, rc, out) in zip(jobs, records):
            assert oracle.check(job, rc, out, refs) is None, (workload, job.argv)


def _perturbed(outputs, kind: str, mutate):
    """Apply ``mutate`` to the parsed report of the first job of ``kind``."""
    for _, jobs, refs, _, records in outputs.values():
        for job, (_, rc, out) in zip(jobs, records):
            if job.kind == kind:
                report = json.loads(out)
                mutate(report)
                return job, refs, json.dumps(report) + "\n"
    raise AssertionError(f"no {kind} job")


def _bump_list(values: list, i: int, delta):
    values[i] = values[i] + delta


WRONG_ANSWERS = {
    "betti": lambda r: _bump_list(r["betti"], 0, 1),
    "cohomology": lambda r: _bump_list(r["betti"], -1, 1),
    "sections": lambda r: r["sections"].update(dim=r["sections"]["dim"] + 1),
    "validate": lambda r: r.update(ok=False),
    "classify": lambda r: r["classification"].update(graded=not r["classification"]["graded"]),
    "incidence": lambda r: r["incidence"]["generators"][-1].update(
        degree=r["incidence"]["generators"][-1]["degree"] + 1),
    "spectrum": lambda r: _bump_list(r["spectrum"]["eigenvalues"], -1, 1e-6),
    "diffuse": lambda r: _bump_list(r["trace"]["limit"], 0, 1e-3),
    "nsd-forward": lambda r: _bump_list(r["output"][0], 0, 1e-7),
    "learn": lambda r: r["learn"]["loss_history"].append(r["learn"]["loss_history"][0]),
}


@pytest.mark.parametrize("kind", sorted(WRONG_ANSWERS))
def test_reference_flags_wrong_answer(outputs, kind):
    job, refs, out = _perturbed(outputs, kind, WRONG_ANSWERS[kind])
    assert oracle.check(job, 0, out, refs) is not None


def test_learn_ratio_is_enforced(outputs):
    def slow(r):
        history = r["learn"]["loss_history"]
        history[1:] = [1e-3 * history[0]]
    job, refs, out = _perturbed(outputs, "learn", slow)
    assert "above" in oracle.check(job, 0, out, refs)


def test_cli_contract_failures_are_flagged(outputs):
    _, jobs, refs, _, records = outputs["exact-many"]
    job, (_, _, out) = jobs[0], records[0]
    assert oracle.check(job, 1, out, refs) == "exit code 1"
    assert oracle.check(job, 0, out + out, refs) == "stdout is not exactly one line"
    assert oracle.check(job, 0, "[]\n", refs) == "stdout is not a JSON object"


def test_bareiss_rank_and_order_complex():
    assert oracle.bareiss_rank([[1, 2], [2, 4]]) == 1
    assert oracle.bareiss_rank([[0, 1], [1, 0], [1, 1]]) == 2
    # the boundary of a triangle: a circle, b0 = b1 = 1
    elements = ["a", "b", "c", "ab", "bc", "ac"]
    covers = [["a", "ab"], ["b", "ab"], ["b", "bc"], ["c", "bc"], ["a", "ac"], ["c", "ac"]]
    up = oracle.strict_up(elements, covers)
    assert oracle.order_complex_betti(elements, up, reduced=False) == [1, 1]
    assert oracle.order_complex_betti(elements, up, reduced=True) == [0, 0, 1]


def test_traced_pass_is_byte_identical_and_counts_repeat(outputs):
    _, jobs, _, runner, records = outputs["real-graph"]
    tracer = spans.Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        runner.tracer = tracer
        try:
            traced = runner.one_pass().records
        finally:
            runner.tracer = None
            tracer.uninstall()
        assert [r[2] for r in traced] == [r[2] for r in records]
        counts.append({k: v for k, v in tracer.metrics().items() if k in spans.COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["nsd.coboundary_calls"] > 0 and counts[0]["spectral.eig_calls"] > 0
    # the originals are back in place
    pkg = outputs["real-graph"][0]
    assert pkg.cli.parse_sheaf is pkg.io.parse_sheaf
    assert not hasattr(pkg.io.parse_sheaf, "__wrapped__")


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("outer", 0):
        with tracer.span("inner", 0):
            sum(range(20000))
    metrics_total = tracer.total["outer"]
    assert tracer.self_time["outer"] == pytest.approx(
        metrics_total - tracer.total["inner"], abs=1e-9)
    assert len(tracer.spans) == 2 and tracer.spans[1][3] == 0


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_graph_reference_matches_planted_kernel():
    docs, _ = gen.build("real-graph", 3)
    for d in docs:
        if d.facts.get("family") == "graph":
            ref = oracle.graph_reference(d)
            lam = ref["eigenvalues"]["none"]
            assert int(np.sum(lam < 1e-8 * lam[-1])) == d.facts["b0"]
