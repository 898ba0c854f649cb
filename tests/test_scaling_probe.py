"""tools/scaling_probe.py's case table, run order and summary on fixed
numbers, and one measurement of a small golden; no test runs a heavy case."""

import importlib.util
from pathlib import Path

import helpers
import test_resource_corpus
from posheaf.cli import SUBCOMMANDS
from posheaf.io import serialize_sheaf

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("scaling_probe", ROOT / "tools" / "scaling_probe.py")
scaling_probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scaling_probe)


def test_table_holds_every_corpus_case_on_the_corpus_documents():
    for case in test_resource_corpus.CASES:
        assert case in scaling_probe.CASES
    assert {d for d, _ in scaling_probe.CASES} == set(scaling_probe.DOCUMENTS)
    for name, make in test_resource_corpus.DOCUMENTS.items():
        generator, args = scaling_probe.DOCUMENTS[name]
        assert serialize_sheaf(getattr(helpers, generator)(*args)) == serialize_sheaf(make())
    validate = [d for d, argv in scaling_probe.CASES if argv == ["validate"]]
    assert validate == ["boolean_6", "boolean_7", "boolean_8", "deep_chain", "skeleton_30_2"]


def test_every_exact_subcommand_has_a_deep_chain_row():
    exact = {name for name, (_, is_exact, *_) in SUBCOMMANDS.items() if is_exact}
    assert {argv[0] for d, argv in scaling_probe.CASES if d == "deep_chain"} == exact


def test_odd_cases_run_the_parent_first():
    assert [scaling_probe.run_order(k) for k in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def _run(case, tree, wall, exit=0, timed_out=False, one_json_line=True, stderr_last=""):
    return {"case": case, "tree": tree, "wall_s": wall, "peak_rss_mb": 20.0, "exit": exit,
            "timed_out": timed_out, "stdout_bytes": 100, "one_json_line": one_json_line,
            "stderr_last": stderr_last}


def test_summary_of_fixed_runs():
    runs = [
        _run("a validate", "parent", 2.0), _run("a validate", "change", 0.5),
        _run("b validate", "change", 3.0), _run("b validate", "parent", 60.0, exit=-9,
                                                timed_out=True),
        _run("c betti", "parent", 1.0, exit=1, one_json_line=False,
             stderr_last="RecursionError: maximum recursion depth exceeded"),
        _run("c betti", "change", 1.0, stderr_last="a warning"),
    ]
    assert scaling_probe.summarize(runs) == {
        "parent": {"held": ["a validate"], "timed_out": ["b validate"], "broken": ["c betti"]},
        "change": {"held": ["a validate", "b validate"], "timed_out": [], "broken": ["c betti"]},
        "change_wall_over_parent": {"a validate": 0.25},
    }


def test_summary_of_one_tree_has_no_ratios():
    summary = scaling_probe.summarize([_run("a validate", "change", 0.5)])
    assert summary == {"change": {"held": ["a validate"], "timed_out": [], "broken": []},
                       "change_wall_over_parent": {}}


def test_measure_reports_a_report_and_a_timeout(tmp_path):
    doc = str(ROOT / "tests" / "golden" / "triangle_full.json")
    run = scaling_probe.measure(ROOT, ["validate", doc], tmp_path)
    assert scaling_probe.held(run)
    assert run["stdout_bytes"] > 0 and run["peak_rss_mb"] > 0
    run = scaling_probe.measure(ROOT, ["validate", doc], tmp_path, timeout_s=0.001)
    assert (run["exit"], run["timed_out"], scaling_probe.held(run)) == (-9, True, False)
