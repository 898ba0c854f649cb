"""tools/scaling_probe.py's case table, run order, run count and summary on
fixed numbers, and one measurement of a small golden; no test runs a heavy
case."""

from helpers import ROOT, scaling_probe
from posheaf.cli import SUBCOMMANDS


def test_table_holds_every_corpus_case_on_the_corpus_documents():
    assert {d for d, *_ in scaling_probe.CASES} == set(scaling_probe.DOCUMENTS)
    validate = [d for d, argv, _ in scaling_probe.CASES if argv == ["validate"]]
    assert validate == ["boolean_6", "boolean_7", "boolean_8", "deep_chain", "skeleton_30_2"]


def test_every_exact_subcommand_has_a_deep_chain_row():
    exact = {name for name, (_, is_exact, *_) in SUBCOMMANDS.items() if is_exact}
    assert {argv[0] for d, argv, _ in scaling_probe.CASES if d == "deep_chain"} == exact


def test_odd_cases_run_the_parent_first():
    assert [scaling_probe.run_order(k) for k in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def _run(case, tree, wall, exit=0, timed_out=False, one_json_line=True, stderr_last="",
         stderr_bytes=None):
    # unless stderr_bytes says otherwise, stderr is its last line alone
    if stderr_bytes is None:
        stderr_bytes = len(stderr_last)
    return {"case": case, "tree": tree, "wall_s": wall, "peak_rss_mb": 20.0, "exit": exit,
            "timed_out": timed_out, "stdout_bytes": 100, "one_json_line": one_json_line,
            "stderr_bytes": stderr_bytes, "stderr_last": stderr_last}


def test_summary_of_fixed_runs():
    # a case is held only where every one of its runs held; wall times and
    # the ratio come from held cases only, the ratio from the two medians
    runs = [
        _run("a validate", "parent", 2.0), _run("a validate", "change", 0.5),
        _run("a validate", "change", 0.7), _run("a validate", "parent", 2.4),
        _run("a validate", "parent", 1.0), _run("a validate", "change", 0.6),
        _run("b validate", "change", 3.0), _run("b validate", "parent", 50.0),
        _run("b validate", "parent", 60.0, exit=-9, timed_out=True),
        _run("b validate", "change", 3.2), _run("b validate", "change", 2.9),
        _run("b validate", "parent", 55.0),
        _run("c betti", "parent", 1.0), _run("c betti", "change", 1.0),
        _run("c betti", "change", 1.0, stderr_last="a warning"),
        _run("c betti", "parent", 1.0, exit=1, one_json_line=False,
             stderr_last="RecursionError: maximum recursion depth exceeded"),
        _run("c betti", "parent", 1.0), _run("c betti", "change", 1.0),
    ]
    assert scaling_probe.summarize(runs) == {
        "parent": {"held": ["a validate"], "timed_out": ["b validate"], "broken": ["c betti"],
                   "wall_s": {"a validate": {"median": 2.0, "min": 1.0, "max": 2.4}}},
        "change": {"held": ["a validate", "b validate"], "timed_out": [], "broken": ["c betti"],
                   "wall_s": {"a validate": {"median": 0.6, "min": 0.5, "max": 0.7},
                              "b validate": {"median": 3.0, "min": 2.9, "max": 3.2}}},
        "change_wall_over_parent": {"a validate": 0.3},
    }


def test_a_run_with_any_stderr_is_broken_though_its_last_line_is_empty():
    # a lone newline, or a warning followed by a blank line, ends in ""
    lone = [_run("a betti", "change", 1.0, stderr_bytes=1)] * scaling_probe.RUNS
    assert not scaling_probe.held(lone[0])
    assert scaling_probe.summarize(lone)["change"] == {
        "held": [], "timed_out": [], "broken": ["a betti"], "wall_s": {}}


def test_summary_of_one_tree_has_no_ratios():
    summary = scaling_probe.summarize([_run("a validate", "change", 0.5)] * scaling_probe.RUNS)
    assert summary == {"change": {"held": ["a validate"], "timed_out": [], "broken": [],
                                  "wall_s": {"a validate": {"median": 0.5, "min": 0.5,
                                                            "max": 0.5}}},
                       "change_wall_over_parent": {}}


def test_a_case_runs_a_fixed_three_times_a_tree_and_rounds_alternate():
    # rounds number on across cases, so each tree runs first in turn
    assert scaling_probe.RUNS == 3
    assert [(k, run, order[0]) for k, run, order in scaling_probe.schedule(2)] == [
        (0, 1, "parent"), (0, 2, "change"), (0, 3, "parent"),
        (1, 1, "change"), (1, 2, "parent"), (1, 3, "change")]


def test_measure_reports_a_report_and_a_timeout(tmp_path):
    doc = str(ROOT / "tests" / "golden" / "triangle_full.json")
    run = scaling_probe.measure(ROOT, ["validate", doc], tmp_path)
    assert scaling_probe.held(run)
    assert run["stdout_bytes"] > 0 and run["peak_rss_mb"] > 0
    assert (run["stderr_bytes"], run["stderr_last"]) == (0, "")
    run = scaling_probe.measure(ROOT, ["validate", doc], tmp_path, timeout_s=0.001)
    assert (run["exit"], run["timed_out"], scaling_probe.held(run)) == (-9, True, False)
