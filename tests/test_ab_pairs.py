"""tools/ab_pairs.py's run order and summary on fixed numbers; no test runs
the benchmark."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "hits", "better": "higher"}]


def _run(pair, tree, wall, hits, failed=0):
    return {"pair": pair, "tree": tree, "correct": failed == 0, "failed": failed,
            "metrics": {"wall_s": {"value": wall}, "hits": {"value": hits}}}


def test_odd_pairs_run_the_parent_first():
    assert [ab_pairs.run_order(pair) for pair in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_of_fixed_runs():
    parent = [5.0, 1.0, 4.0, 2.0, 3.0]
    change = [4.5, 1.2, 3.0, 1.5, 2.7]
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for tree in ab_pairs.run_order(pair):
            runs += [_run(pair, tree, p if tree == "parent" else c, 10 * pair + (tree == "change"))]
    summary = ab_pairs.summarize(runs, METRICS)
    assert summary["pairs"] == 5
    assert summary["correct_every_run"] is True and summary["failed_every_run"] == [0]
    wall = summary["wall_s"]
    # exclusive quartiles of five values: halfway between the first two and the last two
    assert wall["parent_q1_median_q3"] == [1.5, 3.0, 4.5]
    assert wall["change_q1_median_q3"] == pytest.approx([1.35, 2.7, 3.75])
    assert wall["median_change_frac"] == pytest.approx(-0.1)
    assert wall["change_wins"] == 4  # lower is better; pair 2 went 1.0 -> 1.2
    hits = summary["hits"]
    assert hits["change_wins"] == 5  # higher is better, one more hit in every pair
    assert hits["median_change_frac"] == pytest.approx(1 / 30)


def test_summary_keeps_every_failure_count_and_a_single_pair():
    runs = [_run(1, "parent", 2.0, 1), _run(1, "change", 2.0, 1, failed=3)]
    summary = ab_pairs.summarize(runs, METRICS)
    assert summary["pairs"] == 1
    assert summary["correct_every_run"] is False and summary["failed_every_run"] == [0, 3]
    assert summary["wall_s"]["parent_q1_median_q3"] == [2.0, 2.0, 2.0]
    assert summary["wall_s"]["change_wins"] == 0 and summary["wall_s"]["median_change_frac"] == 0.0
