"""tools/ab_pairs.py's run order and summary on fixed numbers; no test runs
the benchmark."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "hits", "better": "higher", "bound": 0.1}]


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


def _verdicts(parent, change, better="lower", bound=0.25):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        runs += [{"pair": pair, "tree": tree, "correct": True, "failed": 0,
                  "metrics": {"m": {"value": p if tree == "parent" else c}}}
                 for tree in ab_pairs.run_order(pair)]
    summary = ab_pairs.summarize(runs, [{"name": "m", "better": better, "bound": bound}])["m"]
    return summary["gain"], summary["regression"]


PARENT = list(range(100, 110))  # quartiles 101.75, 104.5 and 107.25: IQR 5.5


def test_a_gain_needs_nine_of_ten_pairs_and_a_median_gap_beyond_the_parents_iqr():
    assert _verdicts(PARENT, [p - 6 for p in PARENT]) == ("met", "within_bound")
    # every pair won, but the medians are 5 apart, within the IQR
    assert _verdicts(PARENT, [p - 5 for p in PARENT]) == ("not_met", "within_bound")
    # 8 of 10 pairs won, by far more than the IQR
    assert _verdicts(PARENT, [p + 1 if p < 102 else p - 20 for p in PARENT])[0] == "not_met"
    assert _verdicts(PARENT, [p + 1 if p < 101 else p - 20 for p in PARENT])[0] == "met"
    # higher is better: the same numbers the other way round
    assert _verdicts(PARENT, [p + 6 for p in PARENT], "higher") == ("met", "within_bound")
    assert _verdicts(PARENT, [p - 6 for p in PARENT], "higher") == ("not_met", "within_bound")


def test_a_regression_is_read_against_the_bound_unless_the_parent_spreads_beyond_it():
    # a 25 % bound on a median of 104.5 allows up to 130.625
    assert _verdicts(PARENT, [p + 20 for p in PARENT])[1] == "within_bound"
    assert _verdicts(PARENT, [p + 30 for p in PARENT])[1] == "worse"
    assert _verdicts(PARENT, [p - 30 for p in PARENT], "higher")[1] == "worse"
    assert _verdicts(PARENT, [p + 30 for p in PARENT], bound=0.5)[1] == "within_bound"
    # quartiles 27.5 and 82.5 around a median of 55: the parent's own spread
    # is beyond the bound, so only a change whose every run beats every run
    # of the parent is read
    wide = list(range(10, 110, 10))
    assert _verdicts(wide, [p * 3 for p in wide]) == ("not_met", "unresolved")
    assert _verdicts(wide, [p - 1 for p in wide]) == ("not_met", "unresolved")
    assert _verdicts(wide, [p / 20 for p in wide]) == ("not_met", "within_bound")
    assert _verdicts(wide, [p / 20 for p in wide], "higher") == ("not_met", "unresolved")
