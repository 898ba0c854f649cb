#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarize them.

Usage:

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload W --seed S --pairs N --seconds T

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once in
each checkout, in its own process with the checkout as working directory:
the parent first in odd pairs and the change first in even pairs.  Each
checkout's ``src/posheaf/__pycache__`` is deleted before every run, since a
stale cache slows the set-up.  Stdout is one JSON object: every run's result
line, and a summary that, for each end-to-end metric ``BENCHMARK.json`` lists,
gives the first quartile, median and third quartile of each side, the change
in the median as a fraction of the parent's median, the number of pairs in
which the change did better, and two verdicts:

- ``gain``: ``met`` where the change did better in at least 9 of 10 pairs
  and its median beats the parent's by more than the parent's interquartile
  range, else ``not_met``: the rule a claimed gain must pass;
- ``regression``: ``unresolved`` where the parent's interquartile range,
  as a fraction of its median, exceeds the metric's ``bound`` and some run
  of the change is no better than some run of the parent, else ``worse``
  where the change's median is worse than the parent's by more than that
  fraction, else ``within_bound``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")


def run_order(pair: int) -> tuple[str, str]:
    """The trees of pair number pair (from 1) in the order they run."""
    return TREES if pair % 2 else TREES[::-1]


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile, by ``statistics.quantiles``'
    default (exclusive) method; a single value is all three."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def gain_verdict(parent: list[float], change: list[float], wins: int, pairs: int,
                 sign: float) -> str:
    """``met`` or ``not_met``: the claimed-gain rule on each side's quartiles;
    sign is 1 where lower is better and -1 where higher is."""
    beaten = sign * (parent[1] - change[1]) > parent[2] - parent[0]
    return "met" if 10 * wins >= 9 * pairs and beaten else "not_met"


def regression_verdict(parent: list[float], change: list[float], bound: float,
                       sign: float, every_run_better: bool) -> str:
    """``unresolved``, ``worse`` or ``within_bound``: the regression rule on
    each side's quartiles and the metric's relative bound."""
    if parent[2] - parent[0] > bound * abs(parent[1]) and not every_run_better:
        return "unresolved"
    return "worse" if sign * (change[1] - parent[1]) > bound * abs(parent[1]) else "within_bound"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """The summary of alternating runs: each run has "pair", "tree",
    "correct", "failed" and a "metrics" object; each metric is a
    ``BENCHMARK.json`` entry with "name", "better" and "bound"."""
    side = {tree: sorted((r for r in runs if r["tree"] == tree), key=lambda r: r["pair"])
            for tree in TREES}
    out = {"pairs": len(side["change"]),
           "correct_every_run": all(r["correct"] for r in runs),
           "failed_every_run": sorted({r["failed"] for r in runs})}
    for metric in metrics:
        name = metric["name"]
        values = {tree: [r["metrics"][name]["value"] for r in side[tree]] for tree in TREES}
        parent, change = (quartiles(values[tree]) for tree in TREES)
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {
            "parent_q1_median_q3": parent,
            "change_q1_median_q3": change,
            "median_change_frac": change[1] / parent[1] - 1.0,
            "change_wins": wins,
            "gain": gain_verdict(parent, change, wins, out["pairs"], sign),
            "regression": regression_verdict(
                parent, change, metric["bound"], sign,
                all(sign * (c - p) < 0 for p in values["parent"] for c in values["change"])),
        }
    return out


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: its result line, parsed."""
    shutil.rmtree(tree / "src" / "posheaf" / "__pycache__", ignore_errors=True)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{tree}: perfbench/run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for pair in range(1, args.pairs + 1):
        for tree in run_order(pair):
            result = bench_run(trees[tree], args.workload, args.seed, args.seconds)
            runs.append({"workload": args.workload, "seed": args.seed, "pair": pair,
                         "tree": tree, **result})
    print(json.dumps({
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g}",
        "order": "odd pairs run the parent first, even pairs the change first",
        "summary": summarize(runs, metrics),
        "runs": runs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
