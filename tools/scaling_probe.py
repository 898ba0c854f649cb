#!/usr/bin/env python3
"""Run a fixed table of explosive CLI cases cold and report what each cost.

Usage:

    python3 tools/scaling_probe.py --change DIR [--parent DIR] [--subcommand NAME]

Each case is a document made by a generator in ``tests/helpers.py``, an argv
for ``python -m posheaf.cli``, whether tier-1's resource corpus
(``tests/test_resource_corpus.py``) runs it too, through ``measure`` under its
own tighter limits (so a case joins the corpus by its mark here), and the
error code it must be refused with, or None if it must hold.  The
documents are written once, by the change tree's generators, into a temporary
directory, which is also where each case's stdout and stderr go; nothing is
written into either tree but the deletion of its ``src/posheaf/__pycache__``
before each run.  Every case runs in its own child, one at a time, under
``ADDRESS_SPACE_BYTES`` of address space and a ``TIMEOUT_S`` wall-clock
timeout, ``RUNS`` times in each tree.
With ``--parent`` each case runs in rounds of one run per tree, numbered on
across cases; odd rounds run the parent first and even ones the change.
``--subcommand`` keeps the cases of one subcommand.

Stdout is one JSON object: the limits, each run's expected error code (or
None), wall seconds, peak RSS (the child's own, from ``os.wait4``), exit
status, stdout bytes, whether stdout is one JSON line and the error code it
reports, stderr's bytes and its last line, and a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ADDRESS_SPACE_BYTES = 4 * 2**30
TIMEOUT_S = 60
RUNS = 3
TREES = ("parent", "change")

# document name -> (generator in tests/helpers.py, its arguments)
DOCUMENTS = {
    "boolean_6": ("boolean_lattice_sheaf", [6]),
    "boolean_7": ("boolean_lattice_sheaf", [7]),
    "boolean_8": ("boolean_lattice_sheaf", [8]),
    "deep_chain": ("deep_chain_sheaf", []),
    "layered_15": ("layered_sheaf", [15]),
    "skeleton_30_2": ("simplex_skeleton_sheaf", [30, 2]),
    "twisted_cycle_1000": ("fixed_twisted_cycle_sheaf", [1000]),
    "twisted_cycle_4000": ("fixed_twisted_cycle_sheaf", [4000]),
    "stalk_3000": ("single_stalk_sheaf", [3000]),
}

# (document, argv, whether tests/test_resource_corpus.py runs it, the error
# code it must be refused with or None)
CASES = [
    # validate, as in ROADMAP's scaling table
    ("boolean_6", ["validate"], False, None),
    ("boolean_7", ["validate"], False, None),
    ("boolean_8", ["validate"], True, None),
    ("deep_chain", ["validate"], True, None),
    ("skeleton_30_2", ["validate"], False, None),
    # the dense reports, as in ROADMAP's scaling table
    ("twisted_cycle_4000", ["incidence"], True, None),
    ("skeleton_30_2", ["incidence"], False, None),
    ("stalk_3000", ["sections"], True, None),
    # the rest of the resource corpus's cases
    ("deep_chain", ["betti", "--method", "minimal"], True, None),
    ("boolean_8", ["betti", "--method", "minimal"], True, None),
    ("boolean_8", ["classify"], True, None),
    ("boolean_8", ["incidence"], True, None),
    ("skeleton_30_2", ["sections"], True, None),
    ("skeleton_30_2", ["betti"], True, None),
    # with these, every exact subcommand has a deep-chain row
    ("deep_chain", ["classify"], False, None),
    ("deep_chain", ["sections"], False, None),
    ("deep_chain", ["incidence"], False, None),
    # parse, incidence and assembly at scale, and a dense real spectrum
    ("twisted_cycle_4000", ["betti"], False, None),
    ("twisted_cycle_4000", ["classify"], False, None),
    ("twisted_cycle_1000", ["spectrum", "--degree", "0"], False, None),
    # the Roos construction at scale: the 189,171 chains of B_7, a third of
    # the time in its d^2 check when that check composed every pair
    ("boolean_7", ["betti", "--method", "roos"], False, None),
    # refused by roos_complex's size count before any chain is built: 2^1501
    # chains on the deep chain, and 5^15 - 1 on the wide, shallow layered poset
    ("deep_chain", ["betti", "--method", "roos"], True, "TooLarge"),
    ("layered_15", ["betti", "--method", "roos"], True, "TooLarge"),
]

# run in a child with the tree's tests/ and src/ on its path: writes each
# named document, its generator and arguments given as JSON in argv
WRITER = """
import json, sys
from pathlib import Path
import helpers
from posheaf.io import serialize_sheaf
folder, table = Path(sys.argv[1]), json.loads(sys.argv[2])
for name, (generator, args) in table.items():
    sheaf = getattr(helpers, generator)(*args)
    (folder / (name + ".json")).write_text(serialize_sheaf(sheaf), encoding="utf-8")
"""


def run_order(round_: int) -> tuple[str, str]:
    """The trees of round number round_ (from 1) in the order they run."""
    return TREES if round_ % 2 else TREES[::-1]


def schedule(cases: int):
    """(case index from 0, run from 1, trees in order) for each round of
    cases cases, in the order the rounds run."""
    for k in range(cases):
        for run in range(1, RUNS + 1):
            yield k, run, run_order(k * RUNS + run)


def write_documents(tree: Path, folder: Path, names) -> None:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(tree / "tests"), str(tree / "src")])}
    table = {name: DOCUMENTS[name] for name in names}
    subprocess.run([sys.executable, "-c", WRITER, str(folder), json.dumps(table)],
                   env=env, cwd=folder, check=True)


def measure(tree: Path, argv: list[str], folder: Path, timeout_s: float = TIMEOUT_S,
            address_space_bytes: int = ADDRESS_SPACE_BYTES) -> dict:
    """One cold run of ``python -m posheaf.cli`` with argv, in tree's source;
    its stdout and stderr stay in folder's files of those names."""
    shutil.rmtree(tree / "src" / "posheaf" / "__pycache__", ignore_errors=True)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tree / "src")}
    out_path, err_path = folder / "stdout", folder / "stderr"
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "posheaf.cli", *argv], stdout=out,
                                 stderr=err, env=env, cwd=folder,
                                 preexec_fn=lambda: resource.setrlimit(
                                     resource.RLIMIT_AS, (address_space_bytes,) * 2))

        def kill():
            timed_out.set()
            child.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
    child.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_bytes()
    try:
        report = json.loads(text) if text.count(b"\n") == 1 and text.endswith(b"\n") else None
    except ValueError:
        report = None
    code = report["error"]["code"] if isinstance(report, dict) and "error" in report else None
    errors = err_path.read_bytes()
    lines = errors.decode("utf-8", errors="replace").splitlines()
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            # a kill that lands after the child ended does not count as a timeout
            "exit": child.returncode, "timed_out": timed_out.is_set() and child.returncode < 0,
            "stdout_bytes": len(text), "one_json_line": isinstance(report, dict),
            "error_code": code,
            "stderr_bytes": len(errors), "stderr_last": lines[-1] if lines else ""}


def held(run: dict) -> bool:
    """Whether a run kept the CLI contract of the resource corpus: exit 0,
    one JSON report line and an empty stderr, within the timeout."""
    return (run["exit"] == 0 and run["one_json_line"] and run["stderr_bytes"] == 0
            and not run["timed_out"])


def refused(run: dict, code: str) -> bool:
    """Whether a run was refused as its case expects: exit 1, one JSON report
    line whose error carries code, and an empty stderr, within the timeout."""
    return (run["exit"] == 1 and run["one_json_line"] and run["error_code"] == code
            and run["stderr_bytes"] == 0 and not run["timed_out"])


def kept(run: dict) -> bool:
    """Whether a run did what its case expects: refused with the case's code
    if it names one, else held."""
    return refused(run, run["refusal"]) if run["refusal"] else held(run)


def summarize(runs: list[dict]) -> dict:
    """Per tree, the cases held and those refused as expected (in every run),
    those with a run timed out and those with a run otherwise broken, and the
    median, min and max wall time of each case held or refused; per case held
    or refused in both trees, the change's median wall time as a fraction of
    the parent's."""
    out: dict = {}
    for tree in TREES:
        cases: dict[str, list[dict]] = {}
        for r in runs:
            if r["tree"] == tree:
                cases.setdefault(r["case"], []).append(r)
        if not cases:
            continue
        good = [case for case, mine in cases.items() if all(map(kept, mine))]
        walls = {case: [r["wall_s"] for r in cases[case]] for case in good}
        out[tree] = {
            "held": [case for case in good if not cases[case][0]["refusal"]],
            "refused": [case for case in good if cases[case][0]["refusal"]],
            "timed_out": [case for case, mine in cases.items()
                          if any(r["timed_out"] for r in mine)],
            "broken": [case for case, mine in cases.items()
                       if any(not kept(r) and not r["timed_out"] for r in mine)],
            "wall_s": {case: {"median": round(statistics.median(w), 3), "min": min(w),
                              "max": max(w)} for case, w in walls.items()}}
    parent, change = (out.get(tree, {}).get("wall_s", {}) for tree in TREES)
    out["change_wall_over_parent"] = {
        case: round(change[case]["median"] / parent[case]["median"], 3)
        for case in parent if case in change}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--subcommand")
    args = parser.parse_args(argv)
    trees = {"change": args.change.resolve()}
    if args.parent:
        trees["parent"] = args.parent.resolve()
    cases = [(d, a, code) for d, a, _, code in CASES if args.subcommand in (None, a[0])]
    runs = []
    with tempfile.TemporaryDirectory() as work:
        folder = Path(work)
        write_documents(trees["change"], folder, sorted({d for d, *_ in cases}))
        for k, run, order in schedule(len(cases)):
            document, case_argv, code = cases[k]
            argv = [case_argv[0], str(folder / f"{document}.json"), *case_argv[1:]]
            for tree in order:
                if tree in trees:
                    runs.append({"case": " ".join([document, *case_argv]), "tree": tree,
                                 "run": run, "refusal": code,
                                 **measure(trees[tree], argv, folder)})
    print(json.dumps({
        "command": "python -m posheaf.cli SUBCOMMAND DOCUMENT [ARGS], one cold child a run",
        "limits": {"address_space_bytes": ADDRESS_SPACE_BYTES, "timeout_s": TIMEOUT_S},
        "runs_per_tree": RUNS,
        "order": "rounds of one run per tree, numbered on across cases; odd rounds run the "
                 "parent first, even rounds the change first",
        "summary": summarize(runs),
        "runs": runs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
