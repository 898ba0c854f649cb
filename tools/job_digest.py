#!/usr/bin/env python3
"""Print one SHA-256 over every benchmark job's argv, exit status and stdout.

Usage, from the root of a checkout:

    python3 tools/job_digest.py --workload exact-ladder --seed 1

The workload's documents come from perfbench's generator, and one pass of its
jobs runs in this process through perfbench's runner, untimed and unchecked.
Two trees that print the same digest for a workload and seed gave every job
the same exit status and the same output, byte for byte.  The exit status is
1 if a job ended in a traceback, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

# write no __pycache__ into the checkout: a stale one slows a later benchmark set-up
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    pkg, _, jobs, _ = run.setup(args.workload, args.seed)
    runner = run.Runner(pkg, jobs)
    digest = hashlib.sha256()
    tracebacks = 0
    for i, job in enumerate(jobs):
        _, rc, text = runner.run(i, job)
        tracebacks += rc == -1  # the runner's status for a job that raised
        digest.update(json.dumps([job.argv, rc, text]).encode("utf-8") + b"\n")
    print(digest.hexdigest())
    return int(tracebacks > 0)


if __name__ == "__main__":
    sys.exit(main())
