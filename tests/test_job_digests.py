"""The benchmark's exact workloads still give the answers they gave when these
digests were recorded.  Each digest is ``tools/job_digest.py``'s SHA-256 over
every job's argv, exit status and stdout at seed 4242, so a change that moves
one byte of an exact answer fails here, with no second checkout to compare
against.  real-graph is left out: its floats follow the BLAS build.  A digest
run leaves perfbench/_work, where the benchmark writes its documents, as it
was."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
DIGESTS = {
    "exact-ladder": "cd2ccade065926be101d476f95a7020e08a18abca666919e1b301627d489173e",
    "exact-many": "7f00f5dab738fdec2d881dd1e9938479e21e2c0a8edea7edace348b3af37e458",
}


def _work_state():
    """Name, size and modification time of each file in perfbench/_work, or
    None where it does not exist."""
    if not WORK.exists():
        return None
    return sorted((f.name, st.st_size, st.st_mtime_ns) for f in WORK.iterdir() for st in [f.stat()])


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_exact_workload_answers_match_their_recorded_digest(workload):
    # a process of its own, since the runner's setup imports posheaf afresh
    # from src/; no bytecode cache is written into perfbench/
    before = _work_state()
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "tools" / "job_digest.py"),
         "--workload", workload, "--seed", "4242"],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert (done.returncode, done.stdout) == (0, DIGESTS[workload] + "\n"), done.stderr[-2000:]
    assert _work_state() == before
