"""The CLI contract on small documents whose cost explodes.

Each case runs ``python -m posheaf.cli`` in its own process, one at a time,
under an address-space limit set in the child only and a wall-clock timeout,
and must print one JSON report line with exit 0 and an empty stderr.  The
limit and the timeout guard against runaway memory and hangs; they are not a
speed claim, and raising them to make a case pass defeats the test.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import boolean_lattice_sheaf, deep_chain_sheaf, simplex_skeleton_sheaf
from posheaf.io import serialize_sheaf

ADDRESS_SPACE_BYTES = 2 * 2**30
TIMEOUT_S = 20

DOCUMENTS = {
    "deep_chain": deep_chain_sheaf,
    "boolean_8": lambda: boolean_lattice_sheaf(8),
    "skeleton_30_2": lambda: simplex_skeleton_sheaf(30, 2),
}

CASES = [
    ("deep_chain", ["betti", "--method", "minimal"]),
    ("boolean_8", ["betti", "--method", "minimal"]),
    ("boolean_8", ["classify"]),
    ("boolean_8", ["incidence"]),
    ("boolean_8", ["validate"]),
    ("deep_chain", ["validate"]),
    ("skeleton_30_2", ["sections"]),
    ("skeleton_30_2", ["betti"]),
]


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict[str, Path]:
    folder = tmp_path_factory.mktemp("explosive")
    paths = {}
    for name, make in DOCUMENTS.items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(serialize_sheaf(make()), encoding="utf-8")
    return paths


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


@pytest.mark.parametrize("name, argv", CASES, ids=[f"{n} {' '.join(a)}" for n, a in CASES])
def test_cli_reports_on_an_explosive_document(documents, name, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "posheaf.cli", argv[0], str(documents[name]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=TIMEOUT_S,
        preexec_fn=_limit_address_space)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["command"] == argv[0]
