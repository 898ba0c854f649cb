"""The CLI contract on small documents whose cost explodes.

Each case runs ``python -m posheaf.cli`` in its own process, one at a time,
under an address-space limit set in the child only and a wall-clock timeout,
and must print one JSON report line with exit 0 and an empty stderr.  The
limit and the timeout guard against runaway memory and hangs; they are not a
speed claim, and raising them to make a case pass defeats the test.  Every
report here is under 1 MB (``incidence`` on C_4000 prints about 0.5 MB); the
child writes to files rather than pipes, and the test reads one copy of the
text.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    boolean_lattice_sheaf,
    deep_chain_sheaf,
    fixed_twisted_cycle_sheaf,
    simplex_skeleton_sheaf,
    single_stalk_sheaf,
)
from posheaf.io import serialize_sheaf

ADDRESS_SPACE_BYTES = 2 * 2**30
TIMEOUT_S = 20

DOCUMENTS = {
    "deep_chain": deep_chain_sheaf,
    "boolean_8": lambda: boolean_lattice_sheaf(8),
    "skeleton_30_2": lambda: simplex_skeleton_sheaf(30, 2),
    "twisted_cycle_4000": lambda: fixed_twisted_cycle_sheaf(4000),
    "stalk_3000": lambda: single_stalk_sheaf(3000),
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
    ("twisted_cycle_4000", ["incidence"]),
    ("stalk_3000", ["sections"]),
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
def test_cli_reports_on_an_explosive_document(documents, tmp_path, name, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        done = subprocess.run(
            [sys.executable, "-m", "posheaf.cli", argv[0], str(documents[name]), *argv[1:]],
            stdout=out, stderr=err, env=env, timeout=TIMEOUT_S,
            preexec_fn=_limit_address_space)
    assert (done.returncode, err_path.read_text()) == (0, "")
    text = out_path.read_text()
    out_path.unlink()
    assert len(text.splitlines()) == 1
    assert json.loads(text)["command"] == argv[0]
