"""The exact path starts without the real layers.

A bare ``import posheaf`` and every exact subcommand load no numpy, no
``posheaf.spectral`` and no ``posheaf.nsd``; the real subcommands load them
when they run and call them through the module objects, so a wrapper set on
``spectral.f`` or ``nsd.f`` sees the call.  No subcommand adds ``dataclasses``,
and neither ``import posheaf`` nor an exact subcommand adds ``inspect``,
``typing`` or ``pathlib`` either; numpy loads ``inspect`` itself.  Each
start-up case runs in a fresh interpreter and checks which modules it loaded,
not how long it took.
"""

import io
import json
import os
import runpy
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy
import pytest

from posheaf import nsd, spectral
from posheaf.cli import SUBCOMMANDS, cli

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"
REAL = ("numpy", "posheaf.spectral", "posheaf.nsd")
# the directory numpy is installed in
NUMPY_DIR = Path(numpy.__file__).parents[1]
# stdlib modules that take long to import and that posheaf's records and file
# reads do not need
HEAVY = ("dataclasses", "inspect", "typing", "pathlib")

# Runs the CLI on argv, or only imports posheaf when argv is empty, then
# writes to stderr as JSON the loaded modules among REAL and those among HEAVY
# that the import and the run added to sys.modules, so a module that site
# loaded before them does not count.
_PROBE = f"""
import json, sys
before = set(sys.modules)
if sys.argv[1:]:
    from posheaf.cli import cli
    status = cli(sys.argv[1:])
else:
    import posheaf
    status = 0
sys.stderr.write(json.dumps([[m for m in {REAL!r} if m in sys.modules],
                             [m for m in {HEAVY!r} if m in set(sys.modules) - before]]))
sys.exit(status)
"""

# tools/make_goldens.py's pinned command of each golden document; run_path
# does not run the script as __main__, so nothing is written
GOLDEN_COMMANDS = runpy.run_path(str(ROOT / "tools" / "make_goldens.py"))["COMMANDS"]
# (document name, argv without the document) of each exact golden command
EXACT_GOLDENS = [(name, argv) for name, argv in GOLDEN_COMMANDS.items() if SUBCOMMANDS[argv[0]][1]]
EXACT = [[argv[0], f"{name}.json", *argv[1:]] for name, argv in EXACT_GOLDENS]


def _argv(case: list[str]) -> list[str]:
    return [case[0], str(GOLDEN / case[1]), *case[2:]]


def _in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        status = cli(argv)
    return status, out.getvalue()


def _fresh(argv: list[str]) -> tuple[int, str, list[str], list[str]]:
    """Exit status, stdout, the loaded modules among REAL and the added ones
    among HEAVY of a fresh interpreter running _PROBE on argv.  It runs
    without the site module, which may load typing before the probe and so
    hide it; numpy's directory is put on its path, so numpy stays importable
    and a stray import of it still shows among REAL."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(NUMPY_DIR)])}
    done = subprocess.run([sys.executable, "-S", "-c", _PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, *json.loads(done.stderr)


def test_import_posheaf_loads_no_real_layer():
    assert _fresh([]) == (0, "", [], [])


def test_the_real_layers_load_on_first_access_in_a_fresh_interpreter():
    # in this process an earlier import has set the attributes already
    probe = """
import json, sys
import posheaf
seen = ["numpy" in sys.modules]
for name in ("spectral", "nsd"):
    seen.append(getattr(posheaf, name) is sys.modules["posheaf." + name])
print(json.dumps(seen + ["numpy" in sys.modules]))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == [False, True, True, True]


@pytest.mark.parametrize("case", EXACT, ids=lambda case: " ".join(case[:1] + case[2:]))
def test_exact_subcommand_loads_no_real_layer(case):
    argv = _argv(case)
    status, stdout = _in_process(argv)
    assert status == 0
    assert _fresh(argv) == (0, stdout, [], [])


def test_real_subcommand_loads_what_it_runs_on():
    # the probe sees these modules where they are loaded; spectrum needs no
    # nsd, and numpy loads inspect and typing itself
    argv = _argv(["spectrum", "cycle4_constant.json", "--norm", "weak"])
    status, stdout, real, heavy = _fresh(argv)
    assert (status, stdout, real) == (0, _in_process(argv)[1], ["numpy", "posheaf.spectral"])
    assert "dataclasses" not in heavy


def _counting(monkeypatch, module, name: str) -> list:
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_real_subcommands_call_through_the_module_objects(monkeypatch, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"X": [[1.0]] * 4, "W1": [[1.0]], "W2": [[1.0]], "eta": 0.1}))
    doc = str(GOLDEN / "cycle4_constant.json")
    argvs = [["spectrum", doc, "--norm", "weak"], ["nsd-forward", doc, str(params)]]
    plain = [_in_process(argv) for argv in argvs]
    eig = _counting(monkeypatch, spectral, "eigendecompose")
    forward = _counting(monkeypatch, nsd, "nsd_forward")
    assert _in_process(argvs[0]) == plain[0] and eig and not forward
    assert _in_process(argvs[1]) == plain[1] and forward
    assert plain[0][0] == plain[1][0] == 0
