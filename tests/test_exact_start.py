"""The exact path starts without the real layers.

A bare ``import posheaf`` and every exact subcommand load no numpy, no
``posheaf.spectral`` and no ``posheaf.nsd``; the real subcommands load them
when they run and call them through the module objects, so a wrapper set on
``spectral.f`` or ``nsd.f`` sees the call.  Each start-up case runs in a fresh
interpreter and checks which modules it loaded, not how long it took.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from posheaf import nsd, spectral
from posheaf.cli import cli

GOLDEN = Path(__file__).parent / "golden"
REAL = ("numpy", "posheaf.spectral", "posheaf.nsd")

# Runs the CLI on argv, or only imports posheaf when argv is empty, then
# writes the loaded modules among REAL to stderr as a JSON list.
_PROBE = f"""
import json, sys
if sys.argv[1:]:
    from posheaf.cli import cli
    status = cli(sys.argv[1:])
else:
    import posheaf
    status = 0
sys.stderr.write(json.dumps([m for m in {REAL!r} if m in sys.modules]))
sys.exit(status)
"""

# the golden command of every exact subcommand and method
EXACT = [
    ["validate", "triangle_violations.json"],
    ["classify", "hypergraph_triple.json"],
    ["sections", "path_constant.json"],
    ["betti", "cycle3_constant.json", "--method", "roos"],
    ["betti", "triangle_full.json", "--method", "cellular"],
    ["betti", "mobius_c4.json", "--method", "minimal"],
    ["incidence", "morse_constant.json"],
]


def _argv(case: list[str]) -> list[str]:
    return [case[0], str(GOLDEN / case[1]), *case[2:]]


def _in_process(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        status = cli(argv)
    return status, out.getvalue()


def _fresh(argv: list[str]) -> tuple[int, str, list[str]]:
    """Exit status, stdout and the loaded modules among REAL of a fresh
    interpreter running _PROBE on argv."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, json.loads(done.stderr)


def test_import_posheaf_loads_no_real_layer():
    assert _fresh([]) == (0, "", [])


@pytest.mark.parametrize("case", EXACT, ids=lambda case: " ".join(case[:1] + case[2:]))
def test_exact_subcommand_loads_no_real_layer(case):
    argv = _argv(case)
    status, stdout = _in_process(argv)
    assert status == 0
    assert _fresh(argv) == (0, stdout, [])


def test_real_subcommand_loads_what_it_runs_on():
    # the probe sees these modules where they are loaded; spectrum needs no nsd
    argv = _argv(["spectrum", "cycle4_constant.json", "--norm", "weak"])
    assert _fresh(argv) == (0, _in_process(argv)[1], ["numpy", "posheaf.spectral"])


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
