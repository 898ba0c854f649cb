"""The CLI contract on small documents whose cost explodes.

The cases are those that ``tools/scaling_probe.py``'s table marks for the
corpus.  Each runs ``python -m posheaf.cli`` through the probe's ``measure``,
in its own process, one at a time, under an address-space limit set in the
child only and a wall-clock timeout.  A case must print one JSON report line
with an empty stderr: with exit 0, or, where the table names an error code,
exit 1 and an error report carrying that code.  The limit and the timeout
guard against runaway memory and hangs; they are not a speed claim, and
raising them to make a case pass defeats the test.  Every report here is
under 1 MB (``incidence`` on C_4000 prints about 0.5 MB); the child writes to
files rather than pipes.
"""

import json

import pytest

from helpers import ROOT, scaling_probe

ADDRESS_SPACE_BYTES = 2 * 2**30
TIMEOUT_S = 20

MARKED = [(d, argv, code) for d, argv, corpus, code in scaling_probe.CASES if corpus]


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("explosive")
    scaling_probe.write_documents(ROOT, folder, sorted({d for d, *_ in MARKED}))
    return folder


@pytest.mark.parametrize("name, argv, code", MARKED,
                         ids=[" ".join([d, *a]) for d, a, _ in MARKED])
def test_cli_reports_on_an_explosive_document(folder, tmp_path, name, argv, code):
    run = scaling_probe.measure(ROOT, [argv[0], str(folder / f"{name}.json"), *argv[1:]],
                                tmp_path, TIMEOUT_S, ADDRESS_SPACE_BYTES)
    assert scaling_probe.refused(run, code) if code else scaling_probe.held(run), run
    report = json.loads((tmp_path / "stdout").read_bytes())
    assert report["command"] == argv[0]
    assert report.get("error", {}).get("code") == code
