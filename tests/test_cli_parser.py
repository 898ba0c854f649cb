"""The CLI parser, built from the subcommand table, against the reference in
tests/helpers.py: the same stdout, stderr and exit status on help, usage
errors and abbreviations, and the same namespace wherever argv parses."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from helpers import reference_parser
from posheaf import cli as cli_module

DOC, SIDE = "doc.json", "side.json"
NAMES = ["validate", "classify", "sections", "betti", "incidence", "spectrum", "diffuse",
         "nsd-forward", "learn"]
SIDE_FILES = {"nsd-forward": [SIDE], "learn": [SIDE]}

CORPUS = [
    [], ["--help"], ["-h"], ["--version"],
    *([name, "--help"] for name in NAMES),
    ["nope", DOC], ["bet", DOC], ["validate"],
    ["betti", DOC, "--method", "nope"],
    ["spectrum", DOC, "--degree", "x"],
    ["diffuse", DOC, "--steps", "-1"],
    ["diffuse", DOC, "--mode", "fast"],
    ["learn", DOC, SIDE, "--lr", "0"],
    ["learn", DOC, SIDE, "--d", "0"],
    ["nsd-forward", DOC], ["learn", DOC], ["validate", DOC, "extra"],
    ["betti", DOC, "--meth", "roos"],
    ["spectrum", DOC, "--deg", "1"],
    # every default, then a value for every option
    *([name, DOC, *SIDE_FILES.get(name, [])] for name in NAMES),
    ["spectrum", DOC, "--norm", "weak"],
    ["diffuse", DOC, "--eta", "0.1", "--steps", "5", "--mode", "continuous", "--x0", SIDE],
    ["learn", DOC, SIDE, "--lr", "0.5", "--iters", "3", "--d", "2", "--seed", "7"],
]


def _parse(parser, argv) -> tuple:
    """stdout, stderr, SystemExit code (None when argv parses) and the parsed
    namespace less its handler."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = {k: v for k, v in vars(parser.parse_args(argv)).items() if k != "fn"}
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, namespace


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_matches_the_reference(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse(cli_module.build_parser(), argv) == _parse(reference_parser(), argv)
