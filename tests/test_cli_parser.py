"""The CLI parser, built from the subcommand table, against the reference in
tests/helpers.py: the same stdout, stderr and exit status on help, usage
errors and abbreviations, and the same namespace wherever argv parses."""

import argparse
import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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


@pytest.mark.parametrize("columns", ["20", "200", None], ids=["20", "200", "unset"])
def test_help_and_usage_do_not_follow_the_terminal_width(columns, monkeypatch):
    # the parser formats at a fixed 78 columns, which argparse computes at
    # COLUMNS=80: every output of the corpus is the reference's there
    monkeypatch.setenv("COLUMNS", "80")
    expected = [_parse(reference_parser(), argv) for argv in CORPUS]
    if columns is None:
        monkeypatch.delenv("COLUMNS")
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert [_parse(cli_module.build_parser(), argv) for argv in CORPUS] == expected


GOLDEN = Path(__file__).resolve().parent / "golden"


def _run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli_module.cli(argv)
    return out.getvalue(), err.getvalue(), status


def test_building_the_parser_formats_no_text(monkeypatch):
    # add_subparsers is given its prog, so no usage line is formatted to
    # derive it; help and usage are formatted only when printed
    formatted = []
    original = argparse.HelpFormatter.format_help

    def counted(self):
        formatted.append(self)
        return original(self)

    monkeypatch.setattr(argparse.HelpFormatter, "format_help", counted)
    parser = cli_module.build_parser()
    assert formatted == []
    assert parser.format_usage() == reference_parser().format_usage()


def test_a_job_never_asks_the_terminal_its_size(monkeypatch):
    # a job, help and a usage error each print what they print at COLUMNS=80,
    # with every terminal-size query raising; a parser built without the
    # fixed width would ask once per formatter
    monkeypatch.setenv("COLUMNS", "80")
    document = str(GOLDEN / "mobius_c4.json")
    reference = (GOLDEN / "mobius_c4.report.json").read_text(encoding="utf-8")
    usage = [["--help"], ["betti", "--help"], ["betti", document, "--method", "nope"]]
    expected = [_parse(reference_parser(), argv)[:3] for argv in usage]
    queries = []

    def refuse(*args):
        queries.append(args)
        raise OSError("no terminal")

    monkeypatch.setattr(shutil, "get_terminal_size", refuse)
    assert _run_cli(["betti", "--method", "minimal", document]) == (reference, "", 0)
    for argv, want in zip(usage, expected):
        assert _run_cli(argv) == want
    assert queries == []
