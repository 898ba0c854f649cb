"""Regenerate the canonical golden documents and their pinned run reports.

Run from the repository root:  python3 tools/make_goldens.py
The drift test (tests/test_acceptance.py) fails whenever a report stops
reproducing byte-identically.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from posheaf.cli import cli
from posheaf.io import serialize_sheaf
from posheaf.linalg import QQ, Matrix
from posheaf.poset import build_poset, hypergraph_to_poset, simplicial_complex_poset
from posheaf.sheaf import build_sheaf, constant_sheaf, cycle_poset, mobius_sheaf, path_poset

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

MORSE_POSET = build_poset(
    ["1", "2", "3", "a", "b"],
    [("1", "a"), ("2", "a"), ("a", "b"), ("3", "b")],
)


def triangle_two_violations():
    """Full triangle whose maps from vertex 2 and vertex 3 to the 2-simplex
    disagree along their two saturated paths: two compositionality violations."""
    p = simplicial_complex_poset([["1", "2", "3"]])
    face_values = {"1,2": 1, "1,3": 1, "2,3": 2}
    maps = {
        (a, b): Matrix.from_rows([[1 if "," not in a else face_values[a]]], QQ)
        for (a, b) in p.hasse_edges()
    }
    return build_sheaf(p, {e: 1 for e in p.elements}, maps, QQ)


DOCUMENTS = {
    "path_constant": constant_sheaf(path_poset(3), 1, QQ),
    "cycle3_constant": constant_sheaf(cycle_poset(3), 1, QQ),
    "cycle4_constant": constant_sheaf(cycle_poset(4), 1, QQ),
    "cycle5_constant": constant_sheaf(cycle_poset(5), 1, QQ),
    "cycle6_constant": constant_sheaf(cycle_poset(6), 1, QQ),
    "mobius_c4": mobius_sheaf(4, QQ),
    "morse_constant": constant_sheaf(MORSE_POSET, 1, QQ),
    "triangle_full": constant_sheaf(simplicial_complex_poset([["1", "2", "3"]]), 1, QQ),
    "hypergraph_triple": constant_sheaf(
        hypergraph_to_poset(["1", "2", "3"], [["1", "2", "3"], ["2", "3"]]), 1, QQ
    ),
    "triangle_violations": triangle_two_violations(),
}

# one pinned command per document; flags are part of the pin
COMMANDS = {
    "path_constant": ["sections"],
    "cycle3_constant": ["betti", "--method", "roos"],
    "cycle4_constant": ["spectrum", "--degree", "0", "--norm", "none"],
    "cycle5_constant": ["spectrum", "--degree", "0", "--norm", "weak"],
    "cycle6_constant": ["diffuse", "--eta", "0.1", "--steps", "50", "--mode", "discrete"],
    "mobius_c4": ["betti", "--method", "minimal"],
    "morse_constant": ["incidence"],
    "triangle_full": ["betti", "--method", "cellular"],
    "hypergraph_triple": ["classify"],
    "triangle_violations": ["validate"],
}


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, sheaf in DOCUMENTS.items():
        doc_path = GOLDEN / f"{name}.json"
        doc_path.write_text(serialize_sheaf(sheaf), encoding="utf-8")
        argv = COMMANDS[name][:1] + COMMANDS[name][1:] + [str(doc_path)]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli(argv)
        if code != 0:
            raise SystemExit(f"{name}: command failed with exit code {code}")
        (GOLDEN / f"{name}.report.json").write_text(buffer.getvalue(), encoding="utf-8")
        print(f"pinned {name}")


if __name__ == "__main__":
    main()
