"""Pinned cohomology representatives and incidence columns.

Representatives follow the RREF free-variable convention, and an element's
generators are created in increasing degree.  A change to either shows here
as a literal mismatch even when every Betti number still agrees.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from helpers import densify, random_compositional_sheaf, random_dag_poset
from posheaf.cli import cli
from posheaf.cochain import build_complex, cohomology, minimal_incidence
from posheaf.io import serialize_sheaf
from posheaf.linalg import QQ, Matrix, prime_field
from posheaf.poset import build_poset
from posheaf.sheaf import build_sheaf, constant_sheaf, cycle_poset, mobius_sheaf

F3 = prime_field(3)

MORSE_POSET = build_poset(
    ["1", "2", "3", "a", "b"],
    [("1", "a"), ("2", "a"), ("a", "b"), ("3", "b")],
)


def _reduce_mod_p(s, field):
    """Image of a rational sheaf under Z_(p) -> F_p; a ring map, so it keeps
    compositionality (unlike coercing entries one by one)."""
    p = field.p
    maps = {
        edge: Matrix(m.rows, m.cols,
                     [[x.numerator * pow(x.denominator, -1, p) % p for x in row]
                      for row in m.data], field)
        for edge, m in s.edge_map.items()
    }
    return build_sheaf(s.poset, {e: s.stalk(e) for e in s.poset.elements}, maps, field)


def _random_case(seed, field):
    # a plain generator: the pinned literals must not follow POSHEAF_SEED
    rng = np.random.default_rng(seed)
    p = random_dag_poset(rng, max_elements=7)
    s = random_compositional_sheaf(p, rng, QQ)
    return s if field == QQ else _reduce_mod_p(s, field)


CASES = {
    "mobius_c4": lambda: mobius_sheaf(4, QQ),
    "morse": lambda: constant_sheaf(MORSE_POSET, 1, QQ),
    "cycle5": lambda: constant_sheaf(cycle_poset(5), 1, QQ),
    "dag59_q": lambda: _random_case(59, QQ),
    "dag59_f3": lambda: _random_case(59, F3),
    "dag90_q": lambda: _random_case(90, QQ),
    "dag90_f3": lambda: _random_case(90, F3),
    "dag126_q": lambda: _random_case(126, QQ),
    "dag126_f3": lambda: _random_case(126, F3),
}


def _sparse(vec):
    return [[i, str(x)] for i, x in enumerate(vec) if x]


def _incidence_columns(s, tmp_path):
    """(gid, degree, owner, sparse column) per generator; the column is read
    off the rendered ``incidence`` report's sparse rows, the "@" row included."""
    inc = minimal_incidence(s.poset, s.field)
    path = tmp_path / "doc.json"
    path.write_text(serialize_sheaf(s))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli(["incidence", str(path)]) == 0
    report = json.loads(buffer.getvalue())["incidence"]
    labels = report["labels"]
    matrix = densify(report["matrix"], len(labels))
    out = []
    for g, (degree, owner) in enumerate(inc.generators):
        col = g + 1
        out.append([g, degree, owner,
                    [[labels[row], matrix[row][col]]
                     for row in range(len(labels)) if matrix[row][col] != "0"]])
        for h in range(len(inc.generators)):
            assert str(inc.columns[g].get(h, s.field.zero())) == matrix[h + 1][col]
    return out


def capture(s, tmp_path):
    return {
        "roos": [[b, [_sparse(v) for v in reps]]
                 for b, reps in cohomology(build_complex(s, "roos"))],
        "minimal": [[b, [_sparse(v) for v in reps]]
                    for b, reps in cohomology(build_complex(s, "minimal"))],
        "incidence": _incidence_columns(s, tmp_path),
    }


# captured once from the code above; never regenerate to make this test pass
PINNED = {"cycle5": {"incidence": [[0, 0, "v0", [["@", "1"]]], [1, 0, "v1", [["@", "1"]]],
                          [2, 0, "v2", [["@", "1"]]], [3, 0, "v3", [["@", "1"]]],
                          [4, 0, "v4", [["@", "1"]]],
                          [5, 1, "e0", [["g0", "-1"], ["g1", "1"]]],
                          [6, 1, "e1", [["g1", "-1"], ["g2", "1"]]],
                          [7, 1, "e2", [["g2", "-1"], ["g3", "1"]]],
                          [8, 1, "e3", [["g3", "-1"], ["g4", "1"]]],
                          [9, 1, "e4", [["g0", "-1"], ["g4", "1"]]]],
            "minimal": [[1, [[[0, "1"], [1, "1"], [2, "1"], [3, "1"], [4, "1"]]]],
                        [1, [[[4, "-1"]]]]],
            "roos": [[1,
                      [[[0, "1"], [1, "1"], [2, "1"], [3, "1"], [4, "1"], [5, "1"],
                        [6, "1"], [7, "1"], [8, "1"], [9, "1"]]]],
                     [1, [[[9, "1"]]]]]},
 "dag126_f3": {"incidence": [[0, 0, "x0", [["@", "1"]]], [1, 0, "x1", [["@", "1"]]],
                             [2, 1, "x2", [["g0", "2"], ["g1", "1"]]]],
               "minimal": [[3, [[[0, "1"]], [[1, "1"]], [[2, "1"]]]],
                           [1, [[[0, "1"]]]]],
               "roos": [[3, [[[0, "1"]], [[1, "1"], [4, "1"]], [[2, "1"], [5, "1"]]]],
                        [1, [[[1, "2"]]]]]},
 "dag126_q": {"incidence": [[0, 0, "x0", [["@", "1"]]], [1, 0, "x1", [["@", "1"]]],
                            [2, 1, "x2", [["g0", "-1"], ["g1", "1"]]]],
              "minimal": [[2, [[[0, "-2"], [1, "1"]], [[2, "1"]]]], [0, []]],
              "roos": [[2,
                        [[[0, "-1/2"], [1, "1/4"], [3, "-3/2"], [4, "1"]],
                         [[2, "1"], [5, "1"]]]],
                       [0, []]]},
 "dag59_f3": {"incidence": [[0, 0, "x0", [["@", "1"]]], [1, 0, "x1", [["@", "1"]]],
                            [2, 1, "x2", [["g0", "2"], ["g1", "1"]]],
                            [3, 0, "x3", [["@", "1"]]],
                            [4, 1, "x4", [["g0", "2"], ["g1", "1"]]],
                            [5, 2, "x5", [["g2", "2"], ["g4", "1"]]]],
              "minimal": [[3, [[[0, "2"], [2, "1"]], [[1, "1"], [3, "1"]], [[4, "1"]]]],
                          [1, [[[2, "1"]]]], [0, []]],
              "roos": [[3,
                        [[[1, "1"], [3, "1"], [5, "1"]], [[7, "1"]],
                         [[0, "2"], [2, "1"], [4, "2"], [8, "1"], [9, "1"]]]],
                       [1, [[[7, "2"]]]], [0, []]]},
 "dag59_q": {"incidence": [[0, 0, "x0", [["@", "1"]]], [1, 0, "x1", [["@", "1"]]],
                           [2, 1, "x2", [["g0", "-1"], ["g1", "1"]]],
                           [3, 0, "x3", [["@", "1"]]],
                           [4, 1, "x4", [["g0", "-1"], ["g1", "1"]]],
                           [5, 2, "x5", [["g2", "-1"], ["g4", "1"]]]],
             "minimal": [[3,
                          [[[0, "1/2"], [2, "1"]], [[1, "1"], [3, "1"]], [[4, "1"]]]],
                         [1, [[[2, "1"]]]], [0, []]],
             "roos": [[3,
                       [[[1, "1"], [3, "1"], [5, "1"]], [[7, "1"]],
                        [[0, "-1"], [2, "-2"], [4, "2"], [8, "-2"], [9, "1"]]]],
                      [1, [[[7, "-1"]]]], [0, []]]},
 "dag90_f3": {"incidence": [[0, 0, "x0", [["@", "1"]]], [1, 0, "x1", [["@", "1"]]],
                            [2, 0, "x2", [["@", "1"]]], [3, 0, "x4", [["@", "1"]]],
                            [4, 1, "x5", [["g0", "2"], ["g1", "1"]]],
                            [5, 1, "x5", [["g0", "2"], ["g3", "1"]]]],
              "minimal": [[6,
                           [[[0, "1"]], [[1, "1"]], [[2, "1"]], [[3, "1"]], [[4, "1"]],
                            [[5, "1"]]]],
                          [2, [[[0, "1"]], [[1, "1"]]]]],
              "roos": [[6,
                        [[[0, "1"]], [[1, "1"]], [[2, "1"]], [[3, "1"]],
                         [[4, "2"], [5, "1"]], [[6, "1"]]]],
                       [2, [[[1, "2"], [3, "2"]], [[1, "1"]]]]]},
 "dag90_q": {"incidence": [[0, 0, "x0", [["@", "1"]]], [1, 0, "x1", [["@", "1"]]],
                           [2, 0, "x2", [["@", "1"]]], [3, 0, "x4", [["@", "1"]]],
                           [4, 1, "x5", [["g0", "-1"], ["g1", "1"]]],
                           [5, 1, "x5", [["g0", "-1"], ["g3", "1"]]]],
             "minimal": [[4,
                          [[[1, "1"]], [[3, "1"]], [[4, "1"]],
                           [[0, "2"], [2, "1/2"], [5, "1"]]]],
                         [0, []]],
             "roos": [[4,
                       [[[1, "1"]], [[3, "1"]], [[4, "-1/4"], [5, "1"]],
                        [[0, "2/3"], [2, "1/6"], [6, "1/3"], [7, "1"]]]],
                      [0, []]]},
 "mobius_c4": {"incidence": [[0, 0, "v0", [["@", "1"]]], [1, 0, "v1", [["@", "1"]]],
                             [2, 0, "v2", [["@", "1"]]], [3, 0, "v3", [["@", "1"]]],
                             [4, 1, "e0", [["g0", "-1"], ["g1", "1"]]],
                             [5, 1, "e1", [["g1", "-1"], ["g2", "1"]]],
                             [6, 1, "e2", [["g2", "-1"], ["g3", "1"]]],
                             [7, 1, "e3", [["g0", "-1"], ["g3", "1"]]]],
               "minimal": [[0, []], [0, []]],
               "roos": [[0, []], [0, []]]},
 "morse": {"incidence": [[0, 0, "1", [["@", "1"]]], [1, 0, "2", [["@", "1"]]],
                         [2, 0, "3", [["@", "1"]]],
                         [3, 1, "a", [["g0", "-1"], ["g1", "1"]]],
                         [4, 1, "b", [["g1", "-1"], ["g2", "1"]]]],
           "minimal": [[1, [[[0, "1"], [1, "1"], [2, "1"]]]], [0, []]],
           "roos": [[1, [[[0, "1"], [1, "1"], [2, "1"], [3, "1"], [4, "1"]]]], [0, []],
                    [0, []]]}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_representatives_and_incidence_are_pinned(name, tmp_path):
    assert capture(CASES[name](), tmp_path) == PINNED[name]
