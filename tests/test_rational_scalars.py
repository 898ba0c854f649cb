"""Over Q an integral scalar is a plain int, and a Fraction has a denominator
above 1, wherever the exact path hands scalars on: parsing, coercion, the
identity, elimination, kernels, inverses, homology representatives and
incidence columns.  No float appears anywhere on that path, and the answers
equal a dense oracle's that computes with Fractions only."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (dense_rref_oracle, densify, graph_sheaf_twins, homology_basis_reference,
                     random_compositional_sheaf, random_dag_poset, random_simplicial_poset,
                     seeded_rng, twisted_cycle_sheaf)
from posheaf.cochain import build_complex, minimal_incidence
from posheaf.io import parse_sheaf, serialize_sheaf
from posheaf.linalg import QQ, Matrix, homology_basis, invert, kernel_basis, rref
from posheaf.poset import decode_simplicial_elements
from posheaf.sheaf import check_compositionality

GOLDEN = Path(__file__).parent / "golden"
_GOLDENS = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".report.json"))
_POOL = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3)]


def _assert_q_scalars(values, where):
    """Every value an int, or a Fraction that is not integral."""
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), (where, type(x), x)


def _assert_no_float(values, where):
    for x in values:
        assert type(x) in (int, Fraction), (where, type(x), x)


def _matrix_values(m: Matrix):
    return (x for _, _, x in m.nonzeros())


def _fraction_copy(m: Matrix) -> Matrix:
    """m with every entry a Fraction: the oracle's input."""
    return Matrix(m.rows, m.cols, [[Fraction(x) for x in row] for row in m.data], QQ)


def _kernel_oracle(m: Matrix) -> list[list]:
    red, pivots, _ = dense_rref_oracle(_fraction_copy(m))
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for pc, row in zip(pivots, red.data):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def _inverse_oracle(m: Matrix) -> list[list] | None:
    n = m.rows
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m.data)]
    red, pivots, rk = dense_rref_oracle(Matrix(n, 2 * n, aug, QQ))
    if rk < n or pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red.data]


def _random_square(rng: np.random.Generator, n: int) -> Matrix:
    return Matrix.from_rows([[_POOL[int(rng.integers(0, len(_POOL)))] for _ in range(n)]
                             for _ in range(n)], QQ)


def _sheaves():
    rng = seeded_rng(2501)
    out = [parse_sheaf(path.read_text()) for path in _GOLDENS]
    for _ in range(12):
        out.append(random_compositional_sheaf(random_dag_poset(rng, max_elements=7), rng))
    for _ in range(4):
        out.append(random_compositional_sheaf(random_simplicial_poset(rng), rng))
    out += [twisted_cycle_sheaf(n, rng) for n in (3, 5, 8)]
    out += [graph_sheaf_twins(n, kind, rng)[0] for n, kind in
            [(5, "gauss"), (6, "gauge"), (6, "frame")]]
    return out


_SHEAVES = _sheaves()


def test_parse_coerce_and_identity_give_q_scalars():
    values = [0, 1, -7, True, 2.0, 0.5, "6/3", "-4/6", "1e2", "25e-1", Fraction(8, 4),
              Fraction(-1, 3), 10**30]
    coerced = [QQ.coerce(x) for x in values]
    _assert_q_scalars(coerced, "coerce")
    assert coerced == [Fraction(x) for x in values]
    assert (QQ.zero(), QQ.one()) == (0, 1) and type(QQ.zero()) is type(QQ.one()) is int
    for n in range(4):
        _assert_q_scalars(_matrix_values(Matrix.identity(n, QQ)), "identity")
    for s in _SHEAVES:
        parsed = parse_sheaf(serialize_sheaf(s))
        assert parsed.edge_map == s.edge_map
        for edge, m in parsed.edge_map.items():
            _assert_q_scalars(_matrix_values(m), ("parse_sheaf", edge))


def test_rref_kernel_and_inverse_give_q_scalars_and_the_oracles_values():
    rng = seeded_rng(2502)
    mats = [m for s in _SHEAVES for m in s.edge_map.values()]
    mats += [_random_square(rng, int(rng.integers(1, 5))) for _ in range(60)]
    inverted = 0
    for m in mats:
        red, pivots, rk = rref(m)
        _assert_q_scalars(_matrix_values(red), "rref")
        expected = dense_rref_oracle(_fraction_copy(m))
        assert (red.data, pivots, rk) == (expected[0].data, expected[1], expected[2])
        kernel = kernel_basis(m)
        _assert_q_scalars((x for vec in kernel for x in vec.values()), "kernel_basis")
        assert densify(kernel, m.cols, 0) == _kernel_oracle(m)
        if m.rows == m.cols:
            inverse = invert(m)
            expected = _inverse_oracle(m)
            assert (inverse is None) == (expected is None)
            if inverse is not None:
                _assert_q_scalars(_matrix_values(inverse), "invert")
                assert inverse.data == expected
                inverted += 1
    assert inverted >= 20


@pytest.mark.parametrize("index", range(len(_SHEAVES)))
def test_homology_and_incidence_give_q_scalars_and_the_oracles_values(index):
    s = _SHEAVES[index]
    inc = minimal_incidence(s.poset, QQ)
    for gid, column in enumerate(inc.columns):
        _assert_q_scalars(column.values(), ("minimal_incidence", gid))
    if check_compositionality(s):  # triangle_violations: no complex to build
        return
    methods = ["roos", "minimal"]
    if decode_simplicial_elements(s.poset) is not None:
        methods.append("cellular")
    for method in methods:
        c = build_complex(s, method)
        for j, d in enumerate(c.diffs):
            _assert_no_float(_matrix_values(d), (method, "d", j))
        dims = [c.degree_dim(j) for j in range(c.top_degree + 1)]
        reps = homology_basis(c.diffs, dims, QQ)
        for j, vecs in enumerate(reps):
            _assert_q_scalars((x for vec in vecs for x in vec.values()), (method, j))
        expected = homology_basis_reference([_fraction_copy(d) for d in c.diffs], dims, QQ)
        assert [len(vecs) for vecs in reps] == [len(vecs) for vecs in expected]
        dense = [[[vec.get(i, 0) for i in range(n)] for vec in vecs]
                 for vecs, n in zip(reps, dims)]
        assert dense == expected, method


def test_a_representative_cleared_by_a_fractional_image_row_holds_ints():
    # the image's RREF row (1, 1/2, 0) clears the kernel vector (2, 0, 1) at
    # its pivot, leaving (0, -1, 1), whose -1 is 0 - 2 * (1/2)
    d0 = Matrix.from_rows([[2], [1], [0]], QQ)
    d1 = Matrix.from_rows([[1, -2, -2]], QQ)
    reps = homology_basis([d0, d1], [1, 3, 1], QQ)
    assert [sorted((j, type(x), x) for j, x in vec.items()) for vec in reps[1]] == \
        [[(1, int, -1), (2, int, 1)]]
    assert reps[0] == reps[2] == []
