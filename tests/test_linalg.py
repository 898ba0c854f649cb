import io
import itertools
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from helpers import (bareiss_rank, d_squared_product_reference, dense_kernel_oracle,
                     dense_rref_oracle, densify, gauge_connection_sheaf, homology_basis_reference,
                     integer_rows, matrix_apply, random_compositional_sheaf, random_dag_poset,
                     random_sheaf, random_simplicial_poset, scalar_ops, seeded_rng,
                     trial_division_is_prime, twisted_cycle_sheaf, unchecked_diffs)
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posheaf import linalg
from posheaf.cli import cli
from posheaf.cochain import (build_complex, cellular_complex, minimal_complex, minimal_incidence,
                             roos_complex)
from posheaf.errors import FieldMismatch, NotAComplex, OverflowOnConvert
from posheaf.io import serialize_sheaf
from posheaf.linalg import (
    Matrix,
    QQ,
    RR,
    _is_prime,
    check_d_squared,
    homology_basis,
    invert,
    kernel_basis,
    prime_field,
    rank,
    rref,
)
from posheaf.poset import build_poset, simplicial_complex_poset
from posheaf.sheaf import build_sheaf, constant_sheaf, global_sections_bruteforce, path_poset
from posheaf.spectral import (dirichlet_energy, hypergraph_energy_forms, laplacian,
                              real_sheaf_complex)

F2, F3, F5 = prime_field(2), prime_field(3), prime_field(5)


def test_rref_identity():
    m = Matrix.identity(3, QQ)
    red, pivots, rank = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]
    assert rank == 3


def test_rref_zero_matrix():
    m = Matrix.zeros(2, 4, QQ)
    red, pivots, rank = rref(m)
    assert red == m
    assert pivots == []
    assert rank == 0


def test_rref_proportional_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]], QQ)
    red, pivots, rank = rref(m)
    assert red.data == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]
    assert rank == 1


def test_rref_rejects_reals():
    with pytest.raises(FieldMismatch):
        rref(Matrix.from_rows([[1.0]], RR))


_Q_ENTRIES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2),
              Fraction(-2, 3), Fraction(5)]
# numerators and denominators beyond 2^64, and row scalings with large
# coprime parts: the lcm and content steps of integer-row elimination
_LARGE_Q_ENTRIES = [Fraction(2**64 + 13), Fraction(-(2**70) - 1, 3**29),
                    Fraction(5**30, 2**65 + 1), Fraction(1, 2**66 + 7), Fraction(-7)]
_LARGE_SCALES = [Fraction(2**61 - 1, 3**20), Fraction(65537, 10007),
                 Fraction(-(3**41), 2**67 + 3)]
_EDGE_SHAPES = [(0, 0), (0, 4), (4, 0), (1, 1), (1, 12), (12, 1), (2, 12), (12, 2)]
_MONODROMIES = [((2, 1), (1, 1)), ((1, 0), (0, 1)), ((1, 1), (0, 1))]


def _random_matrix(rng: np.random.Generator, field, rows: int, cols: int,
                   q_entries=_Q_ENTRIES) -> Matrix:
    """Random matrix with density in [0.05, 1]; about a third of them get a
    row that combines two others, so rank deficiency is common."""
    density = 0.05 + 0.95 * rng.random()

    def entry():
        if field == QQ:
            return q_entries[int(rng.integers(0, len(q_entries)))]
        return int(rng.integers(1, field.p))

    data = [[entry() if rng.random() < density else field.zero() for _ in range(cols)]
            for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.35:
        i, j, k = (int(x) for x in rng.choice(rows, 3, replace=False))
        c = entry()
        add, _, mul, _ = scalar_ops(field)
        data[k] = [add(a, mul(c, b)) for a, b in zip(data[i], data[j])]
    return Matrix(rows, cols, data, field)


def _oracle_cases() -> list[Matrix]:
    rng = seeded_rng(43)
    cases = []
    for field in (QQ, F2, prime_field(3), prime_field(2**31 - 1)):
        shapes = _EDGE_SHAPES + [(int(rng.integers(0, 13)), int(rng.integers(0, 13)))
                                 for _ in range(120)]
        cases += [_random_matrix(rng, field, r, c) for r, c in shapes]
        for n in (5, 40):
            for mono in _MONODROMIES:
                sheaf = twisted_cycle_sheaf(n, rng, field, mono)
                cases.append(build_complex(sheaf, "minimal").diffs[0])
    return cases


def _assert_kernel_matches_the_dense_oracle(m: Matrix):
    """kernel_basis(m) is the dense oracle's kernel, each vector's nonzero
    entries in increasing column order."""
    want = [[(j, x) for j, x in enumerate(vec) if x] for vec in dense_kernel_oracle(m)]
    assert [list(vec.items()) for vec in kernel_basis(m)] == want


def test_rref_kernel_and_inverse_match_the_dense_oracle(monkeypatch):
    cases = _oracle_cases()
    assert len(cases) >= 500
    for m in cases:
        red, pivots, rk = rref(m)
        want_red, want_pivots, want_rk = dense_rref_oracle(m)
        assert red == want_red
        assert (pivots, rk) == (want_pivots, want_rk)
        _assert_kernel_matches_the_dense_oracle(m)
    got = [invert(m) for m in cases]
    monkeypatch.setattr(linalg, "rref", dense_rref_oracle)
    assert got == [invert(m) for m in cases]


def test_rank_matches_the_dense_oracle_and_leaves_its_input_alone():
    cases = _oracle_cases()
    assert len(cases) >= 500
    dense = [m.data for m in cases]
    assert [rank(m) for m in cases] == [dense_rref_oracle(m)[2] for m in cases]
    assert [m.data for m in cases] == dense
    for field in (QQ, F2, prime_field(2**31 - 1)):
        for shape in _EDGE_SHAPES:
            assert rank(Matrix.zeros(*shape, field)) == 0
    with pytest.raises(FieldMismatch):
        rank(Matrix.from_rows([[1.0, 0.0], [0.0, 1.0]], RR))


def test_large_rational_entries_and_row_scalings_keep_every_result(monkeypatch):
    # each row of every rational oracle case times a large rational: the same
    # row space, so the same rref, pivots, rank and kernel, and the inverse
    # m^-1 D^-1 of D m; then those and random matrices with entries beyond
    # 2^64 against the dense oracle
    rng = seeded_rng(64)
    plain = [m for m in _oracle_cases() if m.field == QQ]
    scaled = []
    for m in plain:
        d = [_LARGE_SCALES[int(rng.integers(0, len(_LARGE_SCALES)))] for _ in range(m.rows)]
        s = Matrix(m.rows, m.cols, [[di * x for x in row] for di, row in zip(d, m.data)], QQ)
        scaled.append(s)
        assert (rref(s), rank(s), kernel_basis(s)) == (rref(m), rank(m), kernel_basis(m))
        inverse = invert(m)
        assert invert(s) == (inverse and Matrix.from_rows(
            [[x / dk for x, dk in zip(row, d)] for row in inverse.data], QQ))
    large = [_random_matrix(rng, QQ, int(rng.integers(1, 13)), int(rng.integers(1, 13)),
                            _LARGE_Q_ENTRIES) for _ in range(80)]
    cases = scaled + large
    for m in cases:
        want = dense_rref_oracle(m)
        assert rref(m) == want and rank(m) == want[2]
        _assert_kernel_matches_the_dense_oracle(m)
    got = [invert(m) for m in cases]
    monkeypatch.setattr(linalg, "rref", dense_rref_oracle)
    assert got == [invert(m) for m in cases]


def test_rank_of_roos_simplex_differentials_matches_bareiss():
    # 2-skeleta of the simplex on 4-7 vertices; on 8 vertices Bareiss alone
    # takes about 3 s on the 336 x 392 differential of degree 1
    for k in range(4, 8):
        p = simplicial_complex_poset(
            [list(c) for r in (1, 2, 3) for c in itertools.combinations(range(k), r)])
        c = build_complex(gauge_connection_sheaf(p, seeded_rng(k)), "roos")
        assert len(c.diffs) == 2
        for d in c.diffs:
            assert rank(d) == bareiss_rank(integer_rows(d.data))


def _stored(m: Matrix) -> list:
    return [x for row in m._entries for x in row.values()]


def test_cancelling_operations_store_no_zero():
    for field in (QQ, F2, prime_field(3), prime_field(2**31 - 1), RR):
        m = Matrix.from_rows([[1, 2, 0], [0, 3, 1]], field)
        assert _stored(m - m) == [] and (m - m) == Matrix.zeros(2, 3, field)
        assert _stored(m.scale(0)) == []
        row, column = Matrix.from_rows([[1, 1]], field), Matrix.from_rows([[1], [-1]], field)
        assert _stored(row @ column) == []
        total = Matrix.zeros(3, 4, field)
        total.add_block(1, 1, m)
        total.add_block(1, 1, m, field.coerce(-1))
        assert _stored(total) == [] and total == Matrix.zeros(3, 4, field)
        partial = Matrix.from_rows([[0, 2, 0, 5]], field)
        partial.add_block(0, 1, Matrix.from_rows([[-2, 1]], field))
        assert partial.data == Matrix.from_rows([[0, 0, 1, 5]], field).data
        assert len(_stored(partial)) == 2
    for m in _oracle_cases():
        assert all(x for x in _stored(rref(m)[0]))
    # 1e-200 * 1e-200 rounds to 0.0 in a column the row does not hold yet
    tiny = Matrix.from_rows([[1e-200]], RR)
    assert tiny @ tiny == Matrix.zeros(1, 1, RR)


def test_real_products_sum_in_increasing_inner_index():
    # Float sums depend on their order.  Stored in the order 2, 0, 1, the
    # row must still be summed as 1e16 + 1 - 1e16 = 0.0, as a dense loop does.
    row = Matrix.zeros(1, 3, RR)
    for j, x in ((2, -1e16), (0, 1e16), (1, 1.0)):
        row.add_block(0, j, Matrix.from_rows([[x]], RR))
    ones = Matrix.from_rows([[1.0]] * 3, RR)
    dense = sum((a * b for a, (b,) in zip(row.data[0], ones.data)), 0.0)
    assert (row @ ones).data == [[dense]] == [[0.0]]


def test_dense_rows_round_trip_and_the_data_view_is_a_copy():
    rng = seeded_rng(7)
    cases = [_random_matrix(rng, field, 4, 5) for field in (QQ, prime_field(3))]
    cases.append(Matrix.from_rows(rng.standard_normal((3, 4)).round(1).tolist(), RR))
    cases.append(Matrix.from_rows([[0.0, -0.0, 1.5]], RR))
    for m in cases:
        assert Matrix(m.rows, m.cols, m.data, m.field) == m
        view = m.data
        # 7 and 8 differ over every field here, so one of them changes the entry
        view[0][0] = next(x for x in map(m.field.coerce, (7, 8)) if x != view[0][0])
        assert m.data != view and Matrix(m.rows, m.cols, m.data, m.field) == m


def _rref_work_on_twisted_cycles(monkeypatch, field) -> dict[int, int]:
    """Entries that ``_add_multiple`` visits in ``rref`` of the minimal d0 of
    the twisted cycles C_40 and C_160 over field."""
    d0 = {n: build_complex(twisted_cycle_sheaf(n, seeded_rng(n), field), "minimal").diffs[0]
          for n in (40, 160)}
    visited = [0]
    add_multiple = linalg._add_multiple

    def counting_add_multiple(row, c, other, p, a=1):
        visited[0] += len(other)
        add_multiple(row, c, other, p, a)

    monkeypatch.setattr(linalg, "_add_multiple", counting_add_multiple)
    work = {}
    for n, m in d0.items():
        visited[0] = 0
        rref(m)
        work[n] = visited[0]
    return work


def test_rref_work_on_a_twisted_cycle_grows_linearly(monkeypatch):
    # Counts the entries that row operations visit, not seconds.  Four times
    # the cycle costs about 4x the work in the sparse elimination and about
    # 16x in a dense column-by-column loop.
    work = _rref_work_on_twisted_cycles(monkeypatch, prime_field(2**31 - 1))
    assert 0 < work[160] <= 6 * work[40]


def test_rational_rref_work_on_a_twisted_cycle_grows_linearly(monkeypatch):
    # the same bound over Q, where rows are cleared by cross-multiplying
    # integer rows instead of subtracting a lead-one row
    work = _rref_work_on_twisted_cycles(monkeypatch, QQ)
    assert 0 < work[160] <= 6 * work[40]


def test_sections_work_on_a_simplex_skeleton_is_linear_in_the_system(monkeypatch, tmp_path):
    # sections solves one row D(a<b) x_a - x_b per cover: on the 2-skeleton of
    # the 20-vertex simplex, 3,800 rows with 7,600 nonzeros.  Rows inserted in
    # document order chain through each vertex's edges, about 600 row
    # operations a row; in the forward pass's order, about 6.
    faces = [c for k in (1, 2, 3) for c in itertools.combinations(range(20), k)]
    sheaf = constant_sheaf(simplicial_complex_poset(faces), 1, QQ)
    nonzeros = 2 * sum(1 for _ in sheaf.poset.hasse_edges())
    assert nonzeros == 7600
    doc = tmp_path / "skeleton.json"
    doc.write_text(serialize_sheaf(sheaf))
    calls = [0]
    add_multiple = linalg._add_multiple

    def counting_add_multiple(*args):
        calls[0] += 1
        add_multiple(*args)

    monkeypatch.setattr(linalg, "_add_multiple", counting_add_multiple)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli(["sections", str(doc)]) == 0
    assert json.loads(out.getvalue())["sections"]["dim"] == 1
    assert 0 < calls[0] <= 16 * nonzeros


def test_numpy_integers_coerce_to_python_ints():
    # numpy's int64 wraps: 2**62 * 2**62 in a fixed-width product is 0
    big = [[2**62, 3], [5, 2**62]]
    for field in (QQ, prime_field(2**31 - 1)):
        m = Matrix.from_rows(np.array(big), field)
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*big)] for row in big]
        assert (m @ m).data == Matrix.from_rows(product, field).data
        assert {type(x) for row in (m @ m).data for x in row} == {int}
        assert {type(x) for row in m.data for x in row} == {int}
        assert type(m.scale(np.int64(3)).data[0][0]) is int


def test_real_coerce_beyond_the_doubles_is_overflow_on_convert():
    for value in (10**400, Fraction(10**400, 3), -(10**400)):
        with pytest.raises(OverflowOnConvert, match="beyond the double range"):
            Matrix.from_rows([[value]], RR)
    assert RR.coerce(Fraction(10**400, 10**399)) == 10.0


def test_real_coerce_refuses_non_finite_values():
    for value in ("1e400", "-1e400", "inf", "-inf", float("inf"), float("-inf")):
        with pytest.raises(OverflowOnConvert, match="^a real scalar beyond the double range$"):
            RR.coerce(value)
    for value in ("nan", float("nan")):
        with pytest.raises(FieldMismatch, match=f"^{value!r} is not a real number$"):
            RR.coerce(value)
    with pytest.raises(OverflowOnConvert, match="beyond the double range"):
        Matrix.from_rows([["1e400", float("nan")]], RR)
    with pytest.raises(FieldMismatch, match="nan"):
        Matrix.from_rows([[1.0, float("nan")]], RR)
    p = build_poset(["a", "b"], [("a", "b")])
    with pytest.raises(OverflowOnConvert, match="beyond the double range"):
        build_sheaf(p, {"a": 1, "b": 1}, {("a", "b"): [["1e400"]]}, RR)
    assert RR.coerce("1e308") == 1e308 and RR.coerce("-2.5") == -2.5


@pytest.mark.parametrize("value", ["abc", None, [1], "1/0"])
def test_coerce_refuses_a_non_number_as_field_mismatch(value):
    # Matrix.from_rows([[[1]]], QQ) holds the entry [1]
    for field, kind in ((QQ, "rational"), (F5, "rational"), (RR, "real")):
        message = f"^{re.escape(repr(value))} is not a {kind} number"
        with pytest.raises(FieldMismatch, match=message):
            Matrix.from_rows([[value]], field)


def test_prime_field_coerce_maps_rationals_to_residues():
    f3 = prime_field(3)
    assert f3.coerce(Fraction(1, 2)) == 2
    assert f3.coerce(Fraction(-1, 2)) == 1
    assert f3.coerce("1/2") == 2
    assert f3.coerce(-1) == 2
    assert f3.coerce(4.0) == 1
    for value in (Fraction(1, 3), Fraction(2, 6), "5/9", 0.5, float("nan"), float("inf"),
                  "x", None):
        with pytest.raises(FieldMismatch):
            f3.coerce(value)


def test_kernel_consensus_equation():
    m = Matrix.from_rows([[1, -1]], QQ)
    assert densify(kernel_basis(m), 2, 0) == [[Fraction(1), Fraction(1)]]


def test_kernel_of_identity_empty():
    assert kernel_basis(Matrix.identity(2, QQ)) == []


def test_kernel_char_two():
    m = Matrix.from_rows([[1, 1], [1, 1]], F2)
    assert densify(kernel_basis(m), 2, 0) == [[1, 1]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=30))
def test_prime_field_division_roundtrip(seed):
    # exhaustive multiplicative round trips for small primes
    for p in (2, 3, 5, 7):
        f = prime_field(p)
        for a in range(p):
            for b in range(1, p):
                ab = Matrix.from_rows([[a * b]], f)
                assert invert(Matrix.from_rows([[b]], f)) @ ab == Matrix.from_rows([[a]], f)


def test_is_prime_matches_trial_division_below_20000():
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if trial_division_is_prime(n)
    ]


@pytest.mark.parametrize("n, expected", [
    (2047, False),  # strong pseudoprime to base 2
    (1373653, False),  # strong pseudoprime to bases 2, 3
    (25326001, False),  # strong pseudoprime to bases 2, 3, 5
    (2147483641, False),
    (2147483645, False),
    (2147483629, True),
    (2147483647, True),  # 2^31 - 1
])
def test_is_prime_near_the_strong_pseudoprimes_and_2_31(n, expected):
    assert _is_prime(n) is expected
    assert trial_division_is_prime(n) is expected


@pytest.mark.parametrize("p", [7.0, "7", 7.5, True, None])
def test_a_modulus_that_is_not_an_int_is_a_field_mismatch(p):
    # 7.0 used to pass as Fp:7.0, equal to Fp:7, and break every coerce
    with pytest.raises(FieldMismatch):
        prime_field(p)


def _path(field):
    return constant_sheaf(path_poset(2), 1, field)


_ONE_R = [[1.0]]


@pytest.mark.parametrize("stage, run, got", [
    ("rref", lambda: rref(Matrix.from_rows(_ONE_R, RR)), "R"),
    ("rank", lambda: rank(Matrix.from_rows(_ONE_R, RR)), "R"),
    ("kernel_basis", lambda: kernel_basis(Matrix.from_rows(_ONE_R, RR)), "R"),
    ("invert", lambda: invert(Matrix.from_rows(_ONE_R, RR)), "R"),
    ("homology_basis", lambda: homology_basis([], [1], RR), "R"),
    ("roos_complex", lambda: roos_complex(_path(RR)), "R"),
    ("cellular_complex", lambda: cellular_complex(_path(RR)), "R"),
    ("minimal_incidence", lambda: minimal_incidence(path_poset(2), RR), "R"),
    ("global_sections_bruteforce", lambda: global_sections_bruteforce(_path(RR)), "R"),
    ("laplacian", lambda: laplacian(roos_complex(_path(prime_field(7))), 0), "Fp:7"),
    ("dirichlet_energy",
     lambda: dirichlet_energy(roos_complex(_path(prime_field(7))), [1.0, 0.0, 0.0]), "Fp:7"),
    ("hypergraph_energy_forms",
     lambda: hypergraph_energy_forms(_path(prime_field(7)), [1.0, 0.0, 0.0]), "Fp:7"),
    ("real_sheaf_complex", lambda: real_sheaf_complex(_path(prime_field(7))), "Fp:7"),
], ids=lambda value: value if isinstance(value, str) else "on")
def test_every_stage_names_itself_and_the_field_it_rejects(stage, run, got):
    with pytest.raises(FieldMismatch) as info:
        run()
    message = str(info.value)
    assert message.startswith(f"{stage} requires ") and message.endswith(f", got {got}")


def _dense_homology_basis(diffs, dims, field=QQ):
    """homology_basis with each sparse representative written out densely."""
    zero = field.zero()
    return [[[vec.get(k, zero) for k in range(n)] for vec in reps]
            for reps, n in zip(homology_basis(diffs, dims, field), dims)]


@pytest.mark.parametrize("method", ["roos", "minimal"])
def test_homology_basis_matches_the_dense_reference_on_random_complexes(method):
    # the selection rule, not only the Betti numbers: the same vectors in
    # the same order as the dense reference, over four fields
    rng = seeded_rng(1606)
    for _ in range(60):
        p = random_dag_poset(rng, max_elements=8)
        sheaves = [random_compositional_sheaf(p, rng, f) for f in (QQ, F3, F5)]
        for sheaf in sheaves + [constant_sheaf(p, 2, F2)]:
            c = build_complex(sheaf, method)
            dims = [c.degree_dim(j) for j in range(c.top_degree + 1)]
            assert (_dense_homology_basis(c.diffs, dims, c.field)
                    == homology_basis_reference(c.diffs, dims, c.field))


def test_homology_of_zero_differential():
    # dimensions 2 and 1 with the zero map between them
    reps = _dense_homology_basis([Matrix.zeros(1, 2, QQ)], [2, 1])
    assert reps == [[[1, 0], [0, 1]], [[1]]]


def test_augmented_point_has_no_reduced_homology():
    # chain complex v -> @ read in negated degrees: C^0 = <v>, C^1 = <@>
    reps = homology_basis([Matrix.from_rows([[1]], QQ)], [1, 1], QQ)
    assert reps == [[], []]


def _triangle_boundary_blocks(field=QQ):
    """Augmented chain complex of the triangle boundary in negated degrees:
    edges 12, 13, 23 -> vertices 1, 2, 3 -> "@"."""
    one, neg = field.one(), field.coerce(-1)
    data = [[field.zero()] * 3 for _ in range(3)]
    for col, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        data[i][col] = neg
        data[j][col] = one
    boundary = Matrix(3, 3, data, field)
    augmentation = Matrix(1, 3, [[one, one, one]], field)
    return [boundary, augmentation], [3, 3, 1]


def test_triangle_boundary_single_degree_one_class():
    # oracle: rank d1 = 2, dim C1 = 3, so reduced betti_1 = 1
    diffs, dims = _triangle_boundary_blocks()
    reps = _dense_homology_basis(diffs, dims)
    assert [len(r) for r in reps] == [1, 0, 0]
    # the representative is a genuine cycle
    assert all(not x for x in matrix_apply(diffs[0], reps[0][0]))


def test_path_and_isolated_vertex_one_reduced_degree_zero_class():
    # the triangle boundary without edges 13 and 23: one vertex is isolated
    (boundary, augmentation), _ = _triangle_boundary_blocks()
    edge = Matrix(3, 1, [row[:1] for row in boundary.data], QQ)
    reps = homology_basis([edge, augmentation], [1, 3, 1], QQ)
    assert [len(r) for r in reps] == [0, 1, 0]


def test_homology_basis_leaves_d_squared_to_its_caller(monkeypatch):
    # d^2 = 0 is checked where blocks are built: by a complex's constructor and
    # in minimal_incidence; homology_basis checks the field and shapes, and solves
    checked = []
    monkeypatch.setattr(linalg, "check_d_squared", checked.append)
    rng = seeded_rng(19)
    for _ in range(20):
        diffs, dims = _random_graded_complex(rng)
        reps = homology_basis(diffs, dims, QQ)
        assert len(reps) == len(dims)
    assert checked == []


def test_rational_d_squared_check_rejects_a_non_complex():
    # d_1 . d_0 = 1/2 - 1 with d_1 = [1 1] and d_0 = [1/2 -1]^T; scaling the
    # rows of d_0 to integers instead of its column would hide it
    d1 = Matrix.from_rows([[1, 1]], QQ)
    with pytest.raises(NotAComplex):
        check_d_squared([Matrix.from_rows([[Fraction(1, 2)], [-1]], QQ), d1])
    check_d_squared([Matrix.from_rows([[Fraction(1, 2)], [Fraction(-1, 2)]], QQ), d1])


def test_d_squared_check_scales_no_block_of_a_one_differential_complex(monkeypatch):
    # with no pair to compose there is nothing to check: no block is scaled
    # to integers, in a bare check or in building a minimal complex whose
    # down-set complexes and assembled complex each have one differential
    scaled = []
    integral = linalg._integral
    monkeypatch.setattr(linalg, "_integral", lambda m: scaled.append(m) or integral(m))
    d0 = Matrix.from_rows([[Fraction(1, 2)], [-1]], QQ)
    check_d_squared([d0])
    c = build_complex(twisted_cycle_sheaf(6, seeded_rng(5)), "minimal")
    assert len(c.diffs) == 1 and scaled == []
    # two blocks that do not compose to zero are still refused
    with pytest.raises(NotAComplex, match="d_1 . d_0"):
        check_d_squared([d0, Matrix.from_rows([[1, 1]], QQ)])
    assert len(scaled) == 2


@pytest.mark.parametrize("d0, d1, ok", [
    # blocks that mix ints and Fractions, then blocks of ints alone
    ([[Fraction(1, 2)], [1]], [[1, Fraction(-1, 2)], [2, -1]], True),
    ([[Fraction(1, 2)], [1]], [[1, Fraction(1, 2)], [2, -1]], False),
    ([[Fraction(1, 2)], [-1]], [[1, 1]], False),
    ([[1], [1]], [[1, -1], [3, -3]], True),
    ([[1], [1]], [[1, -1], [3, -2]], False),
    ([[2], [-4]], [[6, 3]], True),
    # rows with denominators 2, 3 and 6; each block is scaled whole
    ([[Fraction(1, 2)], [Fraction(1, 3)], [Fraction(1, 6)]], [[1, 1, -5]], True),
    ([[Fraction(1, 2)], [Fraction(1, 3)], [Fraction(1, 6)]], [[1, 1, -5], [0, 0, Fraction(1, 6)]],
     False),  # one entry of the product is 1/36
])
def test_rational_d_squared_check_over_int_and_mixed_blocks(d0, d1, ok):
    diffs = [Matrix.from_rows(d0, QQ), Matrix.from_rows(d1, QQ)]
    assert all(type(x) is int for d in diffs for row in d.data for x in row) == (
        not any(isinstance(x, Fraction) for row in d0 + d1 for x in row))
    if ok:
        check_d_squared(diffs)
        # a third block after a genuine pair: the check runs on every pair
        check_d_squared(diffs + [Matrix.zeros(1, len(d1), QQ)])
    else:
        with pytest.raises(NotAComplex, match="d_1 . d_0"):
            check_d_squared(diffs)
        with pytest.raises(NotAComplex, match="d_2 . d_1"):
            check_d_squared([Matrix.zeros(len(d0[0]), 1, QQ)] + diffs)


def test_homology_validates_degrees():
    # the blocks must match the degree dimensions and count
    with pytest.raises(NotAComplex):
        homology_basis([Matrix.zeros(1, 2, QQ)], [2, 2], QQ)
    with pytest.raises(NotAComplex):
        homology_basis([], [1, 1], QQ)


def _random_graded_complex(rng: np.random.Generator):
    """Random three-degree complex d1 . d0 = 0: d0 is free, and every row of d1
    is a random combination of the left null vectors of d0."""
    dims = [int(rng.integers(1, 4)) for _ in range(3)]
    d0 = Matrix(dims[1], dims[0],
                [[Fraction(int(rng.integers(-2, 3))) for _ in range(dims[0])]
                 for _ in range(dims[1])], QQ)
    left_null = densify(
        kernel_basis(Matrix(dims[0], dims[1], [list(c) for c in zip(*d0.data)], QQ)), dims[1], 0)
    rows = [[Fraction(0)] * dims[1] for _ in range(dims[2])]
    for i in range(dims[2]):
        if not left_null:
            break
        coeffs = [Fraction(int(rng.integers(-2, 3))) for _ in left_null]
        rows[i] = [sum((c * vec[k] for c, vec in zip(coeffs, left_null)), Fraction(0))
                   for k in range(dims[1])]
    return [d0, Matrix(dims[2], dims[1], rows, QQ)], dims


def test_homology_dimensions_match_rank_nullity():
    rng = seeded_rng(17)
    for _ in range(300):
        diffs, dims = _random_graded_complex(rng)
        reps = homology_basis(diffs, dims, QQ)
        ranks = [rref(d)[2] for d in diffs]
        for i, n in enumerate(dims):
            rank_out = ranks[i] if i < len(ranks) else 0
            rank_in = ranks[i - 1] if i > 0 else 0
            assert len(reps[i]) == n - rank_out - rank_in


def test_representatives_are_exact_cycles():
    rng = seeded_rng(29)
    for _ in range(50):
        diffs, dims = _random_graded_complex(rng)
        reps = _dense_homology_basis(diffs, dims)
        for i, d in enumerate(diffs):
            for rep in reps[i]:
                assert all(not x for x in matrix_apply(d, rep))


def _d_squared_outcome(check, diffs):
    """None where check accepts diffs, else the error's type and message."""
    try:
        check(diffs)
    except (NotAComplex, FieldMismatch) as exc:
        return type(exc).__name__, str(exc)
    return None


def _real_copy(m: Matrix, rng, scale: float) -> Matrix:
    """m as floats, each entry moved by up to scale times itself."""
    entries = [{j: float(x) * (1 + scale * float(rng.uniform(-1, 1))) for j, x in row.items()}
               for row in m._entries]
    return Matrix._of(m.rows, m.cols, entries, RR)


def _random_blocks(rng, field, count):
    """count composable blocks, most entries zero, the rest from a small pool
    of the field's scalars: a few compose to zero, most do not."""
    pool = [1] if field.p == 2 else [1, -1, 2, Fraction(1, 2), Fraction(-1, 2)]
    dims = [int(rng.integers(0, 4)) for _ in range(count + 1)]
    return [Matrix(dims[j + 1], dims[j], [
        [field.coerce(pool[int(rng.integers(0, len(pool)))]) if rng.random() < 0.3 else
         field.zero() for _ in range(dims[j])] for _ in range(dims[j + 1])], field)
        for j in range(count)]


def _d_squared_corpus():
    """Block lists over Q, F_2, F_3 and R: the Roos, minimal and cellular
    complexes of random sheaves that compose and that do not, assembled
    unchecked; random sparse blocks; over R the float copies of the rational
    lists, moved by relative amounts on both sides of the tolerance; and pairs
    whose shapes or fields do not match."""
    rng = seeded_rng(4100)
    for field in (QQ, prime_field(2), prime_field(3)):
        for trial in range(30):
            p = (random_simplicial_poset(rng) if trial % 3 == 0 else
                 random_dag_poset(rng, max_elements=7, edge_prob=0.5))
            if trial % 2 and field.p != 2:
                sheaf = random_compositional_sheaf(p, rng, field)
            else:
                sheaf = random_sheaf(p, rng, field)
            roos = unchecked_diffs(roos_complex, sheaf)
            yield roos
            if trial % 3 == 0:
                yield unchecked_diffs(cellular_complex, sheaf)
            yield unchecked_diffs(minimal_complex, sheaf, minimal_incidence(p, field))
            yield _random_blocks(rng, field, int(rng.integers(2, 5)))
            if field == QQ:
                for scale in (0.0, 1e-13, 1e-11, 1e-9, 1e-7):
                    yield [_real_copy(d, rng, scale) for d in roos]
    d0, d1 = Matrix.from_rows([[1], [1]], QQ), Matrix.from_rows([[1, -1]], QQ)
    yield [d0, Matrix.from_rows([[1, -1, 0]], QQ)]  # shapes that do not compose
    yield [d0, Matrix.from_rows([[1, -1]], prime_field(3))]  # two fields
    yield [d0, d1, Matrix.zeros(2, 2, QQ)]


def test_d_squared_check_decides_as_the_whole_composite_does():
    # the row-at-a-time check against the old full-product check: the same
    # decision and message on every list, with lists refused and accepted
    # over every field
    seen = {}
    for diffs in _d_squared_corpus():
        outcome = _d_squared_outcome(d_squared_product_reference, diffs)
        assert _d_squared_outcome(check_d_squared, diffs) == outcome, diffs
        if len(diffs) > 1 and diffs[0].field == diffs[1].field:
            seen.setdefault(str(diffs[0].field), set()).add(outcome is None)
    assert seen == {str(f): {True, False} for f in (QQ, RR, prime_field(2), prime_field(3))}


def test_d_squared_check_builds_no_composite_and_no_integer_copy_of_int_blocks(monkeypatch):
    # no Matrix.__matmul__, and Matrix._of only for the integer copy of a
    # rational block that holds a Fraction
    corpus = list(_d_squared_corpus())
    products, made = [], []
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append((a, b)))
    of = Matrix._of
    monkeypatch.setattr(Matrix, "_of", lambda *args: made.append(args) or of(*args))
    fractional = 0
    for diffs in corpus:
        if len(diffs) > 1:
            fractional += sum(d.field == QQ and any(isinstance(x, Fraction) for _, _, x in
                                                     d.nonzeros()) for d in diffs)
        _d_squared_outcome(check_d_squared, diffs)
    assert products == [] and fractional > 0
    assert len(made) == fractional
