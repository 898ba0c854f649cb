from fractions import Fraction

import numpy as np

from helpers import seeded_rng, trial_division_is_prime
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posheaf.errors import FieldMismatch, NotAComplex
from posheaf.linalg import (
    Matrix,
    QQ,
    RR,
    _is_prime,
    homology_basis,
    kernel_basis,
    prime_field,
    rref,
)

F2 = prime_field(2)


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


def test_kernel_consensus_equation():
    m = Matrix.from_rows([[1, -1]], QQ)
    assert kernel_basis(m) == [[Fraction(1), Fraction(1)]]


def test_kernel_of_identity_empty():
    assert kernel_basis(Matrix.identity(2, QQ)) == []


def test_kernel_char_two():
    m = Matrix.from_rows([[1, 1], [1, 1]], F2)
    assert kernel_basis(m) == [[1, 1]]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_prime_field_division_roundtrip(seed):
    # exhaustive multiplicative round trips for small primes
    for p in (2, 3, 5, 7):
        f = prime_field(p)
        for a in range(p):
            for b in range(1, p):
                assert f.div(f.mul(a, b), b) == a


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


def test_homology_of_zero_differential():
    # dimensions 2 and 1 with the zero map between them
    reps = homology_basis([Matrix.zeros(1, 2, QQ)], [2, 1], QQ)
    assert reps == [[[1, 0], [0, 1]], [[1]]]


def test_augmented_point_has_no_reduced_homology():
    # chain complex v -> @ read in negated degrees: C^0 = <v>, C^1 = <@>
    reps = homology_basis([Matrix.from_rows([[1]], QQ)], [1, 1], QQ)
    assert reps == [[], []]


def _triangle_boundary_blocks(field=QQ):
    """Augmented chain complex of the triangle boundary in negated degrees:
    edges 12, 13, 23 -> vertices 1, 2, 3 -> "@"."""
    one, neg = field.one(), field.neg(field.one())
    boundary = Matrix.zeros(3, 3, field)
    for col, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        boundary.data[i][col] = neg
        boundary.data[j][col] = one
    augmentation = Matrix(1, 3, [[one, one, one]], field)
    return [boundary, augmentation], [3, 3, 1]


def test_triangle_boundary_single_degree_one_class():
    # oracle: rank d1 = 2, dim C1 = 3, so reduced betti_1 = 1
    diffs, dims = _triangle_boundary_blocks()
    reps = homology_basis(diffs, dims, QQ)
    assert [len(r) for r in reps] == [1, 0, 0]
    # the representative is a genuine cycle
    assert all(not x for x in diffs[0].apply(reps[0][0]))


def test_path_and_isolated_vertex_one_reduced_degree_zero_class():
    # the triangle boundary without edges 13 and 23: one vertex is isolated
    (boundary, augmentation), _ = _triangle_boundary_blocks()
    edge = Matrix(3, 1, [row[:1] for row in boundary.data], QQ)
    reps = homology_basis([edge, augmentation], [1, 3, 1], QQ)
    assert [len(r) for r in reps] == [0, 1, 0]


def test_homology_validates_d_squared():
    one = Matrix.from_rows([[1]], QQ)
    with pytest.raises(NotAComplex):
        homology_basis([one, one], [1, 1, 1], QQ)


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
    left_null = kernel_basis(Matrix(dims[0], dims[1], [list(c) for c in zip(*d0.data)], QQ))
    d1 = Matrix.zeros(dims[2], dims[1], QQ)
    for i in range(dims[2]):
        if not left_null:
            break
        coeffs = [Fraction(int(rng.integers(-2, 3))) for _ in left_null]
        d1.data[i] = [sum((c * vec[k] for c, vec in zip(coeffs, left_null)), Fraction(0))
                      for k in range(dims[1])]
    return [d0, d1], dims


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
        reps = homology_basis(diffs, dims, QQ)
        for i, d in enumerate(diffs):
            for rep in reps[i]:
                assert all(not x for x in d.apply(rep))
