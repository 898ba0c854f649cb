import io
import itertools
import json
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from posheaf import cochain, linalg
from posheaf.cli import cli
from posheaf.errors import FieldMismatch, NotAComplex, NotSimplicialPoset, PosetMismatch
from posheaf.io import scalar_from_string, serialize_sheaf
from posheaf.linalg import QQ, RR, Matrix, prime_field
from posheaf.cochain import (
    _assemble,
    betti,
    betti_numbers,
    build_complex,
    cellular_complex,
    cohomology,
    minimal_complex,
    minimal_incidence,
    multiplicities,
    roos_complex,
)
from posheaf.poset import (
    build_poset,
    decode_simplicial_elements,
    hypergraph_to_poset,
    order_complex,
    simplicial_complex_poset,
)
from posheaf.sheaf import (
    build_sheaf,
    check_compositionality,
    constant_sheaf,
    cycle_poset,
    dirac_sheaf,
    global_sections_bruteforce,
    mobius_sheaf,
    path_poset,
    skyscraper_cone_sheaf,
)

from helpers import (
    add_block_diffs_reference,
    bareiss_rank,
    d_squared_product_reference,
    dense_diffs_reference,
    densify,
    gauge_connection_sheaf,
    graph_sheaf_twins,
    incidence_reference,
    integer_rows,
    matrix_apply,
    seeded_rng,
    random_compositional_sheaf,
    random_dag_poset,
    random_graph_poset,
    random_sheaf,
    random_simplicial_poset,
    reduced_betti_oracle,
    same_betti,
    twisted_cycle_sheaf,
    unchecked_diffs,
)

MORSE_POSET = build_poset(
    ["1", "2", "3", "a", "b"],
    [("1", "a"), ("2", "a"), ("a", "b"), ("3", "b")],
)


def test_roos_path_poset_shape_and_betti():
    p = build_poset(["1", "2", "a"], [("1", "a"), ("2", "a")])
    c = roos_complex(constant_sheaf(p, 1, QQ))
    assert c.degree_dim(0) == 3
    assert c.degree_dim(1) == 2
    assert betti_numbers(c) == [1, 0]


def test_roos_cycle_betti():
    c = roos_complex(constant_sheaf(cycle_poset(3), 1, QQ))
    assert betti_numbers(c) == [1, 1]


def test_roos_skyscraper_acyclic():
    rng = seeded_rng(2)
    for _ in range(8):
        p = random_dag_poset(rng, max_elements=8)
        s = p.elements[int(rng.integers(0, len(p.elements)))]
        c = roos_complex(skyscraper_cone_sheaf(p, s, 2, QQ))
        vec = betti_numbers(c)
        assert vec[0] == 2
        assert all(v == 0 for v in vec[1:])


def test_cellular_filled_triangle():
    p = simplicial_complex_poset([["1", "2", "3"]])
    c = cellular_complex(constant_sheaf(p, 1, QQ))
    assert betti_numbers(c) == [1, 0, 0]


def test_cellular_triangle_boundary_matches_roos():
    p = simplicial_complex_poset([["1", "2"], ["1", "3"], ["2", "3"]])
    s = constant_sheaf(p, 1, QQ)
    assert betti_numbers(cellular_complex(s)) == [1, 1]
    assert same_betti(
        betti_numbers(cellular_complex(s)), betti_numbers(roos_complex(s))
    )


def test_cellular_rejects_non_simplicial():
    posets = [
        hypergraph_to_poset(["1", "2", "3"], [["1", "2", "3"]]),
        # a repeated vertex, one simplex named twice, and a missing face 2,3
        build_poset(["1", "1,1"], [("1", "1,1")]),
        build_poset(["1", "2", "1,2", "2,1"],
                    [("1", "1,2"), ("2", "1,2"), ("1", "2,1"), ("2", "2,1")]),
        build_poset(["1", "2", "3", "1,2", "1,3", "1,2,3"],
                    [("1", "1,2"), ("2", "1,2"), ("1", "1,3"), ("3", "1,3"),
                     ("1,2", "1,2,3"), ("1,3", "1,2,3")]),
    ]
    for p in posets:
        with pytest.raises(NotSimplicialPoset):
            cellular_complex(constant_sheaf(p, 1, QQ))


def test_cellular_matches_roos_on_random_graph_sheaves():
    rng = seeded_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        vertices = [str(i) for i in range(1, n + 1)]
        edges = [
            [vertices[i], vertices[j]]
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        p = simplicial_complex_poset([[v] for v in vertices] + edges)
        s = random_compositional_sheaf(p, rng)
        assert same_betti(
            betti_numbers(cellular_complex(s)), betti_numbers(roos_complex(s))
        )


def test_minimal_incidence_on_graphs_is_signed_incidence():
    rng = seeded_rng(6)
    for _ in range(50):
        p, n, edges = random_graph_poset(rng, max_vertices=7)
        inc = minimal_incidence(p, QQ)
        by_owner = {}
        for g, (_, owner) in enumerate(inc.generators):
            by_owner.setdefault(owner, []).append(g)
        for v in p.minimal_elements():
            assert [inc.generators[g][0] for g in by_owner[v]] == [0]
        for e in p.maximal_elements():
            if not p.covered_by(e):
                continue
            (g,) = by_owner[e]
            assert inc.generators[g][0] == 1
            entries = [
                inc.columns[g].get(h, 0)
                for h, (degree, _) in enumerate(inc.generators)
                if degree == 0 and inc.columns[g].get(h, 0)
            ]
            assert sorted(entries) == [Fraction(-1), Fraction(1)]
        s = random_compositional_sheaf(p, rng)
        assert same_betti(betti(s, "roos"), betti(s, "minimal"))


def test_minimal_incidence_morse_example():
    inc = minimal_incidence(MORSE_POSET, QQ)
    degrees = sorted((owner, degree) for degree, owner in inc.generators)
    assert degrees == [("1", 0), ("2", 0), ("3", 0), ("a", 1), ("b", 1)]
    (gb,) = [g for g, (_, owner) in enumerate(inc.generators) if owner == "b"]
    row = {
        owner: inc.columns[gb].get(h, 0)
        for h, (degree, owner) in enumerate(inc.generators)
        if degree == 0 and inc.columns[gb].get(h, 0)
    }
    # member of the family c*(k1, k2, -1) on (1, 2, 3) with k1 + k2 = 1
    assert len(row) <= 2
    k3 = row.get("3", Fraction(0))
    assert k3 != 0
    scale = -k3
    k1 = row.get("1", Fraction(0)) / scale
    k2 = row.get("2", Fraction(0)) / scale
    assert k1 + k2 == 1


def test_minimal_incidence_drops_contractible_down_sets():
    chain = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    inc = minimal_incidence(chain, QQ)
    assert [(owner, degree) for degree, owner in inc.generators] == [("a", 0)]
    s = constant_sheaf(chain, 1, QQ)
    assert betti(s, "minimal") == [1]


def test_minimal_complex_random_posets_match_roos():
    rng = seeded_rng(8)
    for _ in range(25):
        p = random_dag_poset(rng, max_elements=9)
        s = constant_sheaf(p, 1, QQ)
        assert same_betti(betti(s, "roos"), betti(s, "minimal"))


def test_minimal_complex_dirac_probes_down_sets():
    rng = seeded_rng(10)
    for _ in range(10):
        p = random_dag_poset(rng, max_elements=8)
        inc = minimal_incidence(p, QQ)
        for s in p.elements:
            sheaf = dirac_sheaf(p, s, 1, QQ)
            vec = betti_numbers(minimal_complex(sheaf, inc))
            from posheaf.poset import down_set

            oracle = reduced_betti_oracle(down_set(p, s))
            for k, b in enumerate(vec):
                assert b == oracle.get(k - 1, 0)


def test_minimal_complex_validates_inputs():
    p = path_poset(2)
    other = path_poset(3)
    inc = minimal_incidence(other, QQ)
    with pytest.raises(PosetMismatch):
        minimal_complex(constant_sheaf(p, 1, QQ), inc)
    for field, inc_field in [(QQ, prime_field(3)), (prime_field(3), QQ), (RR, prime_field(3))]:
        inc = minimal_incidence(p, inc_field)
        with pytest.raises(FieldMismatch, match="incidence data uses a different field"):
            minimal_complex(constant_sheaf(p, 1, field), inc)


def test_cohomology_mobius_representatives():
    # The sign local system on a circle has trivial cohomology in all degrees:
    # coker(rho - 1) = coker(-2) = 0, matching the complex's zero Euler
    # characteristic with beta_0 = 0.
    c = roos_complex(mobius_sheaf(4, QQ))
    result = cohomology(c)
    assert [b for b, _ in result] == [0, 0]


def test_cohomology_skyscraper_and_zero_sheaf():
    p = random_dag_poset(seeded_rng(12), max_elements=7)
    s = p.elements[0]
    c = roos_complex(skyscraper_cone_sheaf(p, s, 2, QQ))
    result = cohomology(c)
    assert result[0][0] == 2
    assert all(b == 0 for b, _ in result[1:])
    zero = roos_complex(dirac_sheaf(p, s, 0, QQ))
    assert all(b == 0 for b, _ in cohomology(zero))


def test_cohomology_representatives_are_cocycles():
    rng = seeded_rng(14)
    for _ in range(10):
        p = random_dag_poset(rng, max_elements=7)
        s = random_compositional_sheaf(p, rng)
        c = roos_complex(s)
        for j, (b, reps) in enumerate(cohomology(c)):
            assert len(reps) == b
            for rep in reps:
                if j < len(c.diffs):
                    image = matrix_apply(c.diffs[j], rep)
                    assert all(not x for x in image)


def test_cohomology_representatives_are_a_basis_modulo_coboundaries():
    # rank([im d_{j-1}; reps_j]) = rank(im d_{j-1}) + b_j, by Bareiss ranks
    rng = seeded_rng(30)
    for trial in range(30):
        if trial % 2:
            p = random_simplicial_poset(rng)
            methods = ("roos", "cellular", "minimal")
        else:
            p = random_dag_poset(rng, max_elements=7)
            methods = ("roos", "minimal")
        s = random_compositional_sheaf(p, rng)
        for method in methods:
            c = build_complex(s, method)
            result = cohomology(c)
            assert [b for b, _ in result] == betti_numbers(c)
            for j, (b, reps) in enumerate(result):
                assert len(reps) == b
                image = [list(col) for col in zip(*c.diffs[j - 1].data)] if j else []
                rank_image = bareiss_rank(integer_rows(image))
                assert bareiss_rank(integer_rows(image + reps)) == rank_image + b
                if j < len(c.diffs):
                    for rep in reps:
                        assert all(not x for x in matrix_apply(c.diffs[j], rep))


def test_incidence_report_obeys_degree_rule_and_squares_to_zero(tmp_path):
    rng = seeded_rng(31)
    path = tmp_path / "doc.json"
    for field in (QQ, prime_field(2)):
        for _ in range(100):
            p = random_dag_poset(rng, max_elements=8)
            path.write_text(serialize_sheaf(constant_sheaf(p, 1, field)))
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                assert cli(["incidence", str(path)]) == 0
            report = json.loads(buffer.getvalue())["incidence"]
            gens = report["generators"]
            assert report["labels"] == ["@"] + [f"g{g['id']}" for g in gens]
            degree = [-1] + [g["degree"] for g in gens]
            owner = [None] + [g["owner"] for g in gens]
            m = [[scalar_from_string(x, field) for x in row]
                 for row in densify(report["matrix"], len(report["labels"]))]
            n = len(m)
            for col in range(1, n):
                below = set(p.strict_lower(owner[col]))
                for row in range(n):
                    if m[row][col]:
                        assert degree[row] == degree[col] - 1
                        assert row == 0 or owner[row] in below
            for row in range(n):
                for col in range(n):
                    total = sum(m[row][k] * m[k][col] for k in range(n))
                    assert (total % field.p if field.p else total) == 0


def test_betti_dispatch_examples():
    assert betti(constant_sheaf(cycle_poset(5), 1, QQ), "roos") == [1, 1]
    assert betti(constant_sheaf(path_poset(3), 1, QQ), "minimal") == [1, 0]
    two = hypergraph_to_poset(["1", "2", "3", "4"], [["1", "2"], ["3", "4"]])
    for method in ("roos", "minimal"):
        assert betti(constant_sheaf(two, 1, QQ), method) == [2, 0]
    for method in ("morse", "Minimal"):
        with pytest.raises(FieldMismatch, match=f"unknown construction '{method}'"):
            build_complex(constant_sheaf(two, 1, QQ), method)


def test_betti_zero_in_degrees_above_longest_chain():
    rng = seeded_rng(16)
    for _ in range(10):
        p = random_dag_poset(rng, max_elements=8)
        longest = max(
            (len(c) for g in order_complex(p) for c in g), default=0
        )
        s = random_compositional_sheaf(p, rng)
        vec = betti(s, "roos")
        for j, b in enumerate(vec):
            if j > longest - 1:
                assert b == 0


def test_betti_matches_brute_force_sections():
    rng = seeded_rng(18)
    for _ in range(20):
        p = random_dag_poset(rng, max_elements=8)
        s = random_compositional_sheaf(p, rng)
        dim = global_sections_bruteforce(s).dim
        for method in ("roos", "minimal"):
            assert betti(s, method)[0] == dim


def test_multiplicities_roos_path():
    p = build_poset(["1", "2", "a"], [("1", "a"), ("2", "a")])
    stats = multiplicities(roos_complex(constant_sheaf(p, 1, QQ)))
    assert stats["a", 0] == 1
    assert stats["a", 1] == 2
    assert stats.total() == 5


def test_multiplicities_minimal_one_shot_on_simplicial_posets():
    rng = seeded_rng(20)
    for _ in range(8):
        p = random_simplicial_poset(rng)
        s = constant_sheaf(p, 1, QQ)
        stats = multiplicities(minimal_complex(s, minimal_incidence(p, QQ)))
        for e in p.elements:
            dim = e.count(",")
            for k in range(4):
                assert stats[e, k] == (1 if k == dim else 0)


def test_multiplicities_minimal_equal_down_set_betti():
    rng = seeded_rng(22)
    from posheaf.poset import down_set

    for _ in range(10):
        p = random_dag_poset(rng, max_elements=8)
        s = constant_sheaf(p, 1, QQ)
        stats = multiplicities(minimal_complex(s, minimal_incidence(p, QQ)))
        for e in p.elements:
            oracle = reduced_betti_oracle(down_set(p, e))
            for k in range(5):
                assert stats[e, k] == oracle.get(k - 1, 0)


def test_multiplicity_lower_bound_and_complexity_ordering():
    rng = seeded_rng(24)
    from posheaf.poset import down_set

    for _ in range(8):
        p = random_simplicial_poset(rng)
        s = constant_sheaf(p, 1, QQ)
        inc = minimal_incidence(p, QQ)
        stats = {
            "roos": multiplicities(roos_complex(s)),
            "cellular": multiplicities(cellular_complex(s)),
            "minimal": multiplicities(minimal_complex(s, inc)),
        }
        for e in p.elements:
            oracle = reduced_betti_oracle(down_set(p, e))
            for k in range(4):
                bound = oracle.get(k - 1, 0)
                for name, st in stats.items():
                    assert st[e, k] >= bound
                assert stats["minimal"][e, k] == bound
        assert (
            stats["minimal"].total()
            <= stats["cellular"].total()
            <= stats["roos"].total()
        )


def test_euler_identity_for_dirac_sheaves():
    rng = seeded_rng(26)
    from posheaf.poset import down_set

    for _ in range(10):
        p = random_dag_poset(rng, max_elements=8)
        inc = minimal_incidence(p, QQ)
        for e in p.elements:
            oracle = reduced_betti_oracle(down_set(p, e))
            # sum over k >= 0 of (-1)^k beta~_{k-1} re-indexed by d = k - 1
            betti_sum = sum((-1) ** (d + 1) * b for d, b in oracle.items())
            for build in (
                lambda s: roos_complex(s),
                lambda s: minimal_complex(s, inc),
            ):
                stats = multiplicities(build(dirac_sheaf(p, e, 1, QQ)))
                mu_sum = sum(
                    (-1) ** k * stats[e, k] for k in range(len(p.elements) + 1)
                )
                assert mu_sum == betti_sum


def test_roos_requires_exact_field():
    from posheaf.linalg import RR
    from posheaf.sheaf import build_sheaf
    from posheaf.linalg import Matrix

    p = path_poset(2)
    maps = {edge: Matrix.from_rows([[1.0]], RR) for edge in p.hasse_edges()}
    s = build_sheaf(p, {e: 1 for e in p.elements}, maps, RR)
    with pytest.raises(FieldMismatch):
        roos_complex(s)


def test_constructions_agree_over_f3_on_sheaves_with_rational_gauges():
    # Gauge ratios such as 1/2 must map to their residues mod 3.  Seed 0 is
    # the case where 1/2 became 0, the maps stopped composing and the Roos
    # complex raised NotAComplex; plain generators keep it that case.
    f3 = prime_field(3)
    for seed in range(21):
        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            p = random_dag_poset(rng, max_elements=7)
        else:
            p = random_simplicial_poset(rng)
        s = random_compositional_sheaf(p, rng, f3)
        assert check_compositionality(s) == []
        roos = betti(s, "roos")
        assert same_betti(roos, betti(s, "minimal"))
        if decode_simplicial_elements(p) is not None:
            assert same_betti(roos, betti(s, "cellular"))


def _expected_owners(c) -> list[list[str]]:
    """The element each summand copies: a Roos chain's top, each dimension's
    simplices sorted by vertex tuple, the owners of each degree's minimal
    generators in gid order."""
    p = c.sheaf.poset
    if c.kind == "roos":
        return [[chain[-1] for chain in group] for group in order_complex(p)]
    if c.kind == "cellular":
        decoded = decode_simplicial_elements(p)
        return [sorted((e for e in p.elements if len(decoded[e]) == j + 1), key=decoded.get)
                for j in range(max(map(len, decoded.values()), default=0))]
    gens = minimal_incidence(p, c.field).generators
    return [[owner for degree, owner in gens if degree == j]
            for j in range(max((degree for degree, _ in gens), default=-1) + 1)]


def test_assembled_differentials_match_the_dense_reference():
    # Every stored entry of every differential, against blocks written into
    # dense zero-filled rows, and the summand layout it is read through: the
    # pinned sheaves, then random DAG and simplicial sheaves over Q and F_3.
    from test_pinned_representatives import CASES

    sheaves = [make() for make in CASES.values()]
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        p = random_dag_poset(rng, max_elements=7) if seed % 2 else random_simplicial_poset(rng)
        sheaves.append(random_compositional_sheaf(p, rng, QQ if seed % 3 else prime_field(3)))
    checked = 0
    for s in sheaves:
        methods = ["roos", "minimal"]
        if decode_simplicial_elements(s.poset) is not None:
            methods.append("cellular")
        for method in methods:
            c = build_complex(s, method)
            assert c.degrees == _expected_owners(c), method
            assert c.dims == [[s.stalk(e) for e in owners] for owners in c.degrees]
            assert [d.data for d in c.diffs] == dense_diffs_reference(c), method
            checked += len(c.diffs)
    assert checked >= 60


def _stored(m: Matrix) -> list[tuple]:
    """Every stored entry in storage order, with its type; a float as its hex,
    which tells every bit apart."""
    return [(i, j, x.hex() if type(x) is float else (type(x), x)) for i, j, x in m.nonzeros()]


def _real_copy(s):
    maps = {edge: Matrix.from_rows([[float(x) for x in row] for row in m.data], RR)
            for edge, m in s.edge_map.items()}
    return build_sheaf(s.poset, s.stalk_dim, maps, RR)


def _assembly_sheaves():
    """Seeded random DAG and simplicial sheaves, twisted cycles and gauge
    sheaves on simplex 2-skeleta, each over Q and F_5, and the float copy of
    the rational one."""
    makers = []
    for seed in range(16):
        def random_sheaf(field, seed=seed):
            rng = seeded_rng(3000 + seed)
            p = random_dag_poset(rng, max_elements=7) if seed % 2 else random_simplicial_poset(rng)
            return random_compositional_sheaf(p, rng, field)
        makers.append(random_sheaf)
    for n in (3, 8, 24):
        makers.append(lambda field, n=n: twisted_cycle_sheaf(n, seeded_rng(n), field))
    for n in (4, 6):
        skeleton = simplicial_complex_poset(
            [list(c) for k in (1, 2, 3) for c in itertools.combinations(map(str, range(n)), k)])
        makers.append(lambda field, p=skeleton, n=n: gauge_connection_sheaf(p, seeded_rng(n), field))
    for make in makers:
        rational = make(QQ)
        yield from (rational, make(prime_field(5)), _real_copy(rational))


def test_assembled_differentials_equal_the_sum_of_their_face_blocks():
    # every construction stores each face block's entries, since no two faces
    # share one; adding the blocks with add_block must give the same entries,
    # with the same types, in the same order, bit for bit over R
    checked = 0
    for s in _assembly_sheaves():
        if s.field == RR:  # Roos and cellular need an exact field
            complexes = [minimal_complex(s, minimal_incidence(s.poset, QQ))]
        else:
            methods = ["roos", "minimal"]
            if decode_simplicial_elements(s.poset) is not None:
                methods.append("cellular")
            complexes = [build_complex(s, method) for method in methods]
        for c in complexes:
            reference = add_block_diffs_reference(c)
            assert [(d.rows, d.cols) for d in c.diffs] == [(d.rows, d.cols) for d in reference]
            assert [_stored(d) for d in c.diffs] == [_stored(d) for d in reference], (s, c.kind)
            checked += len(c.diffs)
    assert checked >= 150


@pytest.mark.parametrize("field, scalar", [
    (QQ, Fraction(3, 2)), (QQ, -1), (prime_field(5), 4), (prime_field(5), 3),
    (RR, 1.5), (RR, -1.0), (RR, 1e-300),
])
def test_assemble_scales_a_general_face_as_add_block_does(field, scalar):
    # the constructions' faces carry +-1 over Q, but the minimal ones carry any
    # scalar of the incidence data; over R a product can underflow to zero,
    # and add_block drops it
    if field == RR:
        entries = [[1e-300, 0.0, 3.0], [-2.0, 5.0, 1e-20]]
    else:
        entries = [[1, 0, Fraction(1, 3)], [-2, 5, 1]]
    p = build_poset(["a", "b"], [("a", "b")])
    s = build_sheaf(p, {"a": 3, "b": 2}, {("a", "b"): Matrix.from_rows(entries, field)}, field)
    c = _assemble("minimal", s, [["a"], ["b"]], [(0, 0, 0, scalar)])
    reference = Matrix.zeros(2, 3, field)
    reference.add_block(0, 0, s.map("a", "b"), scalar)
    assert _stored(c.diffs[0]) == _stored(reference)
    if scalar == 1e-300:
        assert (0, 0) not in {(i, j) for i, j, _ in c.diffs[0].nonzeros()}


def _typed_columns(columns):
    return [[(gid, type(x), x) for gid, x in col.items()] for col in columns]


# s over a < b and c, u over a < b < d, c and e, and h over a < b alone:
# down-sets of points that hold elements with acyclic down-sets, which own
# nothing
POINTS_BELOW_ACYCLIC = build_poset(
    ["a", "b", "c", "d", "e", "s", "u", "h"],
    [("a", "b"), ("b", "s"), ("c", "s"), ("b", "d"), ("d", "u"), ("c", "u"), ("e", "u"),
     ("b", "h")])


def test_minimal_incidence_matches_the_reference_without_a_memo():
    # generators, columns and each column's insertion order, against one
    # homology_basis call per element, over Q, F_2 and F_3: the reference
    # solves the down-sets of points on graphs, cycles and POINTS_BELOW_ACYCLIC
    # that minimal_incidence writes in closed form
    fields = (QQ, prime_field(2), prime_field(3))
    cases = []
    for seed in range(50):
        p = random_dag_poset(np.random.default_rng(2000 + seed), max_elements=8)
        cases += [(p, field) for field in fields]
    cases += [(cycle_poset(n), field) for n in range(3, 13) for field in fields]
    cases += [(simplicial_complex_poset([list(c) for k in (1, 2, 3)
                                         for c in itertools.combinations(range(n), k)]), field)
              for n in range(4, 8) for field in (QQ, prime_field(2))]
    cases += [(graph_sheaf_twins(n, "gauss", seeded_rng(n))[0].poset, field)
              for n in (10, 20, 30) for field in fields]
    cases += [(POINTS_BELOW_ACYCLIC, field) for field in fields]
    # t1 over a triangle and t2 over a digon with a tail: their down-sets have
    # the same sizes per degree and different boundaries
    edges = {"ab": "ab", "bc": "bc", "ac": "ac", "de": "de", "de2": "de", "ef": "ef"}
    covers = [(v, e) for e, ends in edges.items() for v in ends]
    covers += [(e, "t1") for e in ("ab", "bc", "ac")] + [(e, "t2") for e in ("de", "de2", "ef")]
    cases.append((build_poset(list("abcdef") + list(edges) + ["t1", "t2"], covers), QQ))
    for p, field in cases:
        inc = minimal_incidence(p, field)
        generators, columns = incidence_reference(p, field)
        assert inc.generators == generators
        assert _typed_columns(inc.columns) == _typed_columns(columns)


def test_minimal_incidence_keys_its_memo_on_column_values(monkeypatch):
    # t lies over the edge e0 on a, b and over c: a down-set that is still
    # solved, into the class c - b, which has the values of an edge's
    # closed-form column; so y1's down-set complex (the edges e0, e1 and t's
    # generator) equals y2's (three edges over A, B, C) and one solve serves
    # both.  A homology_basis that returns t's class doubled still gives a
    # basis, but then y1's complex has y2's supports and other values, so the
    # two must not share an entry
    import posheaf.cochain as cochain_module
    import posheaf.linalg as linalg_module

    ends = {"e0": "ab", "t": "c", "e1": "ac", "f1": "AB", "f2": "BC", "f3": "AC"}
    covers = [(v, e) for e, vertices in ends.items() for v in vertices] + [("e0", "t")]
    covers += [(e, "y1") for e in ("t", "e1")] + [(e, "y2") for e in ("f1", "f2", "f3")]
    p = build_poset(list("abcABC") + list(ends) + ["y1", "y2"], covers)
    for field in (QQ, prime_field(5)):
        assert _solved_dims(monkeypatch, p, field) == [[1, 3, 1], [3, 3, 1]]

    homology_basis = linalg_module.homology_basis
    calls = []

    def doubled_on_t(diffs, dims, field):
        calls.append(dims)
        reps = homology_basis(diffs, dims, field)
        if dims == [1, 3, 1]:
            reps = [[{k: 2 * x for k, x in vec.items()} for vec in vecs] for vecs in reps]
        return reps

    monkeypatch.setattr(cochain_module, "homology_basis", doubled_on_t)
    monkeypatch.setattr(linalg_module, "homology_basis", doubled_on_t)
    for field in (QQ, prime_field(5)):
        calls.clear()
        inc = minimal_incidence(p, field)
        assert calls.count([1, 3, 1]) == 1  # t
        assert calls.count([3, 3, 1]) == 2  # y1 and y2
        generators, columns = incidence_reference(p, field)
        assert inc.generators == generators
        assert _typed_columns(inc.columns) == _typed_columns(columns)


def _solved_dims(monkeypatch, p, field=QQ) -> list[list[int]]:
    """The degree dimensions of each down-set complex that
    minimal_incidence(p, field) hands to homology_basis."""
    calls = []
    monkeypatch.setattr(cochain, "homology_basis", _counting(calls, linalg.homology_basis))
    minimal_incidence(p, field)
    return [dims for _, dims, _ in calls]


def test_minimal_incidence_computes_each_cycle_down_set_homology_once(monkeypatch):
    # a vertex's empty down-set and the two vertices below an edge are
    # points, whose homology has a closed form: nothing is solved
    for n in range(3, 13):
        assert _solved_dims(monkeypatch, cycle_poset(n)) == []


def test_minimal_incidence_solves_each_graph_down_set_once(monkeypatch):
    for n in range(2, 7):
        complete = hypergraph_to_poset(range(n), itertools.combinations(range(n), 2))
        assert _solved_dims(monkeypatch, complete, prime_field(3)) == []


def test_minimal_incidence_solves_no_down_set_of_points(monkeypatch):
    # hyperedges over three and four vertices, the benchmark's graphs, and
    # points below elements whose own down-sets are acyclic, over each field
    hypergraph = hypergraph_to_poset(range(6), [(0, 1, 2), (2, 3, 4, 5), (0, 5), (1,)])
    graphs = [graph_sheaf_twins(n, "gauss", seeded_rng(n))[0].poset for n in (10, 30)]
    for p in [hypergraph, POINTS_BELOW_ACYCLIC, *graphs]:
        for field in (QQ, prime_field(2), prime_field(3)):
            assert _solved_dims(monkeypatch, p, field) == []


def test_minimal_incidence_solves_each_simplex_boundary_once(monkeypatch):
    # the boundary of the k-simplex for k = 2, 3: its faces by dimension
    # from the top down, then "@"; an edge's two vertices are not solved
    tetrahedron = simplicial_complex_poset([["1", "2", "3", "4"]])
    assert _solved_dims(monkeypatch, tetrahedron) == [[3, 3, 1], [4, 6, 4, 1]]


def _counting(calls: list, fn):
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


@pytest.mark.parametrize("sheaf, solved", [
    (constant_sheaf(cycle_poset(6), 1, QQ), 0),
    (mobius_sheaf(5, prime_field(3)), 0),
    (constant_sheaf(simplicial_complex_poset([["1", "2", "3"], ["3", "4"]]), 2, QQ), 1),
], ids=["cycle6", "mobius5-F3", "triangle-and-edge"])
def test_d_squared_is_checked_once_where_the_blocks_are_built(monkeypatch, sheaf, solved):
    # minimal_incidence checks each down-set complex it solves (of these, the
    # triangle's boundary alone: down-sets of points are not solved), the
    # complex's constructor checks the assembled one, and cohomology only solves
    checks, solves = [], []
    counted_check = _counting(checks, linalg.check_d_squared)
    monkeypatch.setattr(linalg, "check_d_squared", counted_check)
    monkeypatch.setattr(cochain, "check_d_squared", counted_check)
    monkeypatch.setattr(cochain, "homology_basis", _counting(solves, linalg.homology_basis))
    c = build_complex(sheaf, "minimal")
    assert len(checks) == len(solves) + 1
    assert len(solves) == solved
    checks.clear()
    solves.clear()
    cohomology(c)
    assert (len(checks), len(solves)) == (0, 1)


def test_minimal_incidence_refuses_a_representative_that_is_not_a_cycle(monkeypatch):
    # c lies over a, b, x and the edge e over a, x, a down-set that is still
    # solved; a homology_basis that keeps one entry of each representative
    # turns its class b - x into b alone, whose boundary is "@", not 0; that
    # column is stored, and the next element whose down-set holds it, d, fails
    solve = linalg.homology_basis

    def one_entry(diffs, dims, field):
        return [[dict([min(vec.items())]) for vec in reps] for reps in solve(diffs, dims, field)]

    monkeypatch.setattr(cochain, "homology_basis", one_entry)
    covers = [("a", "e"), ("x", "e"), ("b", "c"), ("e", "c")]
    inc = minimal_incidence(build_poset(["a", "b", "x", "e", "c"], covers), QQ)
    assert inc.generators[-1] == (1, "c") and inc.columns[-1] == {1: 1}
    with pytest.raises(NotAComplex):
        minimal_incidence(build_poset(["a", "b", "x", "e", "c", "d"], covers + [("c", "d")]), QQ)


def test_planted_betti_of_the_ten_vertex_simplex_2_skeleton():
    # the 2-skeleton of the 9-simplex is a wedge of C(9, 3) = 84 two-spheres
    p = simplicial_complex_poset([list(c) for k in (1, 2, 3)
                                  for c in itertools.combinations(range(10), k)])
    sheaves = [constant_sheaf(p, 1, QQ), gauge_connection_sheaf(p, seeded_rng(10)),
               constant_sheaf(p, 1, prime_field(3))]
    for sheaf in sheaves:
        for method in ("roos", "cellular", "minimal"):
            assert betti(sheaf, method) == [1, 0, 84], (sheaf.field, method)


# the 6-vertex real projective plane: H_1 = Z/2, so its constant-sheaf
# cohomology depends on whether the field has characteristic 2
_RP2_TRIANGLES = ["123", "134", "145", "156", "162", "235", "346", "452", "563", "624"]
_RP2 = simplicial_complex_poset([list(t) for t in _RP2_TRIANGLES])
_RP2_CONE = build_poset(
    list(_RP2.elements) + ["top"],
    list(_RP2.hasse_edges()) + [(",".join(sorted(t)), "top") for t in _RP2_TRIANGLES],
)


@pytest.mark.parametrize("field, expected_betti, top_degrees, cone_minimal_betti", [
    (QQ, [1, 0, 0], [], [1, 0, 0]),
    (prime_field(3), [1, 0, 0], [], [1, 0, 0]),
    (prime_field(2), [1, 1, 1], [2, 3], [1, 0, 0, 0]),
])
def test_projective_plane_answers_depend_on_the_field_through_torsion(
        field, expected_betti, top_degrees, cone_minimal_betti):
    assert len(_RP2.elements) == 31
    sheaf = constant_sheaf(_RP2, 1, field)
    assert [betti(sheaf, m) for m in ("roos", "cellular", "minimal")] == [expected_betti] * 3
    # above the ten triangles the down-set is RP^2 itself, whose reduced
    # homology over F_2 sits in degrees 1 and 2
    generators = minimal_incidence(_RP2_CONE, field).generators
    assert sorted(degree for degree, owner in generators if owner == "top") == top_degrees
    # a Betti vector has one entry per degree of its complex: Roos counts
    # chains up to length 4, minimal only the degrees it created generators in
    cone = constant_sheaf(_RP2_CONE, 1, field)
    assert betti(cone, "roos") == [1, 0, 0, 0]
    assert betti(cone, "minimal") == cone_minimal_betti


def _roos_outcome(sheaf):
    try:
        roos_complex(sheaf)
    except NotAComplex as exc:
        return str(exc)
    return None


def test_roos_first_pair_check_refuses_exactly_what_the_full_check_refuses():
    # random sheaves over Q, F_2 and F_3, composing and not: checking
    # d_1 . d_0 alone refuses a Roos complex iff some composite is nonzero,
    # with the full check's message
    rng = seeded_rng(4200)
    seen = set()
    for field in (QQ, prime_field(2), prime_field(3)):
        for trial in range(80):
            p = random_dag_poset(rng, max_elements=8, chain_cap=150, edge_prob=0.8)
            if trial % 4 == 3 and field.p != 2:
                sheaf = random_compositional_sheaf(p, rng, field)
            else:
                sheaf = random_sheaf(p, rng, field)
            diffs = unchecked_diffs(roos_complex, sheaf)
            try:
                d_squared_product_reference(diffs)
                expected = None
            except NotAComplex as exc:
                expected = str(exc)
            assert _roos_outcome(sheaf) == expected
            seen.add((field.p, len(diffs) > 2, expected is None))
    for prime in (None, 2, 3):
        assert {(prime, True, True), (prime, True, False)} <= seen


def test_roos_check_composes_one_pair(monkeypatch):
    # the Roos complex of the 3-simplex has three blocks, and its check
    # composes d_1 . d_0 alone; cellular composes both pairs
    products = []
    composable = linalg._composable
    monkeypatch.setattr(linalg, "_composable",
                        lambda a, b: products.append((a, b)) or composable(a, b))
    sheaf = constant_sheaf(simplicial_complex_poset([["1", "2", "3", "4"]]), 1, QQ)
    for build, composed in ((roos_complex, [1]), (cellular_complex, [1, 2])):
        products.clear()
        diffs = build(sheaf).diffs
        assert len(diffs) == 3
        assert [j for a, b in products for j in range(1, 3)
                if a is diffs[j] and b is diffs[j - 1]] == composed
