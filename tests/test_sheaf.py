from fractions import Fraction

import numpy as np
import pytest

from posheaf.errors import (
    ExtraEdgeMap,
    FieldMismatch,
    MissingEdgeMap,
    NonInvertibleMap,
    NotAPath,
    NotMonotone,
    NotTwoLayer,
    PosheafError,
    ShapeMismatch,
    TooShort,
    UnknownElement,
    UnknownVertex,
)
from posheaf.linalg import Matrix, QQ, RR, prime_field
from posheaf.nsd import sheaf_diffusion_op
from posheaf.poset import build_poset, hypergraph_to_poset, simplicial_complex_poset
from posheaf.sheaf import (
    build_sheaf,
    check_compositionality,
    constant_sheaf,
    cycle_poset,
    dirac_sheaf,
    global_sections_bruteforce,
    mobius_sheaf,
    monodromy,
    parallel_transport,
    path_poset,
    pullback,
    skyscraper_cone_sheaf,
)

from helpers import (
    compositionality_reference,
    dense_compose,
    seeded_rng,
    random_compositional_sheaf,
    random_dag_poset,
    random_graph_poset,
    random_monotone_map,
    random_sheaf,
    saturated_paths_reference,
    union_find_components,
)

F2 = prime_field(2)


def test_build_constant_like_sheaf():
    p = build_poset(["1", "2", "a"], [("1", "a"), ("2", "a")])
    s = build_sheaf(
        p,
        {"1": 1, "2": 1, "a": 1},
        {("1", "a"): [[1]], ("2", "a"): [[1]]},
        QQ,
    )
    assert s.stalk("a") == 1


def test_build_sheaf_checks_shapes_only():
    p = hypergraph_to_poset(["u", "v"], [["u", "v"]])
    edge = p.maximal_elements()[0]
    maps = {
        ("u", edge): Matrix.from_rows([[1, 0], [0, 1], [1, 1]], QQ),
        ("v", edge): Matrix.from_rows([[1, 1], [0, 1], [1, 0]], QQ),
    }
    s = build_sheaf(p, {"u": 2, "v": 2, edge: 3}, maps, QQ)
    assert s.stalk(edge) == 3


def test_build_sheaf_shape_mismatch():
    p = build_poset(["1", "a"], [("1", "a")])
    with pytest.raises(ShapeMismatch):
        build_sheaf(p, {"1": 3, "a": 3}, {("1", "a"): [[1, 0, 0], [0, 1, 0]]}, QQ)
    with pytest.raises(MissingEdgeMap):
        build_sheaf(p, {"1": 1, "a": 1}, {}, QQ)
    # of two missing maps, the first cover in declaration order is named
    q = build_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d"), ("a", "d")])
    with pytest.raises(MissingEdgeMap, match="^maps: missing a<d$"):
        build_sheaf(q, {e: 1 for e in q.elements}, {("a", "b"): [[1]]}, QQ)


def test_build_sheaf_stalk_dimensions_are_nonnegative_integers():
    p = build_poset(["1", "a"], [("1", "a")])
    zero = {("1", "a"): Matrix.zeros(0, 0, QQ)}
    s = build_sheaf(p, {"1": np.int64(0), "a": np.uint8(0)}, zero, QQ)
    assert s.stalk_dim == {"1": 0, "a": 0} and {type(d) for d in s.stalk_dim.values()} == {int}
    for bad in (2.7, 0.0, "1", True, False, None, Fraction(1)):
        with pytest.raises(ShapeMismatch, match="^stalk dimension at '1' is not an integer$"):
            build_sheaf(p, {"1": bad, "a": 0}, zero, QQ)
    with pytest.raises(ShapeMismatch, match="^negative stalk dimension at 'a'$"):
        build_sheaf(p, {"1": 0, "a": -1}, zero, QQ)
    with pytest.raises(MissingEdgeMap, match="^stalks: missing dimension for 'a'$"):
        build_sheaf(p, {"1": 0}, zero, QQ)


def test_compositionality_on_graph_posets_is_vacuous():
    rng = seeded_rng(3)
    p, _, _ = random_graph_poset(rng)
    stalks = {e: 1 for e in p.elements}
    maps = {
        (a, b): Matrix.from_rows([[int(rng.integers(-3, 4))]], QQ)
        for (a, b) in p.hasse_edges()
    }
    s = build_sheaf(p, stalks, maps, QQ)
    assert check_compositionality(s) == []


def test_compositionality_constant_on_full_triangle():
    p = simplicial_complex_poset([["1", "2", "3"]])
    s = constant_sheaf(p, 1, QQ)
    assert check_compositionality(s) == []


def test_compositionality_two_violations_on_triangle():
    p = simplicial_complex_poset([["1", "2", "3"]])
    stalks = {e: 1 for e in p.elements}
    face_values = {"1,2": 1, "1,3": 1, "2,3": 2}
    maps = {}
    for (a, b) in p.hasse_edges():
        if "," in b and b in face_values and "," not in a:
            maps[(a, b)] = Matrix.from_rows([[1]], QQ)
        else:
            maps[(a, b)] = Matrix.from_rows([[face_values[a]]], QQ)
    s = build_sheaf(p, stalks, maps, QQ)
    violations = check_compositionality(s)
    assert len(violations) == 2
    assert {(v.source, v.target) for v in violations} == {
        ("2", "1,2,3"),
        ("3", "1,2,3"),
    }
    assert all(v.deviation_sq > 0 for v in violations)


def test_maps_and_violations_match_brute_force_path_references():
    rng = seeded_rng(67)
    violations = 0
    for field in (QQ, prime_field(7)):
        for _ in range(40):
            p = random_dag_poset(rng, max_elements=8, chain_cap=200, edge_prob=0.5)
            s = random_sheaf(p, rng, field)
            for (a, b), paths in saturated_paths_reference(p).items():
                assert s.map(a, b).data == dense_compose(s, paths[0])
            expected = compositionality_reference(s)
            assert [(v.source, v.target, v.path_a, v.path_b, v.deviation_sq)
                    for v in check_compositionality(s)] == expected
            violations += len(expected)
    assert violations > 0


def test_constant_sheaf_sections_cycle_and_components():
    c4 = constant_sheaf(cycle_poset(4), 1, QQ)
    assert global_sections_bruteforce(c4).dim == 1
    two = hypergraph_to_poset(["1", "2", "3", "4"], [["1", "2"], ["3", "4"]])
    s = constant_sheaf(two, 1, QQ)
    assert global_sections_bruteforce(s).dim == 2
    empty = constant_sheaf(build_poset([], []), 3, QQ)
    assert global_sections_bruteforce(empty).dim == 0


def test_skyscraper_cone_sheaf_support():
    chain = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    top = skyscraper_cone_sheaf(chain, "c", 2, QQ)
    assert all(top.stalk(e) == 2 for e in chain.elements)
    bottom = skyscraper_cone_sheaf(chain, "a", 2, QQ)
    assert [bottom.stalk(e) for e in chain.elements] == [2, 0, 0]
    edge = hypergraph_to_poset(["u", "v"], [["u", "v"]])
    e = edge.maximal_elements()[0]
    s = skyscraper_cone_sheaf(edge, e, 1, QQ)
    assert [s.stalk(x) for x in edge.elements] == [1, 1, 1]
    with pytest.raises(UnknownElement):
        skyscraper_cone_sheaf(chain, "zz", 1, QQ)


def test_skyscraper_sections_dimension_is_stalk_dim():
    rng = seeded_rng(7)
    for _ in range(10):
        p = random_dag_poset(rng, max_elements=8)
        s = p.elements[int(rng.integers(0, len(p.elements)))]
        sheaf = skyscraper_cone_sheaf(p, s, 2, QQ)
        assert global_sections_bruteforce(sheaf).dim == 2


def test_dirac_sheaf_definitional():
    chain = build_poset(["a", "b"], [("a", "b")])
    s = dirac_sheaf(chain, "b", 3, QQ)
    assert [s.stalk(e) for e in chain.elements] == [0, 3]
    anti = build_poset(["x", "y"], [])
    s2 = dirac_sheaf(anti, "x", 1, QQ)
    assert [s2.stalk(e) for e in anti.elements] == [1, 0]
    with pytest.raises(UnknownElement):
        dirac_sheaf(chain, "zz", 1, QQ)


def test_mobius_sections():
    assert global_sections_bruteforce(mobius_sheaf(4, QQ)).dim == 0
    assert global_sections_bruteforce(mobius_sheaf(4, F2)).dim == 1
    assert global_sections_bruteforce(mobius_sheaf(3, QQ)).dim == 0
    with pytest.raises(TooShort):
        mobius_sheaf(2, QQ)


def test_pullback_identity_and_constant():
    p = path_poset(3)
    s = constant_sheaf(p, 2, QQ)
    same = pullback(s, {e: e for e in p.elements}, p)
    assert same.edge_map == s.edge_map
    # constant map to a point
    point = build_poset(["pt"], [])
    sk = dirac_sheaf(point, "pt", 2, QQ)
    pulled = pullback(sk, {e: "pt" for e in p.elements}, p)
    assert all(pulled.stalk(e) == 2 for e in p.elements)
    for m in pulled.edge_map.values():
        assert m == Matrix.identity(2, QQ)


def test_pullback_of_mobius_along_path_inclusion_is_constant():
    mob = mobius_sheaf(4, QQ)  # flip lives on (v0, e3)
    source = path_poset(4)  # v0..v3, e0..e2
    f = {e: e for e in source.elements}
    pulled = pullback(mob, f, source)
    for m in pulled.edge_map.values():
        assert m == Matrix.identity(1, QQ)
    assert global_sections_bruteforce(pulled).dim == 1


def test_pullback_rejects_non_monotone():
    source = build_poset(["a", "b"], [("a", "b")])
    target = build_poset(["x", "y"], [("x", "y")])
    with pytest.raises(NotMonotone):
        pullback(constant_sheaf(target, 1, QQ), {"a": "y", "b": "x"}, source)


def test_pullback_preserves_compositionality():
    rng = seeded_rng(13)
    for _ in range(20):
        target = random_dag_poset(rng, max_elements=8)
        source = random_dag_poset(rng, max_elements=8)
        sheaf = random_compositional_sheaf(target, rng)
        assert check_compositionality(sheaf) == []
        f = random_monotone_map(rng, source, target)
        pulled = pullback(sheaf, f, source)
        assert check_compositionality(pulled) == []


def test_parallel_transport_identity_and_inverse():
    p = cycle_poset(4)
    s = constant_sheaf(p, 2, QQ)
    path = ["v0", "e0", "v1", "e1", "v2"]
    assert parallel_transport(s, path).matrix == Matrix.identity(2, QQ)
    round_trip = path + list(reversed(path))[1:]
    assert parallel_transport(s, round_trip).matrix == Matrix.identity(2, QQ)


def test_parallel_transport_mobius_loop():
    mob = mobius_sheaf(4, QQ)
    loop = ["v0", "e0", "v1", "e1", "v2", "e2", "v3", "e3", "v0"]
    result = parallel_transport(mob, loop)
    assert result.matrix.data == [[Fraction(-1)]]


def test_parallel_transport_homotopic_paths_agree():
    # triangular reduction: [s, t] vs [s, m, t] for s < m < t; the gauge
    # connection sheaf has invertible maps and passes check_compositionality
    from helpers import gauge_connection_sheaf

    p = simplicial_complex_poset([["1", "2", "3"]])
    rng = seeded_rng(31)
    s = gauge_connection_sheaf(p, rng)
    assert check_compositionality(s) == []
    direct = parallel_transport(s, ["1", "1,2,3"]).matrix
    via_edge = parallel_transport(s, ["1", "1,2", "1,2,3"]).matrix
    assert direct == via_edge


def test_parallel_transport_errors():
    p = path_poset(2)
    s = constant_sheaf(p, 1, QQ)
    with pytest.raises(NotAPath):
        parallel_transport(s, ["v0", "v1"])  # incomparable
    zero_map = {
        ("v0", "e0"): Matrix.from_rows([[0]], QQ),
        ("v1", "e0"): Matrix.from_rows([[1]], QQ),
    }
    broken = build_sheaf(p, {e: 1 for e in p.elements}, zero_map, QQ)
    with pytest.raises(NonInvertibleMap):
        parallel_transport(broken, ["e0", "v0"])


def test_monodromy_cycle():
    c4 = constant_sheaf(cycle_poset(4), 1, QQ)
    loops = monodromy(c4, "v0")
    assert len(loops) == 1
    assert loops[0].matrix == Matrix.identity(1, QQ)
    mob = mobius_sheaf(4, QQ)
    loops = monodromy(mob, "v0")
    assert len(loops) == 1
    assert loops[0].matrix.data == [[Fraction(-1)]]


def test_monodromy_tree_is_empty_and_sections_full():
    rng = seeded_rng(41)
    # spanning-tree shaped Hasse diagram: path graph poset
    p = path_poset(5)
    from helpers import gauge_connection_sheaf

    s = gauge_connection_sheaf(p, rng)
    assert monodromy(s, "v0") == []
    assert global_sections_bruteforce(s).dim == 1


def test_sections_count_equals_components_randomized():
    rng = seeded_rng(59)
    for _ in range(100):
        p, n, edges = random_graph_poset(rng, max_vertices=10)
        s = constant_sheaf(p, 1, QQ)
        assert global_sections_bruteforce(s).dim == union_find_components(n, edges)


def test_pullback_is_checked_on_covers_against_the_closure_reference():
    rng = seeded_rng(71)
    accepted = rejected = 0
    for _ in range(150):
        target = random_dag_poset(rng, max_elements=7)
        source = random_dag_poset(rng, max_elements=7)
        if rng.random() < 0.5:
            f = random_monotone_map(rng, source, target)
        else:
            f = {s: target.elements[int(rng.integers(0, len(target)))] for s in source.elements}
        sheaf = constant_sheaf(target, 1, QQ)
        out_of_order = {(a, b) for (a, b) in source.closure_pairs()
                        if not target.leq(f[a], f[b])}
        if not out_of_order:
            assert pullback(sheaf, f, source).poset == source
            accepted += 1
            continue
        a, b = next(edge for edge in source.hasse_edges() if edge in out_of_order)
        with pytest.raises(NotMonotone) as raised:
            pullback(sheaf, f, source)
        assert str(raised.value) == f"map is not monotone on {a!r} < {b!r}"
        rejected += 1
    assert accepted > 20 and rejected > 20


_LONG = "x" * 1000
_PAIR = build_poset(["a", _LONG], [("a", _LONG)])
_APART = build_poset([_LONG + "1", _LONG + "2"], [])
_PAIR_STALKS = {"a": 1, _LONG: 1}


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: constant_sheaf(_PAIR, 1, QQ).stalk(_LONG + "y"), UnknownElement,
                 id="stalk"),
    pytest.param(lambda: constant_sheaf(_APART, 1, QQ).map(*_APART.elements), NotAPath,
                 id="map-not-below"),
    pytest.param(lambda: build_sheaf(_PAIR, {"a": 1}, {}, QQ), MissingEdgeMap,
                 id="missing-dimension"),
    pytest.param(lambda: build_sheaf(_PAIR, {"a": 1, _LONG: -1}, {}, QQ), ShapeMismatch,
                 id="negative-dimension"),
    pytest.param(lambda: build_sheaf(_PAIR, _PAIR_STALKS, {(_LONG, "a"): [[1]]}, QQ),
                 ExtraEdgeMap, id="not-a-hasse-edge"),
    pytest.param(lambda: build_sheaf(_PAIR, _PAIR_STALKS,
                                     {("a", _LONG): Matrix.identity(1, F2)}, QQ),
                 FieldMismatch, id="map-field"),
    pytest.param(lambda: build_sheaf(_PAIR, _PAIR_STALKS, {("a", _LONG): [[1, 0]]}, QQ),
                 ShapeMismatch, id="map-shape"),
    pytest.param(lambda: build_sheaf(_PAIR, _PAIR_STALKS, {}, QQ), MissingEdgeMap,
                 id="missing-map"),
    pytest.param(lambda: pullback(constant_sheaf(_PAIR, 1, QQ), {}, build_poset([_LONG], [])),
                 NotMonotone, id="pullback-uncovered"),
    pytest.param(lambda: pullback(constant_sheaf(_PAIR, 1, QQ), {"a": _LONG, _LONG: "a"},
                                  _PAIR), NotMonotone, id="pullback-not-monotone"),
    pytest.param(lambda: parallel_transport(
        build_sheaf(_PAIR, _PAIR_STALKS, {("a", _LONG): [[0]]}, QQ), [_LONG, "a"]),
        NonInvertibleMap, id="transport-not-invertible"),
    pytest.param(lambda: parallel_transport(constant_sheaf(_APART, 1, QQ), _APART.elements),
                 NotAPath, id="transport-incomparable"),
    pytest.param(lambda: _PAIR.index(_LONG + "y"), UnknownElement, id="poset-index"),
    pytest.param(lambda: hypergraph_to_poset(["a"], [[_LONG]]), UnknownVertex,
                 id="hypergraph-vertex"),
    pytest.param(lambda: sheaf_diffusion_op(constant_sheaf(_PAIR, 1, RR)), NotTwoLayer,
                 id="nsd-not-two-layer"),
])
def test_library_errors_cut_a_long_identifier(call, error):
    with pytest.raises(PosheafError) as info:
        call()
    assert type(info.value) is error
    assert "characters)" in str(info.value) and len(str(info.value)) < 200
