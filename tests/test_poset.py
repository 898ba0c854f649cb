import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posheaf.errors import CycleDetected, DuplicateElement, EmptyHyperedge, UnknownElement, UnknownVertex
from posheaf import poset as poset_module
from posheaf.linalg import QQ, prime_field
from posheaf.poset import (
    Poset,
    RedundantCoversWarning,
    build_poset,
    classify,
    decode_simplicial_elements,
    down_set,
    hypergraph_to_poset,
    order_complex,
    simplicial_complex_poset,
    topological_sort,
    transitive_reduction,
)

from helpers import (
    brute_force_chains,
    closure_pairs,
    decode_simplicial_reference,
    deep_chain_sheaf,
    poset_reference,
    random_dag_poset,
    random_simplicial_poset,
    reduced_betti_oracle,
    saturated_paths_reference,
    seeded_rng,
)


def test_build_path_graph_poset():
    p = build_poset(["1", "2", "a"], [("1", "a"), ("2", "a")])
    assert p.lt("1", "a") and p.lt("2", "a")
    assert not p.lt("1", "2")
    assert p.covers == (("1", "a"), ("2", "a"))


def test_build_empty_poset():
    p = build_poset([], [])
    assert len(p) == 0
    assert topological_sort(p) == []


def test_build_rejects_cycle():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_build_rejects_unknown_and_duplicate():
    with pytest.raises(UnknownElement):
        build_poset(["a"], [("a", "b")])
    with pytest.raises(DuplicateElement):
        build_poset(["a", "a"], [])


def test_redundant_covers_are_reduced_with_warning():
    with pytest.warns(RedundantCoversWarning):
        p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.covers == (("a", "b"), ("b", "c"))
    assert p.lt("a", "c")


def test_transitive_reduction_chain():
    assert transitive_reduction([("a", "b"), ("b", "c"), ("a", "c")]) == {
        ("a", "b"),
        ("b", "c"),
    }


def test_transitive_reduction_already_reduced():
    assert transitive_reduction([("a", "b")]) == {("a", "b")}


def test_transitive_reduction_diamond():
    pairs = [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1"), ("0", "1")]
    assert transitive_reduction(pairs) == {
        ("0", "x"),
        ("0", "y"),
        ("x", "1"),
        ("y", "1"),
    }


def test_transitive_reduction_rejects_cycles():
    with pytest.raises(CycleDetected):
        transitive_reduction([("a", "b"), ("b", "a")])


@st.composite
def dag_edges(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda ab: ab[0] < ab[1]),
            max_size=12,
        )
    )
    return n, edges


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dag_edges())
def test_reduction_preserves_closure(data):
    n, edges = data
    pairs = [(f"n{a}", f"n{b}") for a, b in edges]
    reduced = transitive_reduction(pairs)

    def closure(edge_set):
        nodes = {x for e in edge_set for x in e} | {x for e in pairs for x in e}
        adj = {v: set() for v in nodes}
        for a, b in edge_set:
            adj[a].add(b)
        out = set()
        for start in nodes:
            stack = list(adj[start])
            seen = set()
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                out.add((start, v))
                stack.extend(adj[v])
        return out

    full = closure(set(pairs))
    assert closure(reduced) == full
    # minimal: no kept pair (a, c) has an intermediate b with a < b < c
    middles = {x for e in pairs for x in e}
    assert not any((a, b) in full and (b, c) in full for a, c in reduced for b in middles)


def test_build_poset_matches_a_dfs_closure_reference(monkeypatch):
    heap_runs = []
    toposort = poset_module._toposort_indices
    monkeypatch.setattr(poset_module, "_toposort_indices",
                        lambda *args: heap_runs.append(args) or toposort(*args))
    rng = seeded_rng(23)
    heap_cases = 0
    for _ in range(60):
        n = int(rng.integers(1, 12))
        # declared in a shuffled order, so topo order is not declaration order
        elements = [f"e{k}" for k in rng.permutation(n)]
        pairs = [(elements[i], elements[j]) for i in range(n) for j in range(n)
                 if int(elements[i][1:]) < int(elements[j][1:]) and rng.random() < 0.25]
        reference = poset_reference(elements, pairs)
        closure = [(a, b) for a in elements for b in sorted(reference["up"][a])]
        for _ in range(int(rng.integers(0, 3))):
            if pairs:
                pairs.append(pairs[int(rng.integers(len(pairs)))])  # a duplicate
            if closure and rng.random() < 0.5:
                pairs.append(closure[int(rng.integers(len(closure)))])  # maybe transitive
        rng.shuffle(pairs)
        # and declared by index, so every pair points forward and the heap
        # does not run: topo order is declaration order
        forward = sorted(elements, key=lambda e: int(e[1:]))
        for declared in (elements, forward):
            position = {e: i for i, e in enumerate(declared)}
            backward = any(position[b] < position[a] for a, b in pairs)
            heap_runs.clear()
            reference = poset_reference(declared, pairs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                p = build_poset(declared, pairs)
            assert len(heap_runs) == backward
            heap_cases += backward
            assert [w.category for w in caught] == [RedundantCoversWarning] * reference["redundant"]
            assert p.covers == reference["covers"]
            assert p.topo_order == reference["topo_order"]
            for e in declared:
                assert p.strict_upper(e) == [u for u in p.topo_order if u in reference["up"][e]]
                assert p.strict_lower(e) == reference["down"][e]
                assert p.covers_of(e) == [b for b in p.topo_order if (e, b) in reference["covers"]]
                assert p.covered_by(e) == [a for a in p.topo_order
                                           if (a, e) in reference["covers"]]
                for b in declared:
                    assert p.lt(e, b) == (b in reference["up"][e])
                    assert p.leq(e, b) == (e == b or b in reference["up"][e])
    assert heap_cases > 20


def _stored_order_entries(p: Poset) -> int:
    """Entries held by the poset's set-valued slots (lists of index sets)."""
    total = 0
    for slot in Poset.__slots__:
        value = getattr(p, slot)
        if isinstance(value, list) and all(isinstance(v, set) for v in value):
            total += sum(map(len, value))
    return total


def test_the_order_is_stored_once():
    """The covers are stored from both ends and each comparable pair once:
    on a 1,502-element chain-like poset, a second closure would double the
    1,125,751 comparable pairs."""
    deep = deep_chain_sheaf().poset
    cases = [(list(deep.elements), list(deep.covers))]
    rng = seeded_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        # declared in a shuffled order, with transitive pairs in the input
        elements = [f"e{k}" for k in rng.permutation(n)]
        cases.append((elements, [(elements[i], elements[j]) for i in range(n) for j in range(n)
                                 if int(elements[i][1:]) < int(elements[j][1:])
                                 and rng.random() < 0.35]))
    for elements, pairs in cases:
        reference = poset_reference(elements, pairs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RedundantCoversWarning)
            p = build_poset(elements, pairs)
        comparable = sum(map(len, reference["up"].values()))
        assert _stored_order_entries(p) == 2 * len(reference["covers"]) + comparable


def test_topological_sort_examples():
    p = build_poset(["1", "2", "a"], [("1", "a"), ("2", "a")])
    assert topological_sort(p) == ["1", "2", "a"]
    antichain = build_poset(["x", "y", "z"], [])
    assert topological_sort(antichain) == ["x", "y", "z"]
    chain = build_poset(["a", "b", "c"], [("c", "b"), ("b", "a")])
    assert topological_sort(chain) == ["c", "b", "a"]


def test_down_set_is_the_induced_subposet_and_warns_of_nothing():
    rng = seeded_rng(29)
    reduced = 0  # down-sets whose comparable pairs include transitive ones
    for _ in range(60):
        p = random_dag_poset(rng, max_elements=9)
        for s in p.elements:
            below = p.strict_lower(s)
            elements = [e for e in p.elements if e in below]
            pairs = sorted((a, b) for a, b in closure_pairs(p) if a in below and b in below)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RedundantCoversWarning)
                expected = build_poset(elements, pairs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = down_set(p, s)
            assert got == expected
            assert got.topo_order == expected.topo_order
            reduced += len(pairs) > len(got.covers)
    assert reduced > 0


def test_topological_sort_respects_closure_randomized():
    rng = seeded_rng(11)
    for _ in range(40):
        p = random_dag_poset(rng)
        order = topological_sort(p)
        assert sorted(order) == sorted(p.elements)
        position = {e: i for i, e in enumerate(order)}
        for (a, b) in closure_pairs(p):
            assert position[a] < position[b]


def test_down_set_of_edge_is_antichain():
    p = simplicial_complex_poset([["1", "2"]])
    sub = down_set(p, "1,2")
    assert set(sub.elements) == {"1", "2"}
    assert sub.covers == ()


def test_down_set_of_minimal_is_empty():
    p = build_poset(["a", "b"], [("a", "b")])
    assert len(down_set(p, "a")) == 0


def test_down_set_example_from_named_covers():
    p = build_poset(
        ["1", "2", "3", "a", "b"],
        [("1", "a"), ("2", "a"), ("2", "b"), ("3", "b")],
    )
    sub = down_set(p, "b")
    assert set(sub.elements) == {"2", "3"}
    assert sub.covers == ()


def test_down_set_unknown_element():
    p = build_poset(["a"], [])
    with pytest.raises(UnknownElement):
        down_set(p, "zz")


def test_order_complex_antichain_and_chain():
    antichain = build_poset(["x", "y"], [])
    groups = order_complex(antichain)
    assert [len(g) for g in groups] == [2]
    chain = build_poset(["a", "b"], [("a", "b")])
    groups = order_complex(chain)
    assert groups == [
        [("a",), ("b",)],
        [("a", "b")],
    ]


def test_order_complex_path_counts():
    p = build_poset(["1", "2", "a"], [("1", "a"), ("2", "a")])
    groups = order_complex(p)
    assert [len(g) for g in groups] == [3, 2]
    assert set(groups[1]) == {("1", "a"), ("2", "a")}


def test_order_complex_matches_brute_force_enumeration():
    rng = seeded_rng(5)
    reordered = 0  # posets whose topo positions differ from declaration indices
    for _ in range(25):
        forward = random_dag_poset(rng, max_elements=7)
        # the same covers declared in a shuffled order
        shuffled = build_poset([forward.elements[k] for k in rng.permutation(len(forward))],
                               forward.covers)
        reordered += shuffled.topo_order != shuffled.elements
        for p in (forward, shuffled):
            groups = order_complex(p)
            found = {c for g in groups for c in g}
            assert found == set(brute_force_chains(p))
            # each listed once
            assert sum(len(g) for g in groups) == len(found)
            # grouped by dimension, each group lexicographic in topo positions
            position = {e: k for k, e in enumerate(p.topo_order)}
            for dim, group in enumerate(groups):
                keys = [[position[e] for e in c] for c in group]
                assert all(len(key) == dim + 1 for key in keys)
                assert keys == sorted(keys)
    assert reordered > 10


def test_classify_triangle_boundary_is_cell_poset():
    p = simplicial_complex_poset([["1", "2"], ["2", "3"], ["1", "3"]])
    result = classify(p, QQ)
    assert result.graded
    assert result.homology_cell
    assert result.morse_cell
    assert result.rank == {e: e.count(",") for e in p.elements}


def test_classify_morse_example_not_graded():
    p = build_poset(
        ["1", "2", "3", "a", "b"],
        [("1", "a"), ("2", "a"), ("a", "b"), ("3", "b")],
    )
    result = classify(p, QQ)
    assert not result.graded
    assert result.morse_cell
    assert not result.homology_cell
    assert result.cell_dims == {"1": 0, "2": 0, "3": 0, "a": 1, "b": 1}


def test_classify_hypergraph_triple_not_morse():
    p = hypergraph_to_poset(["1", "2", "3"], [["1", "2", "3"]])
    result = classify(p, QQ)
    assert not result.morse_cell
    assert not result.homology_cell


def test_classify_simplicial_posets_are_homology_cell():
    rng = seeded_rng(23)
    from helpers import random_simplicial_poset

    for _ in range(10):
        p = random_simplicial_poset(rng)
        result = classify(p, QQ)
        assert result.homology_cell
        assert result.morse_cell  # monotone consistency
        assert result.rank == {e: e.count(",") for e in p.elements}


def test_classify_matches_down_set_betti_oracle():
    # The oracle's Betti numbers are rational; these down-sets (at most eight
    # elements) are too small to carry torsion, so F_2 gives the same answer.
    # The grading's reference: the rank set of e holds the lengths of the
    # saturated paths from each minimal element to e, {0} for a minimal e.
    rng = seeded_rng(41)
    graded_seen = 0
    for _ in range(200):
        p = random_dag_poset(rng)
        sphere_dims = {}
        for s in p.elements:
            betti = reduced_betti_oracle(down_set(p, s))
            if list(betti.values()) == [1]:
                sphere_dims[s] = next(iter(betti)) + 1
        morse = len(sphere_dims) == len(p)
        paths = saturated_paths_reference(p)
        minimal = p.minimal_elements()
        rank_sets = {e: {0} if e in minimal else
                     {len(path) - 1 for m in minimal for path in paths.get((m, e), [])}
                     for e in p.topo_order}
        graded = all(len(ranks) == 1 for ranks in rank_sets.values())
        graded_seen += graded
        for field in (QQ, prime_field(2)):
            result = classify(p, field)
            assert result.morse_cell == morse
            assert result.cell_dims == (sphere_dims if morse else None)
            assert result.graded == graded
            if graded:
                assert list(result.rank.items()) == [(e, min(r)) for e, r in rank_sets.items()]
            else:
                assert result.rank is None
    assert 0 < graded_seen < 200


def test_hypergraph_to_poset_shapes():
    p = hypergraph_to_poset(["1", "2", "3"], [["1", "2", "3"]])
    assert len(p) == 4
    assert len(p.covers) == 3
    edge = hypergraph_to_poset(["1", "2"], [["1", "2"]])
    assert len(edge) == 3
    path = hypergraph_to_poset(["1", "2", "3"], [["1", "2"], ["2", "3"]])
    assert len(path) == 5
    assert len(path.covers) == 4
    # a hyperedge name never takes a vertex's: h0 is taken, so the edge is _h0
    named = hypergraph_to_poset(["h0", "h1"], [["h0", "h1"]])
    assert named.elements == ("h0", "h1", "_h0")
    assert named.covers == (("h0", "_h0"), ("h1", "_h0"))


def test_hypergraph_to_poset_errors():
    with pytest.raises(EmptyHyperedge):
        hypergraph_to_poset(["1"], [[]])
    with pytest.raises(UnknownVertex):
        hypergraph_to_poset(["1"], [["2"]])


def _one_change_copies(p, rng):
    """Copies of p with one cover dropped, with one new relation added, and
    with the names of two elements swapped."""
    covers = list(p.covers)
    copies = []
    if covers:
        k = int(rng.integers(0, len(covers)))
        copies.append(build_poset(p.elements, covers[:k] + covers[k + 1:]))
    new = [(a, b) for a in p.elements for b in p.elements
           if a != b and not p.leq(b, a) and not p.lt(a, b)]
    a, b = new[int(rng.integers(0, len(new)))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RedundantCoversWarning)
        copies.append(build_poset(p.elements, covers + [(a, b)]))
    i, j = (int(x) for x in rng.choice(len(p), size=2, replace=False))
    swap = {p.elements[i]: p.elements[j], p.elements[j]: p.elements[i]}
    copies.append(build_poset(p.elements, [(swap.get(a, a), swap.get(b, b)) for a, b in covers]))
    return copies


def test_simplicial_complex_poset_declares_every_face_in_order():
    # Vertex names of one and two digits, so lexicographic order is not
    # numeric order, and simplices repeating a vertex or another simplex.
    rng = seeded_rng(84)
    for _ in range(100):
        names = [str(v) for v in rng.choice(12, size=int(rng.integers(1, 7)), replace=False)]
        simplices = [list(rng.choice(names, size=int(rng.integers(1, 5))))
                     for _ in range(int(rng.integers(1, 5)))]
        faces = {face for sx in simplices for k in range(1, len(set(sx)) + 1)
                 for face in itertools.combinations(sorted(set(sx)), k)}
        ordered = sorted(faces, key=lambda t: (len(t), t))
        p = simplicial_complex_poset(simplices)
        assert p.elements == tuple(",".join(t) for t in ordered)
        assert sorted(p.covers) == sorted((",".join(t[:i] + t[i + 1:]), ",".join(t))
                                          for t in ordered if len(t) > 1
                                          for i in range(len(t)))


def test_simplicial_decoding_matches_the_pairwise_reference():
    rng = seeded_rng(83)
    decoded = rejected = 0
    for _ in range(200):
        p = random_simplicial_poset(rng, max_vertices=int(rng.integers(3, 7)))
        assert decode_simplicial_elements(p) == decode_simplicial_reference(p) is not None
        for copy in _one_change_copies(p, rng):
            expected = decode_simplicial_reference(copy)
            assert decode_simplicial_elements(copy) == expected
            decoded += expected is not None
            rejected += expected is None
    for _ in range(50):
        p = random_dag_poset(rng)
        assert decode_simplicial_elements(p) == decode_simplicial_reference(p)
    assert decoded > 0 and rejected > 0
