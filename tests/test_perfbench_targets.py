"""The traced benchmark run wraps posheaf functions by name, so every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` breaks; and its
counters read matrices through ``rows``, ``cols`` and ``data`` only, so those
must keep reporting what the matrices store."""

import importlib
import itertools
import runpy
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import random_compositional_sheaf, random_dag_poset, seeded_rng, twisted_cycle_sheaf
from posheaf import linalg
from posheaf.cochain import (betti_numbers, build_complex, cohomology, minimal_incidence,
                             roos_complex)
from posheaf.linalg import QQ, Matrix, prime_field
from posheaf.poset import order_complex, simplicial_complex_poset
from posheaf.sheaf import Sheaf, constant_sheaf, cycle_poset

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_benchmark_targets_resolve():
    # run_path compiles from source and writes no bytecode cache into perfbench/
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    for module_name, fn_name, _, _ in targets:
        module = importlib.import_module(f"posheaf.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"posheaf.{module_name}.{fn_name}"


def test_traced_counters_report_stored_nonzeros_and_shapes():
    spans = runpy.run_path(str(SPANS))
    c = build_complex(twisted_cycle_sheaf(40, seeded_rng(3)), "minimal")
    stored = [sum(len(row) for row in m._entries) for m in c.diffs]
    assert stored[0] > 0
    counts = Counter()
    spans["_count_complex"](counts, (), c)
    assert counts["cochain.cells"] == sum(len(tags) for tags in c.degrees)
    assert counts["cochain.diff_nnz"] == sum(stored)
    for m, nnz in zip(c.diffs, stored):
        counts = Counter()
        spans["_count_rref"](counts, (m,), None)
        assert counts["linalg.rref_calls"] == 1
        assert counts["linalg.rref_entries"] == m.rows * m.cols == 80 * 80
        assert counts["linalg.rref_nnz"] == nnz


def test_traced_generator_count_is_the_number_of_incidence_generators():
    spans = runpy.run_path(str(SPANS))
    inc = minimal_incidence(twisted_cycle_sheaf(40, seeded_rng(3)).poset, QQ)
    assert len(inc.generators) == 80
    for degree, owner in inc.generators:
        assert type(degree) is int and type(owner) is str
    counts = Counter({"cochain.generators": 5})
    spans["_count_generators"](counts, (), inc)
    assert counts["cochain.generators"] == 5 + len(inc.generators)


def _dag59():
    rng = np.random.default_rng(59)
    return random_compositional_sheaf(random_dag_poset(rng, max_elements=7), rng)


_SIMPLEX6 = [list(c) for k in (1, 2, 3) for c in itertools.combinations("123456", k)]


# (sheaf, construction) -> (rref calls, sum of rows * cols over rref inputs) of
# build + cohomology.  Kernel vectors come from each differential's one
# forward pass, not from rref, so these are homology_basis's image reductions
# alone: one per degree whose Betti number is nonzero and whose incoming
# differential is not zero, the minimal rows since minimal_incidence computes
# each distinct down-set complex's homology once.  betti_numbers ranks without
# rref, so it adds no rref work.
@pytest.mark.parametrize("make, method, calls, entries", [
    pytest.param(lambda: twisted_cycle_sheaf(20, np.random.default_rng(5)), "minimal", 0, 0,
                 id="twisted-c20-q-minimal"),
    pytest.param(lambda: twisted_cycle_sheaf(20, np.random.default_rng(5), prime_field(7)),
                 "roos", 0, 0, id="twisted-c20-f7-roos"),
    pytest.param(lambda: constant_sheaf(simplicial_complex_poset(_SIMPLEX6), 1, QQ),
                 "minimal", 1, 300, id="simplex6-q-minimal"),
    pytest.param(lambda: constant_sheaf(simplicial_complex_poset(_SIMPLEX6), 1, QQ),
                 "roos", 1, 18000, id="simplex6-q-roos"),
    pytest.param(_dag59, "minimal", 1, 16, id="dag59-minimal"),
])
def test_elimination_work_matches_the_traced_counts(monkeypatch, make, method, calls, entries):
    # linalg.rref_calls and linalg.rref_entries count exactly this; an rref
    # input with extra empty rows (say, unfiltered image columns) moves them
    rref, seen = linalg.rref, []
    monkeypatch.setattr(linalg, "rref", lambda m: seen.append(m.rows * m.cols) or rref(m))
    c = build_complex(make(), method)
    cohomology(c)
    assert (len(seen), sum(seen)) == (calls, entries)
    seen.clear()
    betti_numbers(c)
    assert seen == []


@pytest.mark.parametrize("make, betti", [
    pytest.param(lambda: twisted_cycle_sheaf(20, np.random.default_rng(5)), [0, 0],
                 id="twisted-c20-q"),
    pytest.param(lambda: twisted_cycle_sheaf(20, np.random.default_rng(5),
                                             monodromy=((1, 1), (0, 1))), [1, 1],
                 id="unipotent-c20-q"),
    pytest.param(lambda: constant_sheaf(simplicial_complex_poset(_SIMPLEX6), 1, QQ), [1, 0, 10],
                 id="simplex6-q"),
])
def test_homology_basis_back_substitutes_once_per_degree_with_cohomology(monkeypatch, make,
                                                                        betti):
    c = build_complex(make(), "minimal")
    calls = Counter()
    for name in ("_echelon", "_back_substitute", "rref"):
        def counted(*args, _name=name, _original=getattr(linalg, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(linalg, name, counted)
    assert [dim for dim, _ in cohomology(c)] == betti
    # one forward pass per differential, one back-substitution per degree
    # with a nonzero Betti number, and one of each per image reduction
    assert calls["_echelon"] - calls["rref"] == len(c.diffs)
    assert calls["_back_substitute"] - calls["rref"] == sum(1 for b in betti if b)


def test_roos_assembly_asks_for_one_map_per_chain_and_no_identity(monkeypatch):
    # a face that drops a chain's bottom or a middle element keeps its top,
    # so its map is the identity and goes straight onto the block diagonal
    d = constant_sheaf(simplicial_complex_poset(_SIMPLEX6), 1, QQ)
    chains = sum(len(group) for group in order_complex(d.poset)[1:])
    assert chains == 270
    calls = Counter()
    identity, sheaf_map = Matrix.identity, Sheaf.map
    monkeypatch.setattr(Matrix, "identity", classmethod(
        lambda cls, n, field: calls.update(["identity"]) or identity(n, field)))
    monkeypatch.setattr(Sheaf, "map", lambda self, s, t: calls.update(["map"]) or sheaf_map(
        self, s, t))
    c = roos_complex(d)
    assert calls == Counter(map=chains)
    # row of chain t: (-1)^i at the face without t_i, in face order
    groups = order_complex(d.poset)
    position = {t: k for group in groups for k, t in enumerate(group)}
    for m, group in zip(c.diffs, groups[1:]):
        assert [list(row.items()) for row in m._entries] == [
            [(position[t[:i] + t[i + 1:]], (-1) ** i) for i in range(len(t))] for t in group]


def test_homology_basis_stops_at_the_betti_number(monkeypatch):
    # C_20 with the constant Q sheaf: Betti [1, 1], 20 kernel vectors in
    # degree 1; after the first is kept, the other 19 are not tried
    c = build_complex(constant_sheaf(cycle_poset(20), 1, QQ), "minimal")
    calls = []
    insert_row = linalg._insert_row
    monkeypatch.setattr(linalg, "_insert_row", lambda *args: calls.append(1) or insert_row(*args))
    result = cohomology(c)
    assert [dim for dim, _ in result] == [1, 1]
    assert len(calls) == 42
