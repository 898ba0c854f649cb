"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from posheaf.linalg import QQ, prime_field
from posheaf.cochain import (
    betti,
    betti_numbers,
    cellular_complex,
    minimal_complex,
    minimal_incidence,
    multiplicities,
    roos_complex,
)
from posheaf.poset import build_poset, down_set, hypergraph_to_poset, simplicial_complex_poset
from posheaf.sheaf import (
    constant_sheaf,
    cycle_poset,
    dirac_sheaf,
    global_sections_bruteforce,
    mobius_sheaf,
    path_poset,
)
from posheaf.spectral import (
    convergence_rate,
    dirichlet_energy,
    eigendecompose,
    harmonic_dim,
    heat_diffusion,
    hypergraph_energy_forms,
    laplacian,
)
from posheaf.nsd import NsdLayer, finite_difference_gradient, nsd_forward

from helpers import (
    gcn_forward_oracle,
    hyperedge_barycenters,
    seeded_rng,
    random_compositional_sheaf,
    random_dag_poset,
    random_graph_poset,
    random_simplicial_poset,
    reduced_betti_oracle,
    same_betti,
    union_find_components,
)

GOLDEN = Path(__file__).parent / "golden"
F2 = prime_field(2)

_ALL_METHODS = ("roos", "cellular", "minimal")


def _report(number: int, name: str, ok: bool):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    sys.stderr.write(line + "\n")
    assert ok, line


def _simplicial_cycle(n: int):
    vertices = [str(i) for i in range(1, n + 1)]
    edges = [[vertices[i], vertices[(i + 1) % n]] for i in range(n)]
    return simplicial_complex_poset(edges)


def _simplicial_path(n: int):
    vertices = [str(i) for i in range(1, n + 1)]
    edges = [[vertices[i], vertices[i + 1]] for i in range(n - 1)]
    return simplicial_complex_poset(edges)


def test_criterion_01_cycle_path_cohomology():
    start = time.perf_counter()
    ok = True
    for n in range(3, 9):
        cycle = constant_sheaf(_simplicial_cycle(n), 1, QQ)
        path = constant_sheaf(_simplicial_path(n), 1, QQ)
        for method in _ALL_METHODS:
            ok = ok and betti(cycle, method) == [1, 1]
            ok = ok and betti(path, method) == [1, 0]
    elapsed = time.perf_counter() - start
    _report(1, "cycle-path-cohomology", ok and elapsed < 1.0)


def test_criterion_02_mobius_sections():
    start = time.perf_counter()
    ok = global_sections_bruteforce(mobius_sheaf(4, QQ)).dim == 0
    ok = ok and global_sections_bruteforce(mobius_sheaf(4, F2)).dim == 1
    elapsed = time.perf_counter() - start
    _report(2, "mobius-sections", ok and elapsed < 1.0)


def test_criterion_03_connected_components():
    rng = seeded_rng(103)
    ok = True
    for _ in range(50):
        p, n, edges = random_graph_poset(rng, max_vertices=10)
        dim = global_sections_bruteforce(constant_sheaf(p, 1, QQ)).dim
        ok = ok and dim == union_find_components(n, edges)
    _report(3, "connected-components", ok)


def test_criterion_04_cycle_spectrum():
    start = time.perf_counter()
    ok = True
    for n in range(3, 13):
        s = constant_sheaf(cycle_poset(n), 1, QQ)
        c = minimal_complex(s, minimal_incidence(s.poset, QQ))
        bundle = eigendecompose(laplacian(c, 0, "none"))
        expected = sorted(2 - 2 * math.cos(2 * math.pi * k / n) for k in range(n))
        ok = ok and max(
            abs(a - b) for a, b in zip(bundle.eigenvalues, expected)
        ) <= 1e-9
    elapsed = time.perf_counter() - start
    _report(4, "cycle-spectrum", ok and elapsed < 1.0)


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    rng = seeded_rng(105)
    ok = True
    for trial in range(200):
        if trial % 3 == 0:
            p = random_simplicial_poset(rng)
            simplicial = True
        else:
            p = random_dag_poset(rng, max_elements=12, chain_cap=60)
            simplicial = False
        s = random_compositional_sheaf(p, rng)
        roos = betti(s, "roos")
        minimal = betti(s, "minimal")
        ok = ok and same_betti(roos, minimal)
        if simplicial:
            ok = ok and same_betti(roos, betti(s, "cellular"))
    elapsed = time.perf_counter() - start
    _report(5, "oracle-equivalence", ok and elapsed < 60.0)


def test_criterion_06_minimal_multiplicity_theorem():
    rng = seeded_rng(106)
    ok = True
    for _ in range(50):
        p = random_dag_poset(rng, max_elements=9)
        inc = minimal_incidence(p, QQ)
        stats = multiplicities(minimal_complex(constant_sheaf(p, 1, QQ), inc))
        for e in p.elements:
            oracle = reduced_betti_oracle(down_set(p, e))
            for k in range(len(p.elements) + 1):
                ok = ok and stats[e, k] == oracle.get(k - 1, 0)
    _report(6, "minimal-multiplicity-theorem", ok)


def test_criterion_07_morse_example():
    p = build_poset(
        ["1", "2", "3", "a", "b"],
        [("1", "a"), ("2", "a"), ("a", "b"), ("3", "b")],
    )
    inc = minimal_incidence(p, QQ)
    degrees = sorted((owner, degree) for degree, owner in inc.generators)
    ok = degrees == [("1", 0), ("2", 0), ("3", 0), ("a", 1), ("b", 1)]
    (gb,) = [g for g, (_, owner) in enumerate(inc.generators) if owner == "b"]
    row = {
        owner: inc.columns[gb].get(h, 0)
        for h, (degree, owner) in enumerate(inc.generators)
        if degree == 0 and inc.columns[gb].get(h, 0)
    }
    ok = ok and len(row) <= 2
    k3 = row.get("3", 0)
    ok = ok and k3 != 0
    if ok:
        scale = -k3
        ok = (row.get("1", 0) / scale) + (row.get("2", 0) / scale) == 1
    ok = ok and betti(constant_sheaf(p, 1, QQ), "minimal") == [1, 0]
    _report(7, "morse-example", ok)


def test_criterion_08_hodge_consistency():
    rng = seeded_rng(108)
    ok = True
    for _ in range(100):
        p = random_dag_poset(rng, max_elements=8)
        s = random_compositional_sheaf(p, rng)
        exact = minimal_complex(s, minimal_incidence(p, QQ))
        vec = betti_numbers(exact)
        for j in range(exact.top_degree + 1):
            lap = laplacian(exact, j, "none")
            ok = ok and harmonic_dim(lap) == vec[j]
    _report(8, "hodge-consistency", ok)


def test_criterion_09_normalization_kernel_invariance():
    rng = seeded_rng(109)
    checked = 0
    ok = True
    while checked < 50:
        p = random_dag_poset(rng, max_elements=8)
        s = random_compositional_sheaf(p, rng)
        c = minimal_complex(s, minimal_incidence(p, QQ))
        for j in range(c.top_degree + 1):
            if c.degree_dim(j) == 0:
                continue
            dims = {
                norm: harmonic_dim(laplacian(c, j, norm))
                for norm in ("none", "weak", "strong")
            }
            ok = ok and len(set(dims.values())) == 1
            checked += 1
    _report(9, "normalization-kernel-invariance", ok)


def test_criterion_10_convergence_rate():
    rng = seeded_rng(110)
    ok = True
    eta = 0.02
    for n in range(4, 9):
        s = constant_sheaf(cycle_poset(n), 1, QQ)
        lap = laplacian(minimal_complex(s, minimal_incidence(s.poset, QQ)), 0, "none")
        bundle = eigendecompose(lap)
        x0 = rng.standard_normal(n)
        trace = heat_diffusion(lap, x0, eta=eta, steps=200)
        predicted = 1 - 2 * eta * bundle.lam_min
        ok = ok and abs(convergence_rate(trace, bundle) - predicted) <= 1e-3
    _report(10, "convergence-rate", ok)


def test_criterion_11_gcn_reduction():
    rng = seeded_rng(111)
    ok = True
    trials = 0
    while trials < 20:
        p, n, edges = random_graph_poset(rng, max_vertices=8)
        if not edges:
            continue
        trials += 1
        s = constant_sheaf(p, 1, QQ)
        f1, f2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rng.standard_normal((n, f1))
        w2 = rng.standard_normal((f1, f2))
        eta = float(rng.uniform(0.01, 0.2))
        norm = ("none", "weak")[trials % 2]
        layer = NsdLayer(s, np.eye(1), w2, eta=eta, norm=norm)
        ours = nsd_forward(layer, x)
        oracle = gcn_forward_oracle(p, x, w2, eta=eta, norm=norm)
        ok = ok and float(np.max(np.abs(ours - oracle))) <= 1e-12
    _report(11, "gcn-reduction", ok)


def test_criterion_12_hypergraph_energy_equality():
    from posheaf.linalg import Matrix
    from posheaf.sheaf import build_sheaf

    rng = seeded_rng(112)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 6))
        vertices = [str(i) for i in range(n)]
        hyperedges = []
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, n + 1))
            hyperedges.append(list(rng.choice(vertices, size=size, replace=False)))
        p = hypergraph_to_poset(vertices, hyperedges)
        dim = int(rng.integers(1, 4))
        stalks = {e: dim for e in p.elements}
        maps = {
            edge: Matrix.from_rows(rng.integers(-3, 4, size=(dim, dim)).tolist(), QQ)
            for edge in p.hasse_edges()
        }
        h = build_sheaf(p, stalks, maps, QQ)
        x = rng.standard_normal(dim * len(p.elements))
        x = hyperedge_barycenters(h, x)
        q_roos, q_pairwise = hypergraph_energy_forms(h, x)
        ok = ok and abs(q_roos - q_pairwise) <= 1e-12 * (1.0 + abs(q_roos))
    _report(12, "hypergraph-energy-equality", ok)


def test_criterion_13_euler_identity():
    rng = seeded_rng(113)
    ok = True
    for _ in range(30):
        p = random_dag_poset(rng, max_elements=8)
        inc = minimal_incidence(p, QQ)
        for e in p.elements:
            oracle = reduced_betti_oracle(down_set(p, e))
            betti_sum = sum((-1) ** (d + 1) * b for d, b in oracle.items())
            for build in (
                lambda s: roos_complex(s),
                lambda s: minimal_complex(s, inc),
            ):
                stats = multiplicities(build(dirac_sheaf(p, e, 1, QQ)))
                mu_sum = sum(
                    (-1) ** k * stats[e, k] for k in range(len(p.elements) + 2)
                )
                ok = ok and mu_sum == betti_sum
    _report(13, "euler-identity", ok)


def test_criterion_14_gradient_check():
    rng = seeded_rng(114)
    s = random_compositional_sheaf(random_dag_poset(rng, max_elements=8), rng)
    c = minimal_complex(s, minimal_incidence(s.poset, QQ))
    lap = laplacian(c, 0, "none")
    ok = len(lap) > 0
    for _ in range(20):
        x = rng.standard_normal(len(lap))
        grad = finite_difference_gradient(lambda y: dirichlet_energy(c, y), x)
        analytic = 2.0 * (lap @ x)
        scale = max(1.0, float(np.linalg.norm(analytic)))
        ok = ok and float(np.linalg.norm(grad - analytic)) <= 1e-5 * scale
    _report(14, "gradient-check", ok)


def test_criterion_15_golden_files():
    from posheaf.cli import cli

    ok = True
    for doc_path in sorted(GOLDEN.glob("*.json")):
        if doc_path.name.endswith(".report.json"):
            continue
        report_path = GOLDEN / (doc_path.stem + ".report.json")
        pinned = report_path.read_text(encoding="utf-8")
        command = json.loads(pinned)["command"]
        argv = {
            "sections": ["sections"],
            "betti": None,  # reconstructed below with the pinned method
            "spectrum": None,
            "diffuse": None,
            "incidence": ["incidence"],
            "classify": ["classify"],
            "validate": ["validate"],
        }[command]
        report = json.loads(pinned)
        if command == "betti":
            argv = ["betti", "--method", report["method"]]
        elif command == "spectrum":
            argv = [
                "spectrum",
                "--degree", str(report["spectrum"]["degree"]),
                "--norm", report["spectrum"]["normalization"],
            ]
        elif command == "diffuse":
            argv = [
                "diffuse",
                "--eta", repr(report["trace"]["eta"]),
                "--steps", str(report["trace"]["steps"]),
                "--mode", report["trace"]["mode"],
            ]
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli(argv + [str(doc_path)])
        ok = ok and code == 0 and buffer.getvalue() == pinned
    _report(15, "golden-files", ok)
