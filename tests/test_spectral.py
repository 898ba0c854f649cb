import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from posheaf.errors import (
    DegenerateInitialState,
    DegreeOutOfRange,
    DimensionMismatch,
    FieldMismatch,
    NoConvergence,
    NotTwoLayer,
    PosheafError,
    TraceTooShort,
    UnstableStepSize,
)
from posheaf import spectral
from posheaf.io import parse_sheaf
from posheaf.linalg import Matrix, QQ, RR, prime_field
from posheaf.cochain import (
    AUGMENTATION,
    DIFFUSION_MODES,
    betti,
    betti_numbers,
    minimal_complex,
    minimal_incidence,
    roos_complex,
)
from posheaf.poset import build_poset, hypergraph_to_poset
from posheaf.sheaf import (
    build_sheaf,
    constant_sheaf,
    cycle_poset,
    dirac_sheaf,
    mobius_sheaf,
    path_poset,
    skyscraper_cone_sheaf,
)
from posheaf.spectral import (
    NORMALIZATIONS,
    convergence_rate,
    default_eta,
    dirichlet_energy,
    eigendecompose,
    harmonic_dim,
    heat_diffusion,
    hypergraph_energy_forms,
    jacobi_eigh,
    laplacian,
    float_array,
    real_sheaf_complex,
)

from helpers import (fix_signs_reference, graph_sheaf_twins, heat_diffusion_reference,
                     hyperedge_barycenters,
                     random_compositional_sheaf, random_dag_poset, seeded_rng,
                     strong_normalize_reference)


def _real_minimal(sheaf):
    return minimal_complex(sheaf, minimal_incidence(sheaf.poset, sheaf.field))


def _fraction_scalar_diffs(c):
    """The differentials of a minimal complex over R assembled with add_block
    and each incidence scalar left a Fraction."""
    s = c.sheaf
    inc = minimal_incidence(s.poset, QQ)
    offsets = [list(accumulate(dims, initial=0)) for dims in c.dims]
    gids = [[g for g, (degree, _) in enumerate(inc.generators) if degree == j]
            for j in range(len(c.degrees))]
    place = {gid: (j, k) for j, row in enumerate(gids) for k, gid in enumerate(row)}
    diffs = [Matrix.zeros(offsets[j + 1][-1], offsets[j][-1], RR) for j in range(len(c.diffs))]
    for gid2, (_, owner2) in enumerate(inc.generators):
        _, row = place[gid2]
        for gid1, scalar in inc.columns[gid2].items():
            if gid1 != AUGMENTATION:
                j, col = place[gid1]
                diffs[j].add_block(offsets[j + 1][row], offsets[j][col],
                                   s.map(inc.generators[gid1][1], owner2), scalar)
    return diffs


@pytest.mark.parametrize("n", [10, 20, 30])
@pytest.mark.parametrize("kind", ["gauss", "gauge"])
def test_real_minimal_complex_is_bit_identical_to_fraction_scalar_assembly(n, kind):
    _, real = graph_sheaf_twins(n, kind, seeded_rng(700 + n))
    c = real_sheaf_complex(real)
    reference = _fraction_scalar_diffs(c)
    assert len(c.diffs) == len(reference) == 1
    for d, ref in zip(c.diffs, reference):
        assert (d.rows, d.cols) == (ref.rows, ref.cols)
        # float.hex fails on anything but a Python float and tells every bit apart
        assert [(i, j, x.hex()) for i, j, x in d.nonzeros()] == \
            [(i, j, x.hex()) for i, j, x in ref.nonzeros()]


def test_float_array_equals_the_entrywise_loop():
    # the Q and R differentials of graph sheaves, and an empty matrix
    mats = [Matrix.zeros(3, 0, QQ), Matrix.zeros(0, 2, RR), Matrix.zeros(2, 3, QQ)]
    for n, kind in [(10, "gauss"), (20, "frame")]:
        mats += [real_sheaf_complex(s).diffs[0] for s in graph_sheaf_twins(n, kind, seeded_rng(n))]
    for m in mats:
        expected = np.zeros((m.rows, m.cols))
        for i, j, x in m.nonzeros():
            expected[i, j] = x
        got = float_array(m, "test")
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_float_array_of_a_roos_differential():
    s = constant_sheaf(path_poset(2), 1, QQ)
    d0 = float_array(roos_complex(s).diffs[0], "test")
    assert d0.shape == (2, 3)
    assert set(np.abs(d0[np.nonzero(d0)])) == {1.0}


def test_laplacian_and_energy_reject_prime_field_complexes():
    c = roos_complex(constant_sheaf(path_poset(2), 1, prime_field(5)))
    with pytest.raises(FieldMismatch):
        laplacian(c, 0)
    with pytest.raises(FieldMismatch):
        dirichlet_energy(c, [1.0, 0.0, 0.0])


def test_real_sheaf_complex_over_r_matches_q():
    rng = seeded_rng(57)
    for _ in range(40):
        s = random_compositional_sheaf(random_dag_poset(rng), rng)
        maps = {edge: Matrix.from_rows(m.data, RR) for edge, m in s.edge_map.items()}
        exact = real_sheaf_complex(s)
        real = real_sheaf_complex(build_sheaf(s.poset, s.stalk_dim, maps, RR))
        assert real.degrees == exact.degrees and real.dims == exact.dims
        assert (exact.field, real.field) == (QQ, RR)
        assert len(real.diffs) == len(exact.diffs)
        for a, b in zip(exact.diffs, real.diffs):
            a, b = float_array(a, "test"), float_array(b, "test")
            assert a.shape == b.shape
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-12


def test_jacobi_on_diagonal_and_zero():
    vals, vecs = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    assert np.allclose(vecs @ vecs.T, np.eye(3), atol=1e-12)
    vals, vecs = jacobi_eigh(np.zeros((2, 2)))
    assert np.allclose(vals, 0.0)
    vals, vecs = jacobi_eigh(np.zeros((0, 0)))
    assert (vals.shape, vecs.shape) == ((0,), (0, 0))


def test_jacobi_matches_numpy_on_random_symmetric():
    rng = seeded_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        vals, vecs = jacobi_eigh(a)
        expected = np.linalg.eigvalsh(a)
        assert np.allclose(vals, expected, atol=1e-9)
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)
        for i in range(n):
            res = a @ vecs[:, i] - vals[i] * vecs[:, i]
            assert np.linalg.norm(res) <= 1e-8 * max(1.0, abs(vals[-1]))


def _block_diagonal(rng):
    a = np.zeros((5, 5))
    for block in (slice(0, 3), slice(3, 5)):
        b = rng.standard_normal((block.stop - block.start,) * 2)
        a[block, block] = b + b.T
    return a


def _symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("case", ["orders", "block-diagonal", "huge-theta", "zero-theta"])
def test_jacobi_reference_edge_cases(case):
    rng = seeded_rng(21)
    matrices = {
        # odd orders pair one index a round with the bye index
        "orders": [_symmetric(rng, n) for n in (1, 2, 3, 4, 5, 7, 8, 11, 16)],
        # every cross-block pivot is exactly zero, so its rotation is skipped
        "block-diagonal": [_block_diagonal(rng)],
        # after the (0, 2) rotation the (0, 1) pivot is about 1e-200, so
        # |theta| > 1e150; a 2 x 2 with such a theta already meets the stop test
        "huge-theta": [np.array([[0.0, 1e-200, 1.0], [1e-200, 1.0, 0.0], [1.0, 0.0, 2.0]])],
        # equal diagonal: theta = 0, and the eigenvectors tie in magnitude
        "zero-theta": [np.array([[0.0, 1.0], [1.0, 0.0]])],
    }[case]
    for a in matrices:
        n = a.shape[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, vecs = jacobi_eigh(a)
        assert np.allclose(vals, np.linalg.eigvalsh(a), atol=1e-9)
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-10)
        for i in range(n):
            res = a @ vecs[:, i] - vals[i] * vecs[:, i]
            assert np.linalg.norm(res) <= 1e-8 * max(1.0, abs(vals[-1]))
        lead = np.argmax(np.abs(vecs), axis=0)
        assert np.all(vecs[lead, np.arange(n)] > 0)
        if case == "block-diagonal":
            assert np.all((vecs[:3] == 0).all(axis=0) != (vecs[3:] == 0).all(axis=0))
        if case == "zero-theta":
            assert vecs[0, 0] == -vecs[1, 0] > 0 and vecs[0, 1] == vecs[1, 1] > 0


def test_jacobi_raises_when_the_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(spectral, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence):
        jacobi_eigh(_symmetric(seeded_rng(22), 6))


@pytest.mark.parametrize("scale", [1e-295, 1e-301, 1e-305])
def test_jacobi_rotates_a_matrix_of_tiny_entries(scale):
    # every nonzero pivot is rotated, however small: no absolute floor
    a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, _ = jacobi_eigh(a)
    expected = np.array([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
    assert np.allclose(vals / scale, expected, rtol=0.0, atol=1e-12)


def test_sign_rule_gives_a_magnitude_tie_to_the_first_index():
    vecs = np.array([[-0.6, 0.6, 0.8], [0.6, -0.8, 0.6], [0.0, 0.0, 0.0]])
    signed = [[0.6, -0.6, 0.8], [-0.6, 0.8, 0.6], [0.0, 0.0, 0.0]]
    assert np.array_equal(spectral._fix_signs(vecs), signed)
    assert spectral._fix_signs(np.zeros((0, 0))).shape == (0, 0)


def _distinct_stalk_block_eigenvalues(lap: np.ndarray, blocks: list[int]) -> bool:
    offset = 0
    for size in blocks:
        lam = np.linalg.eigvalsh(lap[offset:offset + size, offset:offset + size])
        if np.any(np.diff(lam) <= 1e-6 * max(abs(lam[-1]), 1.0)):
            return False
        offset += size
    return True


@pytest.mark.parametrize("n, kind", [
    (n, kind) for n in (10, 20, 40, 80) for kind in ("gauss", "gauge", "frame")
] + [(n, "ordered-frame") for n in (10, 20)])
def test_lapack_eigensolves_match_jacobi_on_graph_sheaves(monkeypatch, n, kind):
    exact, real = graph_sheaf_twins(n, kind, seeded_rng(600 + n))
    b0 = betti(exact, "minimal")[0]
    rc = real_sheaf_complex(real)
    x0 = np.ones(rc.degree_dim(0))

    def solve(norm):
        lap = laplacian(rc, 0, norm)
        return lap, eigendecompose(lap), heat_diffusion(lap, x0, steps=0).limit

    lapack = {norm: solve(norm) for norm in NORMALIZATIONS}
    cache = {}

    def jacobi_once(a):
        # the strong normalization solves its stalk blocks of one size as a stack
        if a.ndim == 3:
            solved = [jacobi_once(m) for m in a]
            return np.stack([v for v, _ in solved]), np.stack([w for _, w in solved])
        # heat_diffusion solves the Laplacian eigendecompose just solved
        key = a.tobytes()
        if key not in cache:
            cache[key] = jacobi_eigh(a)
        return cache[key]

    monkeypatch.setattr(spectral, "_eigh", jacobi_once)
    none_matrix = lapack["none"][0]
    distinct = _distinct_stalk_block_eigenvalues(none_matrix, rc.dims[0])
    assert distinct == (kind != "gauge")
    for norm in NORMALIZATIONS:
        _, bundle, limit = lapack[norm]
        _, ref_bundle, ref_limit = solve(norm)
        assert bundle.harmonic_dim == ref_bundle.harmonic_dim == b0
        tol = 1e-12 * ref_bundle.lam_max
        assert np.max(np.abs(bundle.eigenvalues - ref_bundle.eigenvalues)) <= tol
        if norm != "strong" or distinct:
            assert np.max(np.abs(limit - ref_limit)) <= 1e-10


def test_eigensolve_signs_follow_jacobi():
    rng = seeded_rng(2)
    for n in (1, 2, 5, 9):
        a = rng.standard_normal((n, n))
        a = a + a.T
        vals, vecs = spectral._eigh(a)
        ref_vals, ref_vecs = jacobi_eigh(a)
        assert np.allclose(vals, ref_vals, atol=1e-9)
        assert np.allclose(vecs, ref_vecs, atol=1e-8)
    vals, vecs = spectral._eigh(np.zeros((0, 0)))
    assert vals.shape == (0,) and vecs.shape == (0, 0)


def test_laplacian_cycle_matches_graph_laplacian():
    s = constant_sheaf(cycle_poset(4), 1, QQ)
    lap = laplacian(_real_minimal(s), 0, "none")
    bundle = eigendecompose(lap)
    expected = sorted(2 - 2 * math.cos(2 * math.pi * k / 4) for k in range(4))
    assert np.allclose(bundle.eigenvalues, expected, atol=1e-9)
    # degree 0 has no lower term: Delta_0 = d0^T d0
    d0 = float_array(_real_minimal(s).diffs[0], "test")
    assert np.allclose(lap, d0.T @ d0)


def test_laplacian_degree_out_of_range():
    s = constant_sheaf(path_poset(2), 1, QQ)
    with pytest.raises(DegreeOutOfRange):
        laplacian(_real_minimal(s), 5, "none")


def test_laplacian_and_diffusion_refuse_unknown_names():
    c = _real_minimal(constant_sheaf(path_poset(2), 1, QQ))
    # names match exactly: another case is another name
    for norm in ("bogus", "Weak"):
        with pytest.raises(FieldMismatch, match=f"unknown normalization '{norm}'"):
            laplacian(c, 0, norm)
    lap = laplacian(c, 0, "none")
    for mode in ("fast", "Discrete"):
        with pytest.raises(UnstableStepSize, match=f"unknown diffusion mode '{mode}'"):
            heat_diffusion(lap, [1.0, 0.0], mode=mode)


def test_weak_normalization_uniform_diagonal_is_scaling():
    s = constant_sheaf(cycle_poset(5), 1, QQ)
    rc = _real_minimal(s)
    plain = laplacian(rc, 0, "none")
    weak = laplacian(rc, 0, "weak")
    # cycle Laplacian has constant diagonal 2, so weak = plain / 2
    assert np.allclose(weak, plain / 2.0)


def test_weak_normalized_diagonal_zero_one():
    rng = seeded_rng(3)
    for _ in range(10):
        p = random_dag_poset(rng, max_elements=7)
        s = random_compositional_sheaf(p, rng)
        rc = _real_minimal(s)
        for j in range(rc.top_degree + 1):
            if rc.degree_dim(j) == 0:
                continue
            weak = laplacian(rc, j, "weak")
            diag = np.diag(weak)
            assert np.all(
                (np.abs(diag) <= 1e-12) | (np.abs(diag - 1.0) <= 1e-12)
            )


def test_harmonic_dims_equal_betti_all_constructions():
    rng = seeded_rng(5)
    for _ in range(25):
        p = random_dag_poset(rng, max_elements=7)
        s = random_compositional_sheaf(p, rng)
        for build in (
            lambda: roos_complex(s),
            lambda: minimal_complex(s, minimal_incidence(p, QQ)),
        ):
            exact = build()
            vec = betti_numbers(exact)
            for j in range(exact.top_degree + 1):
                lap = laplacian(exact, j, "none")
                assert harmonic_dim(lap) == vec[j]


def test_normalization_preserves_harmonic_dim():
    rng = seeded_rng(7)
    for _ in range(15):
        p = random_dag_poset(rng, max_elements=7)
        s = random_compositional_sheaf(p, rng)
        rc = _real_minimal(s)
        for j in range(rc.top_degree + 1):
            if rc.degree_dim(j) == 0:
                continue
            dims = {
                norm: harmonic_dim(laplacian(rc, j, norm))
                for norm in ("none", "weak", "strong")
            }
            assert len(set(dims.values())) == 1


@pytest.mark.parametrize("sheaf, spectra", [
    (dirac_sheaf(cycle_poset(4), "v1", 2, RR), [[0.0, 0.0], []]),
    (skyscraper_cone_sheaf(cycle_poset(4), "e1", 1, QQ), [[0.0, 2.0], [1.0]]),
], ids=["dirac", "skyscraper-cone"])
def test_strong_normalization_passes_zero_dimensional_stalks(sheaf, spectra):
    # both sheaves have 0 x 0 stalk blocks in degree 0
    rc = real_sheaf_complex(sheaf)
    assert 0 in rc.dims[0]
    for j, expected in enumerate(spectra):
        eigenvalues = eigendecompose(laplacian(rc, j, "strong")).eigenvalues
        assert np.allclose(eigenvalues, expected, rtol=0.0, atol=1e-12)


def test_harmonic_dim_examples():
    mob = _real_minimal(mobius_sheaf(4, QQ))
    assert harmonic_dim(laplacian(mob, 0, "none")) == 0
    two = hypergraph_to_poset(["1", "2", "3", "4"], [["1", "2"], ["3", "4"]])
    s = _real_minimal(constant_sheaf(two, 1, QQ))
    assert harmonic_dim(laplacian(s, 0, "none")) == 2
    c4 = _real_minimal(constant_sheaf(cycle_poset(4), 1, QQ))
    assert harmonic_dim(laplacian(c4, 1, "none")) == 1


GOLDEN = Path(__file__).parent / "golden"
# morse_constant is left out: its minimal complex has a face across the
# non-cover 1<b, so scaling the maps by 2^k moves its Laplacian's entries by
# different powers of two, and its spectrum has no one scale to be free of
_SCALED_GOLDENS = sorted(p for p in GOLDEN.glob("*.json")
                         if not p.name.endswith(".report.json") and p.stem != "morse_constant")
_EXPONENTS = [-26, -20, 200] + [int(k) for k in seeded_rng(21).integers(-500, 501, size=8)]


def _scaled_spectra(path: Path, k: int):
    """Every degree's spectrum under every normalization of the golden
    document at path with its maps scaled by 2^k, or the error's code."""
    doc = json.loads(path.read_text())
    doc["maps"] = {key: [str(Fraction(x) * Fraction(2) ** k) for x in entries]
                   for key, entries in doc["maps"].items()}
    try:
        c = real_sheaf_complex(parse_sheaf(json.dumps(doc)))
        return {(j, norm): eigendecompose(laplacian(c, j, norm))
                for j in range(c.top_degree + 1) for norm in NORMALIZATIONS}
    except PosheafError as exc:
        return exc.code


@pytest.mark.parametrize("path", _SCALED_GOLDENS, ids=lambda p: p.stem)
def test_golden_spectra_do_not_depend_on_the_maps_scale(path):
    # a power-of-two scaling is exact: harmonic_dim stays the Betti number,
    # the normalized spectra keep every bit, and the unnormalized one scales
    unit = _scaled_spectra(path, 0)
    if isinstance(unit, str):
        assert [_scaled_spectra(path, k) for k in _EXPONENTS] == [unit] * len(_EXPONENTS)
        return
    exact = betti(parse_sheaf(path.read_text()), "minimal")
    for k in _EXPONENTS:
        for (j, norm), bundle in _scaled_spectra(path, k).items():
            base = unit[(j, norm)]
            assert bundle.harmonic_dim == base.harmonic_dim == exact[j], (k, j, norm)
            if norm == "none":
                expected = np.ldexp(base.eigenvalues, 2 * k)
                assert np.all(np.abs(bundle.eigenvalues - expected) <= 1e-12 * bundle.lam_max)
            else:
                assert bundle.eigenvalues.tobytes() == base.eigenvalues.tobytes(), (k, j, norm)


def test_dirichlet_energy_single_edge():
    s = constant_sheaf(path_poset(2), 1, QQ)
    rc = _real_minimal(s)
    # hand-assembled differential (1, -1): energy of (1, 0) is 1
    assert dirichlet_energy(rc, [1.0, 0.0]) == pytest.approx(1.0)
    assert dirichlet_energy(rc, [1.0, 1.0]) == pytest.approx(0.0)
    assert dirichlet_energy(rc, [0.0, 0.0]) == 0.0
    with pytest.raises(DimensionMismatch):
        dirichlet_energy(rc, [1.0, 2.0, 3.0])


def test_energy_equals_quadratic_form():
    rng = seeded_rng(9)
    for _ in range(10):
        p = random_dag_poset(rng, max_elements=7)
        s = random_compositional_sheaf(p, rng)
        rc = _real_minimal(s)
        lap = laplacian(rc, 0, "none")
        x = rng.standard_normal(rc.degree_dim(0))
        q1 = dirichlet_energy(rc, x)
        q2 = float(x @ (lap @ x))
        assert abs(q1 - q2) <= 1e-10 * (1.0 + abs(q1))


def test_heat_diffusion_single_edge_average():
    s = constant_sheaf(path_poset(2), 1, QQ)
    lap = laplacian(_real_minimal(s), 0, "none")
    trace = heat_diffusion(lap, [1.0, 0.0], eta=0.25, steps=20)
    assert np.allclose(trace.states[-1], [0.5, 0.5], atol=1e-12)
    assert np.allclose(trace.limit, [0.5, 0.5], atol=1e-12)


def test_heat_diffusion_harmonic_start_is_fixed():
    s = constant_sheaf(cycle_poset(4), 1, QQ)
    lap = laplacian(_real_minimal(s), 0, "none")
    trace = heat_diffusion(lap, np.ones(4), steps=15)
    for state in trace.states:
        assert np.allclose(state, 1.0, atol=1e-12)


def test_heat_diffusion_mobius_converges_to_zero():
    lap = laplacian(_real_minimal(mobius_sheaf(4, QQ)), 0, "none")
    trace = heat_diffusion(lap, np.ones(4), steps=400)
    assert np.allclose(trace.limit, 0.0)
    assert np.linalg.norm(trace.states[-1]) <= 1e-6


def test_heat_diffusion_energy_monotone_and_limit():
    rng = seeded_rng(11)
    for _ in range(10):
        p = random_dag_poset(rng, max_elements=7)
        s = random_compositional_sheaf(p, rng)
        lap = laplacian(_real_minimal(s), 0, "none")
        if len(lap) == 0:
            continue
        x0 = rng.standard_normal(len(lap))
        trace = heat_diffusion(lap, x0, steps=600)
        for a, b in zip(trace.energies, trace.energies[1:]):
            assert b <= a + 1e-12
        assert np.linalg.norm(trace.states[-1] - trace.limit) <= 1e-6


def test_heat_diffusion_validates_step_size():
    s = constant_sheaf(path_poset(2), 1, QQ)
    lap = laplacian(_real_minimal(s), 0, "none")
    with pytest.raises(UnstableStepSize):
        heat_diffusion(lap, [1.0, 0.0], eta=0.6, steps=5)
    for mode in ("discrete", "continuous"):
        for eta in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(UnstableStepSize):
                heat_diffusion(lap, [1.0, 0.0], eta=eta, steps=5, mode=mode)


def test_continuous_mode_matches_matrix_exponential():
    s = constant_sheaf(cycle_poset(4), 1, QQ)
    lap = laplacian(_real_minimal(s), 0, "none")
    x0 = np.array([1.0, 0.0, -1.0, 0.5])
    trace = heat_diffusion(lap, x0, eta=0.1, steps=5, mode="continuous")
    vals, vecs = np.linalg.eigh(lap)
    for k, state in enumerate(trace.states):
        expected = vecs @ (np.exp(-2 * 0.1 * vals * k) * (vecs.T @ x0))
        assert np.allclose(state, expected, atol=1e-9)


TWIN_KINDS = ("gauss", "gauge", "frame", "ordered-frame")


@pytest.mark.parametrize("kind", TWIN_KINDS)
def test_strong_normalization_stacks_match_the_per_block_reference(kind):
    # one eigensolve per block size runs LAPACK once per stacked block, as
    # one call per block does, so every bit agrees
    for n in (10, 30):
        rc = real_sheaf_complex(graph_sheaf_twins(n, kind, seeded_rng(800 + n))[1])
        for j in (0, 1):
            mat = laplacian(rc, j, "none")
            assert np.array_equal(spectral._strong_normalize(mat, rc.dims[j]),
                                  strong_normalize_reference(mat, rc.dims[j]))


def test_strong_normalization_stacks_mixed_and_empty_stalks():
    rng = seeded_rng(801)
    blocks = [2, 0, 1, 3, 1, 0, 3, 2, 1, 3]
    a = rng.standard_normal((sum(blocks), 2))  # rank 2: every 3-dim block is singular
    a[3:6] = 0.0  # and one whole block is zero
    mat = a @ a.T
    assert np.array_equal(spectral._strong_normalize(mat, blocks),
                          strong_normalize_reference(mat, blocks))
    for empty in ([], [0, 0]):
        out = spectral._strong_normalize(np.zeros((0, 0)), empty)
        assert out.shape == (0, 0)
        assert np.array_equal(out, strong_normalize_reference(np.zeros((0, 0)), empty))


def test_sign_rule_on_a_stack_matches_each_matrix():
    rng = seeded_rng(802)
    a = rng.standard_normal((5, 4, 4))
    stack = np.linalg.eigh(a + a.transpose(0, 2, 1))[1]
    stack[0, :, 1] = [0.0, -0.5, 0.5, 0.0]  # a magnitude tie goes to the first index
    signed = spectral._fix_signs(stack)
    for m, s in zip(stack, signed):
        assert np.array_equal(s, spectral._fix_signs(m))
        assert np.array_equal(s, fix_signs_reference(m))
    assert signed[0, 1, 1] == 0.5
    assert spectral._fix_signs(np.zeros((3, 0, 0))).shape == (3, 0, 0)


def _assert_trace_matches_reference(lap, x0, steps, mode):
    trace = heat_diffusion(lap, x0, steps=steps, mode=mode)
    states, energies, distances, limit = heat_diffusion_reference(
        lap, x0, eta=trace.eta, steps=steps, mode=mode)
    assert isinstance(trace.states, list) and len(trace.states) == len(states)
    assert all(np.array_equal(s, r) for s, r in zip(trace.states, states))
    assert all(type(v) is float for v in trace.energies + trace.distances)
    assert trace.energies == energies and trace.distances == distances
    assert np.array_equal(trace.limit, limit)


@pytest.mark.parametrize("mode", DIFFUSION_MODES)
@pytest.mark.parametrize("kind", TWIN_KINDS)
def test_heat_diffusion_stacks_match_the_per_state_reference(kind, mode):
    # 3 * len(l) + 1 steps run the stacked products over several row blocks;
    # a negative step count leaves the one-state trace
    rc = real_sheaf_complex(graph_sheaf_twins(10, kind, seeded_rng(803))[1])
    x0 = seeded_rng(804).standard_normal(rc.degree_dim(0))
    for norm in NORMALIZATIONS:
        lap = laplacian(rc, 0, norm)
        for steps in (0, 1, 3 * len(lap) + 1, -1):
            _assert_trace_matches_reference(lap, x0, steps, mode)


@pytest.mark.parametrize("mode", DIFFUSION_MODES)
def test_heat_diffusion_stacks_match_on_an_empty_laplacian(mode):
    for steps in (0, 1, 4, -1):
        _assert_trace_matches_reference(np.zeros((0, 0)), [], steps, mode)
    assert len(heat_diffusion(np.zeros((0, 0)), [], steps=4, mode=mode).states) == 5


@pytest.mark.parametrize("mode", DIFFUSION_MODES)
def test_heat_diffusion_scratch_stays_within_the_laplacian(mode):
    # the stacked products run over blocks of len(l) states: a long trace
    # peaks near its own states' bytes (1.43x measured), where stacking every
    # state at once would add a second states-sized array
    lap = laplacian(real_sheaf_complex(graph_sheaf_twins(30, "gauss", seeded_rng(805))[1]), 0,
                    "none")
    n = len(lap)
    x0 = np.ones(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = heat_diffusion(lap, x0, steps=50 * n, mode=mode)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(trace.states) == 50 * n + 1
    assert peak < 1.6 * (50 * n + 1) * n * 8


def test_convergence_rate_single_edge_one_shot():
    s = constant_sheaf(path_poset(2), 1, QQ)
    lap = laplacian(_real_minimal(s), 0, "none")
    trace = heat_diffusion(lap, [1.0, 0.0], eta=0.25, steps=20)
    bundle = eigendecompose(lap)
    assert bundle.lam_min == pytest.approx(2.0)
    assert convergence_rate(trace, bundle) == 0.0


def test_convergence_rate_cycle_prediction():
    # eta = 0.1 on C4: lam_min = 2 - 2cos(pi/2) = 2, predicted ratio 0.6;
    # 40 steps keep the tail above the float noise floor (0.6^40 ~ 1e-9)
    s = constant_sheaf(cycle_poset(4), 1, QQ)
    lap = laplacian(_real_minimal(s), 0, "none")
    bundle = eigendecompose(lap)
    eta = 0.1
    trace = heat_diffusion(
        lap, np.array([1.0, 0.2, -0.3, 0.4]), eta=eta, steps=40
    )
    expected = 1 - 2 * eta * bundle.lam_min
    assert bundle.lam_min == pytest.approx(2.0, abs=1e-9)
    assert abs(convergence_rate(trace, bundle) - expected) <= 1e-3


def test_convergence_rate_errors():
    s = constant_sheaf(cycle_poset(4), 1, QQ)
    lap = laplacian(_real_minimal(s), 0, "none")
    bundle = eigendecompose(lap)
    short = heat_diffusion(lap, np.array([1.0, 0, 0, 0]), steps=5)
    with pytest.raises(TraceTooShort):
        convergence_rate(short, bundle)
    harmonic = heat_diffusion(lap, np.ones(4), steps=20)
    with pytest.raises(DegenerateInitialState):
        convergence_rate(harmonic, bundle)
    # lam_min = 2, and [1, -1, 1, -1] spans the eigenvalue-4 space: the start is
    # not harmonic, yet no component of it decays at the slowest rate
    fastest = heat_diffusion(lap, np.array([1.0, -1.0, 1.0, -1.0]), steps=20)
    with pytest.raises(DegenerateInitialState,
                       match="^initial state has no component on the slowest mode$"):
        convergence_rate(fastest, bundle)


def _hypergraph_sheaf(rng, n_vertices=4, n_edges=2, dim=2):
    vertices = [str(i) for i in range(n_vertices)]
    hyperedges = []
    for _ in range(n_edges):
        size = int(rng.integers(1, n_vertices + 1))
        members = list(rng.choice(vertices, size=size, replace=False))
        hyperedges.append(members)
    p = hypergraph_to_poset(vertices, hyperedges)
    stalks = {e: dim for e in p.elements}
    maps = {
        edge: Matrix.from_rows(rng.integers(-2, 3, size=(dim, dim)).tolist(), QQ)
        for edge in p.hasse_edges()
    }
    return build_sheaf(p, stalks, maps, QQ)


def test_hypergraph_energy_forms_equal_at_barycenter():
    rng = seeded_rng(13)
    for _ in range(50):
        h = _hypergraph_sheaf(rng)
        total = sum(h.stalk(e) for e in h.poset.elements)
        x = rng.standard_normal(total)
        x = hyperedge_barycenters(h, x)
        q_roos, q_pairwise = hypergraph_energy_forms(h, x)
        assert abs(q_roos - q_pairwise) <= 1e-12 * (1.0 + abs(q_roos))


def test_hypergraph_energy_zero_at_coherent_state():
    p = hypergraph_to_poset(["1", "2"], [["1", "2"]])
    stalks = {e: 1 for e in p.elements}
    maps = {edge: Matrix.from_rows([[1]], QQ) for edge in p.hasse_edges()}
    h = build_sheaf(p, stalks, maps, QQ)
    q_roos, q_pairwise = hypergraph_energy_forms(h, [2.0, 2.0, 2.0])
    assert q_roos == 0.0 and q_pairwise == 0.0


def test_hypergraph_energy_opposite_vectors():
    # two vertices, identity maps, x = (v, -v), x_b = 0: q_roos = 2 |v|^2
    p = hypergraph_to_poset(["1", "2"], [["1", "2"]])
    stalks = {e: 2 for e in p.elements}
    maps = {edge: Matrix.identity(2, QQ) for edge in p.hasse_edges()}
    h = build_sheaf(p, stalks, maps, QQ)
    v = np.array([1.0, 2.0])
    x = np.concatenate([v, -v, np.zeros(2)])
    q_roos, _ = hypergraph_energy_forms(h, x)
    assert q_roos == pytest.approx(2 * float(v @ v))


def test_hypergraph_energy_rejects_deep_posets():
    chain = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    s = constant_sheaf(chain, 1, QQ)
    for walk in (hypergraph_energy_forms, hyperedge_barycenters):
        with pytest.raises(NotTwoLayer):
            walk(s, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("walk", [hypergraph_energy_forms, hyperedge_barycenters])
def test_hypergraph_walks_reject_wrong_lengths_and_prime_fields(walk):
    triangle = hypergraph_to_poset(["1", "2", "3"], [["1", "2", "3"]])
    with pytest.raises(DimensionMismatch):
        walk(constant_sheaf(triangle, 1, QQ), [1.0, 1.0, 1.0])
    # F_5 residues are not reals: a map entry 4 = -1 would count as +4
    with pytest.raises(FieldMismatch):
        walk(constant_sheaf(triangle, 1, prime_field(5)), [1.0, 2.0, 3.0, 4.0])


def test_gradient_of_energy_is_twice_laplacian():
    rng = seeded_rng(15)
    s = random_compositional_sheaf(random_dag_poset(rng, max_elements=7), rng)
    rc = _real_minimal(s)
    lap = laplacian(rc, 0, "none")
    if len(lap) == 0:
        return
    from posheaf.nsd import finite_difference_gradient

    for _ in range(20):
        x = rng.standard_normal(len(lap))
        grad = finite_difference_gradient(lambda y: dirichlet_energy(rc, y), x)
        analytic = 2.0 * (lap @ x)
        scale = max(1.0, float(np.linalg.norm(analytic)))
        assert np.linalg.norm(grad - analytic) <= 1e-5 * scale
