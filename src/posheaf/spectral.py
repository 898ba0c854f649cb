"""Real-valued Laplacians of all orders on any cochain construction, weak and
strong normalization, Dirichlet energies, and heat diffusion with
convergence-rate estimation.

``laplacian`` and ``dirichlet_energy`` take a ``cochain.CochainComplexInstance``
over Q or R, whose constructor has already checked d^2 = 0, and convert to
float64 only the differentials they read.  A Laplacian passes between stages
as its symmetric float64 array, which ``eigendecompose``, ``harmonic_dim`` and
``heat_diffusion`` take as it is.

Every eigensolve runs through LAPACK (``np.linalg.eigh``) in ``_eigh``.  The
round-robin Jacobi solver ``jacobi_eigh``, which never calls LAPACK, stays as
the reference the tests hold LAPACK to.  Both return ascending eigenvalues and
sign their eigenvectors by one rule, ``_fix_signs``.

Every tolerance is relative, so no power-of-two scaling of the maps moves a
decision.  ``_is_zero`` counts an eigenvalue as zero when it is at most
HARMONIC_TOL times the largest in view: the Laplacian's or the stalk block's.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    DegenerateInitialState,
    DegreeOutOfRange,
    DimensionMismatch,
    FieldMismatch,
    NoConvergence,
    NotTwoLayer,
    OverflowOnConvert,
    TraceTooShort,
    UnstableStepSize,
)
from .linalg import QQ, Matrix, require_real
from .cochain import (DIFFUSION_MODES, NORMALIZATIONS, CochainComplexInstance, minimal_complex,
                      minimal_incidence)
from .sheaf import Sheaf, stalk_layout

HARMONIC_TOL = 1e-8  # eigenvalues at most HARMONIC_TOL * the largest count as zero
JACOBI_TOL = 1e-12  # off-diagonal max below JACOBI_TOL * scale: one more sweep, then stop
JACOBI_MAX_SWEEPS = 100


def float_array(m: Matrix, what: str) -> np.ndarray:
    """Dense float64 copy of a rational or real matrix for the stage what,
    written by one indexed assignment from the row, column and value arrays of
    its sparse rows; a rational entry beyond the doubles is OverflowOnConvert."""
    out = np.zeros((m.rows, m.cols))
    entries = m._entries
    i = np.repeat(np.arange(m.rows), [len(row) for row in entries])
    j = np.fromiter(chain.from_iterable(entries), np.intp, len(i))
    try:
        out[i, j] = np.fromiter(chain.from_iterable(map(dict.values, entries)), float, len(i))
    except OverflowError:
        raise OverflowOnConvert(f"{what}: an entry beyond the double range") from None
    return out


def require_finite(values, message: str):
    """values, unless an entry overflowed to inf or nan: then OverflowOnConvert."""
    if not np.all(np.isfinite(values)):
        raise OverflowOnConvert(message)
    return values


def _real_diff(c: CochainComplexInstance, j: int, what: str) -> np.ndarray:
    """d_j of a complex over Q or R as a float64 array, for the stage what; the
    zero map where the complex has no d_j."""
    require_real(c.field, what)
    if 0 <= j < len(c.diffs):
        return float_array(c.diffs[j], what)
    return np.zeros((c.degree_dim(j + 1), c.degree_dim(j)))


def laplacian(c: CochainComplexInstance, j: int, norm: str = "none") -> np.ndarray:
    """Degree-j Laplacian d_j^T d_j + d_{j-1} d_{j-1}^T of a complex over Q or
    R, normalized by norm ("none", "weak" or "strong", spelled exactly), as a
    symmetric float64 array; only d_j and d_{j-1} are converted to floats."""
    up = _real_diff(c, j, "laplacian")
    if not (0 <= j <= c.top_degree):
        raise DegreeOutOfRange(f"degree {j} outside 0..{c.top_degree}")
    with np.errstate(over="ignore", invalid="ignore"):
        mat = up.T @ up
        if j > 0:
            down = _real_diff(c, j - 1, "laplacian")
            mat = mat + down @ down.T
        mat = 0.5 * (mat + mat.T)
    require_finite(mat, f"degree-{j} Laplacian has non-finite entries")
    if norm == "none":
        out = mat
    elif norm == "weak":
        out = _weak_normalize(mat)
    elif norm == "strong":
        out = _strong_normalize(mat, c.dims[j])
    else:
        raise FieldMismatch(f"unknown normalization {norm!r}")
    return 0.5 * (out + out.T)


def _is_zero(eigenvalues: np.ndarray) -> np.ndarray:
    """Mask of the ascending eigenvalues at most HARMONIC_TOL times the last,
    along the last axis, so a stack of spectra is masked spectrum by spectrum."""
    return eigenvalues <= HARMONIC_TOL * eigenvalues[..., -1:]


def _weak_normalize(mat: np.ndarray) -> np.ndarray:
    """K^(1/2) L K^(1/2) with K the pseudo-inverse of diag(L), zeros mapped to 1."""
    diag = np.diag(mat).copy()
    with np.errstate(over="ignore"):
        k = np.where(diag != 0.0, 1.0 / np.where(diag != 0.0, diag, 1.0), 1.0)
    half = np.sqrt(require_finite(k, "weak normalization: 1/diag(L) beyond the double range"))
    return mat * np.outer(half, half)


def _strong_normalize(mat: np.ndarray, blocks: list[int]) -> np.ndarray:
    """Blockwise diagonalization then pseudo-inverse scaling, zeros mapped to 1.
    The stalk blocks of one size are solved as one stack by one ``_eigh``."""
    n = mat.shape[0]
    q = np.eye(n)
    scale = np.ones(n)
    sizes = np.array(blocks, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    for size in set(blocks) - {0}:
        idx = starts[sizes == size, None] + np.arange(size)
        rows, cols = idx[:, :, None], idx[:, None, :]
        eigenvalues, vectors = _eigh(mat[rows, cols])
        q[rows, cols] = vectors
        zero = _is_zero(eigenvalues)
        with np.errstate(over="ignore"):
            scale[idx] = np.where(zero, 1.0, 1.0 / np.where(zero, 1.0, eigenvalues))
    half = np.sqrt(require_finite(scale, "strong normalization: 1/lambda beyond the double range"))
    rotated = q.T @ mat @ q
    return rotated * np.outer(half, half)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Eigenvector columns of a matrix, or of each matrix of a stack, signed
    so that each one's largest-magnitude entry, the first of any tie, is
    positive."""
    if vectors.size:
        lead = np.argmax(np.abs(vectors), axis=-2)[..., None, :]
        vectors = vectors * np.where(np.take_along_axis(vectors, lead, axis=-2) < 0, -1.0, 1.0)
    return vectors


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigensolve of a real symmetric matrix, or of each matrix of a
    stack in one call: ascending eigenvalues and orthonormal eigenvector
    columns, signed by ``_fix_signs``."""
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolve failed: {exc}") from exc
    return eigenvalues, _fix_signs(vectors)


def _rotate(m: np.ndarray, p: np.ndarray, q: np.ndarray, c: np.ndarray, s: np.ndarray):
    """Rotate the column pairs (p[k], q[k]) of m in place by cosine c[k] and
    sine s[k]; applied to ``m.T`` it rotates the rows."""
    mp, mq = m[:, p], m[:, q]
    m[:, p] = c * mp - s * mq
    m[:, q] = s * mp + c * mq


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi rotations for a real symmetric matrix, in round-robin order.

    The pivots (p, q) are paired as in a round-robin tournament, with a bye
    index for an odd order; each round rotates its disjoint pairs together,
    and the rounds of one sweep meet every pair once.  Returns ascending
    eigenvalues and the matrix whose columns are the corresponding orthonormal
    eigenvectors, signed by ``_fix_signs``.  The product path uses ``_eigh``;
    this solver is its test reference.
    """
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    work = a.astype(float).copy()
    vectors = np.eye(n)
    scale = float(np.max(np.abs(work)))
    upper = np.triu_indices(n, 1)
    # round r pairs r with m - 1, and r + i with r - i mod m - 1 for 0 < i < m / 2;
    # for an odd n, m - 1 = n is the bye index
    m = n + n % 2
    i = np.arange(1, m // 2)
    rounds = [(np.append((r + i) % (m - 1), r), np.append((r - i) % (m - 1), m - 1))
              for r in range(m - 1)]
    rounds = [(p[q < n], q[q < n]) for p, q in rounds]
    for _ in range(JACOBI_MAX_SWEEPS):
        converged = np.max(np.abs(work[upper]), initial=0.0) <= JACOBI_TOL * scale
        for p, q in rounds:
            live = work[p, q] != 0.0
            p, q = p[live], q[live]
            apq = work[p, q]
            # np.where evaluates both branches: theta = 0 reaches 0.5 / theta
            # and a huge theta squares to inf, in the branch not taken
            with np.errstate(divide="ignore", over="ignore"):
                theta = (work[q, q] - work[p, p]) / (2.0 * apq)
                t = np.where(np.abs(theta) > 1e150, 0.5 / theta, np.copysign(1.0, theta) / (
                    np.abs(theta) + np.sqrt(theta * theta + 1.0)))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            _rotate(work, p, q, c, s)
            _rotate(work.T, p, q, c, s)
            work[p, q] = work[q, p] = 0.0
            _rotate(vectors, p, q, c, s)
        if converged:  # quadratic convergence: this last sweep reaches rounding
            break
    else:
        raise NoConvergence(f"Jacobi sweeps did not converge within {JACOBI_MAX_SWEEPS}")
    eigenvalues = np.diag(work).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], _fix_signs(vectors[:, order])


@dataclass
class SpectralBundle:
    """Full symmetric spectrum: ascending eigenvalues, orthonormal eigenvector
    columns, and the harmonic bookkeeping of ``_is_zero``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    lam_min: float | None
    lam_max: float
    harmonic_dim: int

    def harmonic_projector(self) -> np.ndarray:
        h = self.eigenvectors[:, : self.harmonic_dim]
        return h @ h.T


def eigendecompose(l: np.ndarray) -> SpectralBundle:
    eigenvalues, vectors = _eigh(l)
    lam_max = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    harmonic = int(np.sum(_is_zero(eigenvalues)))
    lam_min = float(eigenvalues[harmonic]) if harmonic < eigenvalues.size else None
    return SpectralBundle(eigenvalues, vectors, lam_min, lam_max, harmonic)


def harmonic_dim(l: np.ndarray) -> int:
    """Count of the eigenvalues ``_is_zero`` marks; equals the exact Betti
    number of the originating complex in that degree."""
    return eigendecompose(l).harmonic_dim


def dirichlet_energy(c: CochainComplexInstance, x) -> float:
    """||d_0 x||^2 for a 0-cochain x of a complex over Q or R."""
    d0 = _real_diff(c, 0, "dirichlet_energy")
    x = np.asarray(x, dtype=float)
    if x.shape != (c.degree_dim(0),):
        raise DimensionMismatch(
            f"0-cochain has length {x.shape}, expected ({c.degree_dim(0)},)"
        )
    image = d0 @ x
    return float(image @ image)


@dataclass
class DiffusionTrace:
    states: list[np.ndarray]
    energies: list[float]
    distances: list[float]
    eta: float
    mode: str
    limit: np.ndarray


def default_eta(lam_max: float) -> float:
    """1 / (2 lam_max): keeps every decay factor 1 - 2*eta*lambda inside [0, 1);
    OverflowOnConvert where a subnormal lam_max sends it past the double range."""
    eta = 0.5 / lam_max if lam_max > 0 else 0.5
    return require_finite(eta, f"step size 1/(2*lambda_max) overflows at lambda_max={lam_max}")


def heat_diffusion(l: np.ndarray, x0, *, eta: float | None = None, steps: int = 100,
                   mode: str = "discrete") -> DiffusionTrace:
    """Gradient flow of the quadratic energy of the Laplacian array l.

    mode is "discrete" or "continuous", spelled exactly.  Discrete mode
    iterates x -> x - 2*eta*L x; continuous-spectral mode evaluates
    exp(-2 eta L t) x0 at unit-spaced times, with the eigenvalues that
    rounding leaves below zero taken as zero.  eta multiplies L (or the
    eigenvalues) before the exact scaling by 2, so a huge eta against a zero
    Laplacian gives 0, not inf * 0.  eta None is default_eta of the largest
    eigenvalue.  The stored limit is the orthogonal projection of x0 onto the
    harmonic subspace.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (len(l),):
        raise DimensionMismatch(f"state has shape {x0.shape}, Laplacian is {len(l)}")
    spectrum = eigendecompose(l)
    if eta is None:
        eta = default_eta(spectrum.lam_max)
    if mode not in DIFFUSION_MODES:
        raise UnstableStepSize(f"unknown diffusion mode {mode!r}")
    if not 0 < eta < math.inf:
        raise UnstableStepSize(f"step size {eta} is not positive and finite")
    if mode == "discrete" and spectrum.lam_max > 0 and eta >= 1.0 / spectrum.lam_max:
        raise UnstableStepSize(
            f"eta={eta} is not below 1/lambda_max={1.0 / spectrum.lam_max}"
        )
    states = np.empty((max(steps, 0) + 1, len(l)))
    states[0] = x0
    # the stacked products run over blocks of at most len(l) states, so no
    # scratch array outgrows the Laplacian
    block = max(len(l), 1)
    # an infinite rate decays to exp(-inf) = 0; any other overflow leaves an
    # inf or nan in an energy or a distance, and the check below rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        limit = spectrum.harmonic_projector() @ x0
        if mode == "discrete":
            operator = np.eye(len(l)) - 2.0 * (eta * l)
            for k in range(1, len(states)):
                np.matmul(operator, states[k - 1], out=states[k])
        else:
            coords = spectrum.eigenvectors.T @ x0
            log_decay = -2.0 * (eta * np.maximum(spectrum.eigenvalues, 0.0))
            for start in range(1, len(states), block):
                times = np.arange(start, min(start + block, len(states)), dtype=float)
                decay = np.exp(log_decay * times[:, None])
                states[start:start + len(times)] = np.matmul(
                    spectrum.eigenvectors, (decay * coords)[..., None])[..., 0]
        energies, distances = [], []
        for start in range(0, len(states), block):
            rows = states[start:start + block]
            energies += np.matmul(rows[:, None, :], np.matmul(l, rows[..., None])).ravel().tolist()
            gaps = rows - limit  # sqrt of each gap's dot with itself, as np.linalg.norm takes it
            distances += np.sqrt(np.matmul(gaps[:, None, :], gaps[..., None])).ravel().tolist()
    require_finite(energies + distances, "diffusion overflowed: non-finite energy or distance")
    return DiffusionTrace(list(states), energies, distances, eta, mode, limit)


def convergence_rate(trace: DiffusionTrace, spectrum: SpectralBundle) -> float:
    """Least-squares decay ratio of the tail half of the distance sequence.

    For discrete traces of a generic start the estimate approaches
    |1 - 2 eta lambda_min|; continuous traces approach exp(-2 eta lambda_min).
    """
    n = len(trace.distances)
    if n < 10:
        raise TraceTooShort(f"trace has {n} distances, need at least 10")
    start_norm = trace.distances[0]
    scale = float(np.linalg.norm(trace.states[0]))
    if start_norm <= 1e-12 * scale:
        raise DegenerateInitialState("initial state is already harmonic")
    if spectrum.lam_min is not None:
        lam = spectrum.eigenvalues
        mask = np.abs(lam - spectrum.lam_min) <= 1e-9 * spectrum.lam_max
        component = spectrum.eigenvectors[:, mask].T @ (
            trace.states[0] - trace.limit
        )
        if float(np.linalg.norm(component)) <= 1e-12 * scale:
            raise DegenerateInitialState(
                "initial state has no component on the slowest mode"
            )
    tail = trace.distances[n // 2:]
    # float cancellation floors the distances; points below the floor carry no
    # decay information and would bias the slope toward zero
    noise_floor = max(1e-300, 1e-13 * start_norm)
    kept = [(float(n // 2 + i), math.log(dk)) for i, dk in enumerate(tail) if dk > noise_floor]
    if len(kept) < 2:
        return 0.0
    ks, logs = zip(*kept)
    return math.exp(float(np.polyfit(ks, logs, 1)[0]))


# ---------------------------------------------------------------------------
# Hypergraph energies (two-layer posets).
# ---------------------------------------------------------------------------

def _hyperedge_images(h: Sheaf, x, what: str) -> Iterator[tuple[slice, np.ndarray, list[np.ndarray]]]:
    """Walk the hyperedges of a two-layer sheaf over Q or R for the stage what:
    for each maximal b with members, yield the slice of x_b in the cochain x,
    x_b itself, and the images f_ab(x_a) of its members.  Every cover must run
    from a minimal element straight to a maximal one."""
    require_real(h.field, what)
    p = h.poset
    tops = set(p.maximal_elements())
    bottoms = set(p.minimal_elements())
    if any(a not in bottoms or b not in tops for a, b in p.hasse_edges()):
        raise NotTwoLayer("poset is not a two-layer vertex/hyperedge poset")
    _, offsets, total = stalk_layout(h)
    x = np.asarray(x, dtype=float)
    if x.shape != (total,):
        raise DimensionMismatch(f"cochain has shape {x.shape}, expected ({total},)")
    stalks = {e: slice(offsets[e], offsets[e] + h.stalk(e)) for e in offsets}
    for b in p.maximal_elements():
        members = p.covered_by(b)
        if members:
            yield stalks[b], x[stalks[b]], [
                float_array(h.edge_map[(a, b)], what) @ x[stalks[a]] for a in members
            ]


def hypergraph_energy_forms(h: Sheaf, x) -> tuple[float, float]:
    """The two Dirichlet energies of a sheaf on a hypergraph poset.

    q_roos sums ||x_b - f_ab(x_a)||^2 over incidences; q_pairwise is the
    barycentric pairwise form (1/|A_b|) sum over unordered pairs of
    ||f_a'b(x_a') - f_a''b(x_a'')||^2.  The two agree when every hyperedge
    value sits at the barycenter of its incoming images.
    """
    q_roos = 0.0
    q_pairwise = 0.0
    for _, xb, images in _hyperedge_images(h, x, "hypergraph_energy_forms"):
        for img in images:
            diff = xb - img
            q_roos += float(diff @ diff)
        k = len(images)
        pair_sum = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                diff = images[i] - images[j]
                pair_sum += float(diff @ diff)
        q_pairwise += pair_sum / k
    return q_roos, q_pairwise


def hyperedge_barycenters(h: Sheaf, x) -> np.ndarray:
    """Copy of x with every hyperedge value replaced by the barycenter of its
    incoming images; at this assignment the two energy forms coincide."""
    out = np.array(x, dtype=float)
    for b, _, images in _hyperedge_images(h, x, "hyperedge_barycenters"):
        out[b] = sum(images) / len(images)
    return out


# ---------------------------------------------------------------------------
# The minimal complex of a sheaf over Q or R.
# ---------------------------------------------------------------------------

def real_sheaf_complex(sheaf: Sheaf) -> CochainComplexInstance:
    """Minimal complex of a sheaf over Q or R.

    The incidence data depends only on the poset, so it is computed over the
    rationals; the sheaf's structure maps may already be floats.
    """
    require_real(sheaf.field, "real_sheaf_complex")
    return minimal_complex(sheaf, minimal_incidence(sheaf.poset, QQ))
