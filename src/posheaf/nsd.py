"""Sheaf diffusion operator on graph posets, the neural-sheaf-diffusion
forward pass, an independent GCN oracle, and a small smooth-signal sheaf
learner driven by finite differences.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySignalSet,
    NotTwoLayer,
    ShapeMismatch,
)
from .linalg import RR, Matrix
from .poset import Poset
from .sheaf import Sheaf, build_sheaf
from .spectral import (NORMALIZATIONS, default_eta, float_array, jacobi_eigh, laplacian,
                       real_sheaf_complex)

SEED_ENV = "POSHEAF_SEED"


def _graph_structure(p: Poset) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Vertices (topo order) and edges as (edge, u, v) with u before v in topo
    order; raises unless the poset is the cell poset of a simple graph."""
    vertices = [e for e in p.topo_order if not p.covered_by(e)]
    vertex_set = set(vertices)
    edges = []
    for e in p.topo_order:
        if e in vertex_set:
            continue
        ends = p.covered_by(e)
        if len(ends) != 2 or p.covers_of(e):
            raise NotTwoLayer(f"element {e!r} is not an edge over two vertices")
        edges.append((e, ends[0], ends[1]))
    return vertices, edges


def graph_coboundary(s: Sheaf) -> tuple[np.ndarray, list[str]]:
    """Vertex-to-edge coboundary with the alternating sign convention
    f_(u,e) x_u - f_(v,e) x_v; returns the matrix and the vertex layout."""
    vertices, edges = _graph_structure(s.poset)
    v_off = {}
    total = 0
    for v in vertices:
        v_off[v] = total
        total += s.stalk(v)
    rows = sum(s.stalk(e) for (e, _, _) in edges)
    d0 = np.zeros((rows, total))
    r = 0
    for (e, u, v) in edges:
        de = s.stalk(e)
        d0[r:r + de, v_off[u]:v_off[u] + s.stalk(u)] = float_array(s.edge_map[(u, e)])
        d0[r:r + de, v_off[v]:v_off[v] + s.stalk(v)] -= float_array(s.edge_map[(v, e)])
        r += de
    return d0, vertices


def sheaf_diffusion_op(s: Sheaf, eta: float | None = None,
                       norm: str = "none") -> np.ndarray:
    """Generator of discrete heat diffusion: the dense matrix I - 2*eta*L_0,
    with L_0 the degree-0 Laplacian of the sheaf's minimal complex."""
    _graph_structure(s.poset)  # NSD is defined on graph posets only
    mat = laplacian(real_sheaf_complex(s), 0, norm).matrix
    if eta is None:
        eigenvalues, _ = jacobi_eigh(mat)
        eta = default_eta(float(eigenvalues[-1]) if eigenvalues.size else 0.0)
    if eta < 0:
        raise DimensionMismatch("step size must be nonnegative")
    return np.eye(mat.shape[0]) - 2.0 * eta * mat


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class NsdLayer:
    """One neural-sheaf-diffusion layer over a graph sheaf with uniform vertex
    stalk dimension d: channel features are mixed by W2, stalks by W1."""

    sheaf: Sheaf
    w1: np.ndarray
    w2: np.ndarray
    eta: float | None = None
    norm: str = "weak"

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=float)
        self.w2 = np.asarray(self.w2, dtype=float)
        vertices, _ = _graph_structure(self.sheaf.poset)
        dims = {self.sheaf.stalk(v) for v in vertices}
        if len(dims) != 1:
            raise ShapeMismatch("vertex stalk dimensions are not uniform")
        self.d = dims.pop()
        self.n = len(vertices)
        if self.w1.shape != (self.d, self.d):
            raise ShapeMismatch(f"W1 must be {self.d}x{self.d}")
        if self.w2.ndim != 2:
            raise ShapeMismatch("W2 must be a matrix")
        if not isinstance(self.norm, str) or self.norm.lower() not in NORMALIZATIONS:
            raise ShapeMismatch(f"unknown normalization {self.norm!r}")


def nsd_forward(layer: NsdLayer, features: np.ndarray) -> np.ndarray:
    """sigma( sd_D . (blockwise W1 applied to X) . W2 ) with the logistic sigma."""
    x = np.asarray(features, dtype=float)
    nd = layer.n * layer.d
    if x.ndim != 2 or x.shape[0] != nd or x.shape[1] != layer.w2.shape[0]:
        raise ShapeMismatch(
            f"features must be ({nd}, {layer.w2.shape[0]}), got {x.shape}"
        )
    operator = sheaf_diffusion_op(layer.sheaf, layer.eta, layer.norm)
    blocked = np.kron(np.eye(layer.n), layer.w1) @ x
    return _sigmoid(operator @ blocked @ layer.w2)


def nsd_stack(layers: list[NsdLayer], features: np.ndarray) -> np.ndarray:
    """Left-to-right composition of forward passes; the empty stack is identity."""
    out = np.asarray(features, dtype=float)
    for layer in layers:
        out = nsd_forward(layer, out)
    return out


def gcn_forward_oracle(p: Poset, features: np.ndarray, w2: np.ndarray,
                       eta: float | None = None, norm: str = "weak") -> np.ndarray:
    """Independent graph-convolution layer: sigma((I - 2*eta*L) X W2) with the
    graph Laplacian assembled directly from adjacency and degrees.

    Test oracle only; shares no code with the sheaf path.
    """
    vertices = [e for e in p.topo_order if not p.covered_by(e)]
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    adjacency = np.zeros((n, n))
    for e in p.topo_order:
        if e in index:
            continue
        ends = p.covered_by(e)
        if len(ends) != 2:
            raise NotTwoLayer(f"element {e!r} is not a graph edge")
        i, j = index[ends[0]], index[ends[1]]
        adjacency[i, j] += 1.0
        adjacency[j, i] += 1.0
    degrees = adjacency.sum(axis=1)
    lap = np.diag(degrees) - adjacency
    norm = norm.lower()
    if norm in ("weak", "strong"):
        # for 1x1 stalk blocks the stalk-wise normalization equals the
        # coordinate-wise one
        k = np.where(degrees != 0.0, 1.0 / np.where(degrees != 0.0, degrees, 1.0), 1.0)
        half = np.sqrt(k)
        lap = lap * np.outer(half, half)
    elif norm != "none":
        raise ShapeMismatch(f"unknown normalization {norm!r}")
    lap = 0.5 * (lap + lap.T)
    if eta is None:
        lam_max = float(np.linalg.eigvalsh(lap)[-1]) if n else 0.0
        eta = 0.5 / lam_max if lam_max > 0 else 0.5
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] != n:
        raise ShapeMismatch(f"features must have {n} rows")
    operator = np.eye(n) - 2.0 * eta * lap
    return _sigmoid(operator @ x @ np.asarray(w2, dtype=float))


# ---------------------------------------------------------------------------
# Sheaf learning from smooth signals.
# ---------------------------------------------------------------------------

@dataclass
class LearnConfig:
    """lr scales the trial step loss/||grad||^2 that starts each halving line
    search; iters bounds accepted descent steps."""

    lr: float = 4.0
    iters: int = 100
    d: int = 1
    seed: int | None = None
    fd_step: float = 1e-6
    max_halvings: int = 20


@dataclass
class LearnResult:
    sheaf: Sheaf
    loss_history: list[float] = dc_field(default_factory=list)


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


class _EdgeParams:
    """Flat parameter vector over all edge maps of a graph sheaf with stalk
    dimension d on vertices and edges.

    The initial draw is left unprojected on purpose: projecting a d=1 draw
    collapses it onto {-1, +1} and a symmetric gradient could never separate
    the two maps of an edge afterwards.  Projection happens after each
    accepted descent step instead.
    """

    def __init__(self, p: Poset, d: int, rng: np.random.Generator):
        self.poset = p
        self.d = d
        vertices, edges = _graph_structure(p)
        self.pairs = []
        for (e, u, v) in edges:
            self.pairs.append((u, e))
            self.pairs.append((v, e))
        self.theta = rng.standard_normal(len(self.pairs) * d * d)

    def _project(self):
        """Scale every edge map to unit Frobenius norm."""
        dd = self.d * self.d
        for k in range(len(self.pairs)):
            block = self.theta[k * dd:(k + 1) * dd]
            norm = float(np.linalg.norm(block))
            if norm > 0:
                block /= norm
            else:
                block[0] = 1.0

    def to_sheaf(self) -> Sheaf:
        dd = self.d * self.d
        stalks = {e: self.d for e in self.poset.elements}
        maps = {}
        for k, (a, b) in enumerate(self.pairs):
            block = self.theta[k * dd:(k + 1) * dd].reshape(self.d, self.d)
            maps[(a, b)] = Matrix(self.d, self.d, block.tolist(), RR)
        return build_sheaf(self.poset, stalks, maps, RR)


def finite_difference_gradient(fn, x: np.ndarray, h_scale: float = 1e-6) -> np.ndarray:
    """Central finite differences with per-coordinate step h_scale*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        h = h_scale * (1.0 + abs(x[i]))
        bumped = x.copy()
        bumped[i] = x[i] + h
        up = fn(bumped)
        bumped[i] = x[i] - h
        down = fn(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def _signals_loss(params: _EdgeParams, signals: list[np.ndarray]) -> float:
    d0, _ = graph_coboundary(params.to_sheaf())
    total = 0.0
    for sig in signals:
        image = d0 @ sig
        total += float(image @ image)
    return total


def learn_sheaf(p: Poset, signals, cfg: LearnConfig | None = None) -> LearnResult:
    """Finite-difference gradient descent on all edge-map entries, with a
    per-edge unit-Frobenius-norm projection after each step.

    Steps that would increase the smoothness loss halve the learning rate (up
    to cfg.max_halvings); the recorded history contains accepted losses only
    and is non-increasing by construction.
    """
    cfg = cfg or LearnConfig()
    signals = [np.asarray(sig, dtype=float) for sig in signals]
    if not signals:
        raise EmptySignalSet("need at least one signal")
    if cfg.d < 1:
        raise DimensionMismatch(f"stalk dimension {cfg.d} is below 1")
    rng = np.random.default_rng(_resolve_seed(cfg.seed))
    params = _EdgeParams(p, cfg.d, rng)
    vertices, _ = _graph_structure(p)
    expected = cfg.d * len(vertices)
    for sig in signals:
        if sig.shape != (expected,):
            raise DimensionMismatch(
                f"signal has shape {sig.shape}, expected ({expected},)"
            )

    def loss_at(theta: np.ndarray) -> float:
        saved = params.theta
        params.theta = theta.copy()
        value = _signals_loss(params, signals)
        params.theta = saved
        return value

    def projected(theta: np.ndarray) -> np.ndarray:
        saved = params.theta
        params.theta = theta.copy()
        params._project()
        out = params.theta
        params.theta = saved
        return out

    # the accepted-loss bookkeeping lives on the unit-normalized states; the
    # raw draw only seeds the first gradient so that projection cannot lock
    # d=1 sign pairs before the descent even starts
    current = loss_at(projected(params.theta))
    history = [current]
    for _ in range(cfg.iters):
        if current <= 1e-18:
            break
        grad = finite_difference_gradient(loss_at, params.theta, cfg.fd_step)
        grad_sq = float(grad @ grad)
        if grad_sq <= 1e-30:
            break
        lr = cfg.lr * loss_at(params.theta) / grad_sq
        accepted = False
        halvings = 0
        while halvings <= cfg.max_halvings:
            candidate = projected(params.theta - lr * grad)
            new_loss = loss_at(candidate)
            if new_loss < current:
                params.theta = candidate
                current = new_loss
                history.append(current)
                accepted = True
                break
            lr *= 0.5
            halvings += 1
        if not accepted:
            break
    if history[0] <= 1e-18:
        params._project()
    assert all(b <= a for a, b in zip(history, history[1:])), "loss history regressed"
    return LearnResult(params.to_sheaf(), history)
