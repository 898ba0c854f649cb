"""Sheaf diffusion operator on graph posets, the neural-sheaf-diffusion
forward pass, and a small smooth-signal sheaf learner.

The learner descends the smoothness loss sum_s ||d_0 x_s||^2 with its
closed-form gradient, evaluated as einsums on an (edges, 2, d, d) tensor of
edge maps over vertex index arrays fixed once per run, as in Hansen and
Ghrist, "Learning sheaf Laplacians from smooth signals" (ICASSP 2019).  Its
trial steps are two-point (Barzilai and Borwein, "Two-point step size
gradient methods", 1988) behind a halving line search.  ``graph_coboundary``
and ``finite_difference_gradient`` are the independent references its tests
hold the loss and gradient to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionMismatch, EmptySignalSet, NotTwoLayer, ShapeMismatch, brief
from .linalg import RR, Matrix
from .poset import Poset
from .sheaf import Sheaf, build_sheaf
from .spectral import (NORMALIZATIONS, default_eta, eigendecompose, float_array, laplacian,
                       real_sheaf_complex, require_finite)

MAX_HALVINGS = 20  # learning-rate halvings tried before the learner stops
FD_STEP = 1e-6  # relative step of finite_difference_gradient


def _graph_structure(p: Poset) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Vertices (topo order) and edges as (edge, u, v) with u before v in topo
    order; raises unless the poset is the cell poset of a simple graph."""
    vertices, edges = [], []
    for e in p.topo_order:
        i = p._index[e]
        ends = p._pred[i]
        if not ends:
            vertices.append(e)
        elif len(ends) != 2 or p._succ[i]:
            raise NotTwoLayer(f"element {brief(repr(e))} is not an edge over two vertices")
        else:
            edges.append((e, *sorted([p.elements[j] for j in ends], key=p._topo_pos.get)))
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
        f_u, f_v = (float_array(s.edge_map[(w, e)], "graph_coboundary") for w in (u, v))
        d0[r:r + de, v_off[u]:v_off[u] + s.stalk(u)] = f_u
        d0[r:r + de, v_off[v]:v_off[v] + s.stalk(v)] -= f_v
        r += de
    return d0, vertices


def sheaf_diffusion_op(s: Sheaf, eta: float | None = None,
                       norm: str = "none") -> np.ndarray:
    """Generator of discrete heat diffusion: the dense matrix I - 2*eta*L_0,
    with L_0 the degree-0 Laplacian array of the sheaf's minimal complex."""
    _graph_structure(s.poset)  # NSD is defined on graph posets only
    lap = laplacian(real_sheaf_complex(s), 0, norm)
    if eta is None:
        eta = default_eta(eigendecompose(lap).lam_max)
    if eta < 0:
        raise DimensionMismatch("step size must be nonnegative")
    with np.errstate(over="ignore"):
        step = require_finite(2.0 * (eta * lap), f"eta={brief(str(eta))} overflows 2*eta*L_0")
    return np.eye(len(lap)) - step


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-z) = inf saturates to 0
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
        if self.norm not in NORMALIZATIONS:
            raise ShapeMismatch(f"unknown normalization {brief(repr(self.norm))}")


def nsd_forward(layer: NsdLayer, features: np.ndarray) -> np.ndarray:
    """sigma( sd_D . (blockwise W1 applied to X) . W2 ) with the logistic sigma."""
    x = np.asarray(features, dtype=float)
    nd = layer.n * layer.d
    if x.ndim != 2 or x.shape[0] != nd or x.shape[1] != layer.w2.shape[0]:
        raise ShapeMismatch(
            f"features must be ({nd}, {layer.w2.shape[0]}), got {x.shape}"
        )
    operator = sheaf_diffusion_op(layer.sheaf, layer.eta, layer.norm)
    with np.errstate(over="ignore", invalid="ignore"):
        blocked = (layer.w1 @ x.reshape(layer.n, layer.d, x.shape[1])).reshape(x.shape)
        z = require_finite(operator @ blocked @ layer.w2, "NSD pre-activations overflowed")
    return _sigmoid(z)


def nsd_stack(layers: list[NsdLayer], features: np.ndarray) -> np.ndarray:
    """Left-to-right composition of forward passes; the empty stack is identity."""
    out = np.asarray(features, dtype=float)
    for layer in layers:
        out = nsd_forward(layer, out)
    return out


# ---------------------------------------------------------------------------
# Sheaf learning from smooth signals.
# ---------------------------------------------------------------------------

@dataclass
class LearnResult:
    sheaf: Sheaf
    loss_history: list[float] = dc_field(default_factory=list)


def finite_difference_gradient(fn, x: np.ndarray) -> np.ndarray:
    """Central finite differences with per-coordinate step FD_STEP*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        h = FD_STEP * (1.0 + abs(x[i]))
        bumped = x.copy()
        bumped[i] = x[i] + h
        up = fn(bumped)
        bumped[i] = x[i] - h
        down = fn(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def _endpoint_signals(p: Poset, signals: list[np.ndarray],
                      d: int) -> tuple[list[tuple[str, str, str]], np.ndarray, np.ndarray]:
    """The edges (e, u, v) of a graph poset and, for signals on its vertex
    stalks of dimension d, the arrays xu[s, k] = x_(s,u) and xv[s, k] = x_(s,v)
    over the k-th edge."""
    vertices, edges = _graph_structure(p)
    expected = d * len(vertices)
    for sig in signals:
        if sig.shape != (expected,):
            raise DimensionMismatch(
                f"signal has shape {sig.shape}, expected ({expected},)"
            )
    x = np.stack(signals).reshape(len(signals), len(vertices), d)
    position = {v: i for i, v in enumerate(vertices)}
    xu = x[:, [position[u] for (_, u, _) in edges]]
    xv = x[:, [position[v] for (_, _, v) in edges]]
    return edges, xu, xv


def _residuals(theta: np.ndarray, xu: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """r[s, e] = A_e x_(s,u) - B_e x_(s,v): edge e's block of d_0 x_s, for
    theta[e] = (A_e, B_e) = (F_(u,e), F_(v,e)) and x_(s,u) = xu[s, e]."""
    return (np.einsum("eij,sej->sei", theta[:, 0], xu)
            - np.einsum("eij,sej->sei", theta[:, 1], xv))


def _loss_gradient(r: np.ndarray, xu: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """Gradient in theta of sum ||r||^2: 2 sum_s r x_u^T for A_e and
    -2 sum_s r x_v^T for B_e."""
    return np.stack((2.0 * np.einsum("sei,sej->eij", r, xu),
                     -2.0 * np.einsum("sei,sej->eij", r, xv)), axis=1)


def _project(theta: np.ndarray) -> np.ndarray:
    """Scale every edge map to unit Frobenius norm; a zero map becomes the
    matrix unit E_11.

    Each map is first divided by the power of two at its largest absolute
    entry, so its squares can neither overflow nor all underflow.  A power of
    two scales exactly: wherever the plain squares and their sum stay normal
    floats, the result is the same bit for bit."""
    _, exponent = np.frexp(abs(theta).max(axis=(2, 3), keepdims=True))
    theta = np.ldexp(theta, -exponent)
    norms = np.sqrt(np.sum(theta * theta, axis=(2, 3), keepdims=True))
    out = theta / np.where(norms > 0, norms, 1.0)
    out[..., 0, 0] += norms[..., 0, 0] == 0
    return out


def _trial_steps(theta: np.ndarray, grad: np.ndarray,
                 last: tuple[np.ndarray, np.ndarray] | None, lr_step: float) -> list[float]:
    """The trial steps a line search starts from, in order: the two-point
    length <s, s>/<s, y>, for s = theta - last[0] and y = grad - last[1] with
    last the previous accepted parameters and their gradient, where last is
    given, <s, y> > 0 and the length is finite; then lr_step."""
    if last is not None:
        s, y = theta - last[0], grad - last[1]
        sy = float(np.sum(s * y))
        two_point = float(np.sum(s * s)) / sy if sy > 0 else math.inf
        if math.isfinite(two_point):
            return [two_point, lr_step]
    return [lr_step]


def _halving_search(theta: np.ndarray, grad: np.ndarray, step: float, current: float,
                    xu: np.ndarray, xv: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The first of the trial steps step, step/2, ..., step/2^MAX_HALVINGS
    along -grad whose projected parameters lower the loss below current, as
    (parameters, residuals, loss); None where every one is rejected."""
    for _ in range(MAX_HALVINGS + 1):
        candidate = _project(theta - step * grad)
        r = _residuals(candidate, xu, xv)
        loss = float(np.sum(r * r))
        if loss < current:
            return candidate, r, loss
        step *= 0.5
    return None


def learn_sheaf(p: Poset, signals, *, lr: float = 4.0, iters: int = 100, d: int = 1,
                seed: int = 0) -> LearnResult:
    """Gradient descent on all edge-map entries with the closed-form gradient
    of the smoothness loss sum_s ||d_0 x_s||^2, and a per-edge
    unit-Frobenius-norm projection after each step.

    From the second step on, the trial step that starts each halving line
    search is the two-point length <s, s>/<s, y> of Barzilai and Borwein
    ("Two-point step size gradient methods", 1988), with s and y the
    differences of the last two accepted parameters and of their gradients.
    lr scales the trial step lr * loss/||grad||^2 taken instead for the first
    step, wherever <s, y> <= 0 or the two-point length is not finite, and
    once more wherever every halving of a two-point trial is rejected, so the
    learner stops only where that rule finds no step either.  iters bounds
    accepted descent steps; d is the stalk dimension.  The initial maps are
    drawn from seed.

    The parameters form an (edges, 2, d, d) tensor theta[e] = (F_(u,e),
    F_(v,e)) in the edge order of the graph poset; the sheaf is built once,
    from the final parameters.  Steps that would increase the loss, or whose
    parameters overflow, halve the trial step (up to MAX_HALVINGS times);
    the recorded history contains accepted losses only and is non-increasing
    by construction.  The descent runs on the signals divided by 2^k, k the
    binary exponent of their largest entry: that is exact, so every step and
    map is the raw signals' and every loss 4^-k times theirs.  The stopping
    tests and the history use the raw losses; a history beyond the floats
    raises OverflowOnConvert.

    The initial draw is left unprojected on purpose: projecting a d=1 draw
    collapses it onto {-1, +1} and a symmetric gradient could never separate
    the two maps of an edge afterwards.  The accepted-loss bookkeeping lives on
    the projected states; the raw draw only seeds the first step.
    """
    signals = [np.asarray(sig, dtype=float) for sig in signals]
    if not signals:
        raise EmptySignalSet("need at least one signal")
    if d < 1:
        raise DimensionMismatch(f"stalk dimension {d} is below 1")
    rng = np.random.default_rng(seed)
    edges, xu, xv = _endpoint_signals(p, signals, d)
    _, k = np.frexp(max(abs(xu).max(initial=0.0), abs(xv).max(initial=0.0)))
    xu, xv = np.ldexp(xu, -k), np.ldexp(xv, -k)
    theta = rng.standard_normal((len(edges), 2, d, d))
    r = _residuals(theta, xu, xv)
    # a step too large for floats leaves non-finite entries and a nan loss,
    # which the comparison rejects as it does a loss increase
    with np.errstate(over="ignore", invalid="ignore"):
        current = float(np.sum(_residuals(_project(theta), xu, xv) ** 2))
        history = [current]
        last = None  # the previous accepted iterate and the gradient there
        for _ in range(iters):
            if np.ldexp(current, 2 * k) <= 1e-18:
                break
            grad = _loss_gradient(r, xu, xv)
            grad_sq = float(np.sum(grad * grad))
            if np.ldexp(grad_sq, 4 * k) <= 1e-30:
                break
            for step in _trial_steps(theta, grad, last, lr * float(np.sum(r * r)) / grad_sq):
                found = _halving_search(theta, grad, step, current, xu, xv)
                if found is not None:
                    break
            else:
                break
            last = theta, grad
            theta, r, current = found
            history.append(current)
        history = require_finite(np.ldexp(history, 2 * k), "the loss overflows").tolist()
    if len(history) == 1:
        theta = _project(theta)
    assert all(b <= a for a, b in zip(history, history[1:])), "loss history regressed"
    maps = {}
    for (e, u, v), (a, b) in zip(edges, theta):
        maps[(u, e)] = Matrix(d, d, a.tolist(), RR)
        maps[(v, e)] = Matrix(d, d, b.tolist(), RR)
    return LearnResult(build_sheaf(p, {e: d for e in p.elements}, maps, RR), history)
