"""Shared test utilities: random posets and compositional sheaves, plus
independent brute-force oracles (chain enumeration, Bareiss ranks, union-find)
that deliberately avoid the library's own elimination code.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import itertools
import math
import os
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from posheaf import cochain, linalg
from posheaf.cli import _COUNT, _POSITIVE_FINITE, _POSITIVE_INT
from posheaf.errors import NotAComplex, NotTwoLayer, ShapeMismatch
from posheaf.linalg import PRIME, Matrix, QQ, RR
from posheaf.poset import (
    Poset,
    RedundantCoversWarning,
    build_poset,
    decode_simplicial_elements,
    order_complex,
    simplicial_complex_poset,
)
from posheaf.sheaf import Sheaf, build_sheaf, constant_sheaf, cycle_poset


ROOT = Path(__file__).resolve().parent.parent


def seed_shift() -> int:
    """POSHEAF_SEED, the shift every randomized test adds to its seeds (0
    where unset).  It shifts the test suite only: the product reads no
    environment variable."""
    return int(os.environ.get("POSHEAF_SEED", "0") or "0")


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator from seed shifted by ``seed_shift()``."""
    return np.random.default_rng(seed + seed_shift())


# ---------------------------------------------------------------------------
# Independent oracles.
# ---------------------------------------------------------------------------

def scalar_ops(field):
    """(add, sub, mul, div) on the scalars of field, written apart from the
    library's kernels: residues are reduced after each operation, a residue's
    inverse comes from Fermat's little theorem, and a rational quotient is a
    Fraction's, so it stays exact when both scalars are plain ints."""
    p = field.p
    if p is None:
        div = (lambda a, b: Fraction(a) / b) if field == QQ else (lambda a, b: a / b)
        return (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, div)
    return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
            lambda a, b: a * b % p, lambda a, b: a * pow(b, p - 2, p) % p)


def strict_upper(p: Poset, s: str) -> list[str]:
    """Elements strictly above s in p, in topo order, read from the strict
    down-sets."""
    i = p.index(s)
    return [e for e in p.topo_order if i in p._down[p.index(e)]]


def closure_pairs(p: Poset) -> set[tuple[str, str]]:
    """Every comparable pair (a, b) with a < b in p."""
    return {(a, b) for a in p.elements for b in strict_upper(p, a)}


def poset_reference(elements: list[str], pairs: list[tuple[str, str]]) -> dict:
    """What ``build_poset`` should make of acyclic input, found apart from it:
    strict up-sets by depth-first search from each element, Kahn's order with
    the least declaration index taken first by scanning, the covers as the
    input pairs with no element strictly between, ordered by declaration
    index (a, then b), and whether any input pair was transitive."""
    position = {e: i for i, e in enumerate(elements)}
    successors = {e: [b for a, b in pairs if a == e] for e in elements}
    up: dict[str, set[str]] = {}
    for start in elements:
        seen: set[str] = set()
        stack = list(successors[start])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(successors[v])
        up[start] = seen
    down = {e: {a for a in elements if e in up[a]} for e in elements}
    topo: list[str] = []
    placed: set[str] = set()
    while len(topo) < len(elements):
        topo.append(next(e for e in elements if e not in placed
                         and all(a in placed for a, b in pairs if b == e)))
        placed.add(topo[-1])
    covers = sorted({(a, b) for a, b in pairs if not up[a] & down[b]},
                    key=lambda ab: (position[ab[0]], position[ab[1]]))
    return {"covers": tuple(covers), "topo_order": tuple(topo), "up": up, "down": down,
            "redundant": any(up[a] & down[b] for a, b in pairs)}


def brute_force_chains(p: Poset) -> list[tuple[str, ...]]:
    """Every chain of the poset, found by filtering all element subsets, with
    comparability read from the depth-first closure of its covers."""
    up = poset_reference(list(p.elements), list(p.covers))["up"]
    chains = []
    elements = list(p.topo_order)
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            if all(b in up[a] for a, b in zip(combo, combo[1:])):
                chains.append(combo)
    return chains


def bareiss_rank(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss elimination rank of an integer matrix."""
    m = [row[:] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def integer_rows(rows) -> list[list[int]]:
    """Scale each rational row by its common denominator (rank is unchanged)."""
    out = []
    for row in rows:
        den = math.lcm(*(Fraction(x).denominator for x in row)) if row else 1
        out.append([int(Fraction(x) * den) for x in row])
    return out


def reduced_betti_oracle(p: Poset) -> dict[int, int]:
    """Reduced rational Betti numbers of the order complex of p, via chain
    enumeration and Bareiss ranks only.  Degree -1 included (empty poset)."""
    chains = brute_force_chains(p)
    by_dim: dict[int, list[tuple[str, ...]]] = {}
    for chain in chains:
        by_dim.setdefault(len(chain) - 1, []).append(chain)
    top = max(by_dim) if by_dim else -1
    index = {d: {c: i for i, c in enumerate(by_dim.get(d, []))} for d in range(top + 1)}

    def boundary(dim: int) -> list[list[int]]:
        # rows: (dim-1)-chains (or the single augmentation row when dim == 0)
        cols = by_dim.get(dim, [])
        if dim == 0:
            return [[1] * len(cols)]
        rows = by_dim.get(dim - 1, [])
        mat = [[0] * len(cols) for _ in rows]
        for j, chain in enumerate(cols):
            for i in range(len(chain)):
                face = chain[:i] + chain[i + 1:]
                mat[index[dim - 1][face]][j] = 1 if i % 2 == 0 else -1
        return mat

    betti: dict[int, int] = {}
    ranks = {d: bareiss_rank(boundary(d)) for d in range(top + 1)}
    n_cells = {d: len(by_dim.get(d, [])) for d in range(-1, top + 2)}
    n_cells[-1] = 1
    for d in range(-1, top + 1):
        rank_d = ranks.get(d, 0) if d >= 0 else 0
        rank_up = ranks.get(d + 1, 0)
        betti_d = n_cells.get(d, 0) - rank_d - rank_up
        if betti_d:
            betti[d] = betti_d
    return betti


def dense_rref_oracle(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Dense column-by-column Gauss-Jordan elimination: the reduced row
    echelon form, pivot columns and rank that ``linalg.rref`` must reproduce."""
    f = m.field
    _, sub, mul, div = scalar_ops(f)
    a = [row[:] for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
        pv = a[r][c]
        if pv != f.one():
            inv_row = a[r]
            for j in range(c, ncols):
                if inv_row[j]:
                    inv_row[j] = div(inv_row[j], pv)
        prow = a[r]
        for i in range(nrows):
            if i == r:
                continue
            factor = a[i][c]
            if factor:
                row = a[i]
                for j in range(c, ncols):
                    pj = prow[j]
                    if pj:
                        row[j] = sub(row[j], mul(factor, pj))
        pivots.append(c)
        r += 1
    return Matrix(nrows, ncols, a, f), pivots, len(pivots)


def dense_kernel_oracle(m: Matrix) -> list[list]:
    """Dense basis of the right null space of m in RREF free-variable form,
    read off ``dense_rref_oracle``: one vector per non-pivot column f, in
    increasing f, with 1 at f and minus row r's entry in column f at the
    pivot column of row r."""
    _, sub, _, _ = scalar_ops(m.field)
    zero, one = m.field.zero(), m.field.one()
    red, pivots, _ = dense_rref_oracle(m)
    kernel = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = [zero] * m.cols
        vec[free] = one
        for pc, row in zip(pivots, red.data):
            vec[pc] = sub(zero, row[free])
        kernel.append(vec)
    return kernel


def homology_basis_reference(diffs: list[Matrix], dims: list[int], field) -> list[list[list]]:
    """Dense homology representatives by the rule ``linalg.homology_basis``
    states, built on ``dense_rref_oracle``: per degree, the kernel of the
    outgoing differential in RREF free-variable form, each vector reduced
    modulo the RREF of the incoming image, and kept when it makes the rank of
    the vectors kept so far grow."""
    _, sub, mul, _ = scalar_ops(field)
    out = []
    for i, n in enumerate(dims):
        kernel = dense_kernel_oracle(diffs[i] if i < len(diffs) else Matrix.zeros(0, n, field))
        image = []
        if i > 0:
            d = diffs[i - 1]
            columns = [[row[c] for row in d.data] for c in range(d.cols)]
            red, pivots, _ = dense_rref_oracle(Matrix(d.cols, n, columns, field))
            image = list(zip(pivots, red.data))
        kept: list[list] = []
        for vec in kernel:
            for pc, row in image:
                c = vec[pc]
                if c:
                    vec = [sub(x, mul(c, y)) for x, y in zip(vec, row)]
            if dense_rref_oracle(Matrix(len(kept) + 1, n, kept + [vec], field))[2] > len(kept):
                kept.append(vec)
        out.append(kept)
    return out


def d_squared_product_reference(diffs: list[Matrix]):
    """``linalg.check_d_squared`` by whole composites: each d_{j+1} . d_j is
    formed by ``Matrix.__matmul__`` (over Q on each block times the lcm of its
    denominators) and refused where it has a nonzero entry over Q or F_p, or
    where its largest entry exceeds D2_RESIDUAL_TOL * max|d_{j+1}| * max|d_j|
    over R, with the check's messages."""
    diffs = [linalg._integral(d) if d.field == QQ else d for d in diffs]
    for j in range(len(diffs) - 1):
        a, b = diffs[j + 1], diffs[j]
        residual = (a @ b)._entries
        if a.field.is_exact:
            if any(residual):
                raise NotAComplex(f"d_{j + 1} . d_{j} != 0")
        elif linalg._max_abs(residual) > linalg.D2_RESIDUAL_TOL * (
                linalg._max_abs(a._entries) * linalg._max_abs(b._entries)):
            raise NotAComplex(f"d_{j + 1} . d_{j} residual exceeds tolerance")


def unchecked_diffs(build, *args) -> list[Matrix]:
    """The differentials of the complex build(*args), assembled with cochain's
    d^2 checks switched off, so a sheaf that does not compose gives blocks
    whose composites need not vanish."""
    check = cochain.check_d_squared
    cochain.check_d_squared = lambda diffs: None
    try:
        return build(*args).diffs
    finally:
        cochain.check_d_squared = check


def _write_block(target: list[list], r0: int, c0: int, block: Matrix, scalar, field,
                 accumulate: bool = False):
    add, _, mul, _ = scalar_ops(field)
    for i, brow in enumerate(block.data):
        trow = target[r0 + i]
        for j, v in enumerate(brow):
            if not v:
                continue
            v = mul(scalar, v)
            trow[c0 + j] = add(trow[c0 + j], v) if accumulate else v


def _reference_faces(c):
    """The faces of a Roos, cellular or minimal complex as (j, r, k, source,
    target, scalar): the block scalar . D(source <= target) of d_j at row
    summand r and column summand k, in the order the constructions write
    them into each differential.  They are read apart from the library's own
    face generator: the Roos chains off order_complex, the simplices off
    decode_simplicial_elements, and the minimal faces off the incidence
    columns with the generators of each degree in gid order."""
    from posheaf.cochain import minimal_incidence

    s, f = c.sheaf, c.field
    one, minus_one = f.one(), f.coerce(-1)
    if c.kind == "roos":
        chains = order_complex(s.poset)
    elif c.kind == "cellular":
        decoded = decode_simplicial_elements(s.poset)
        by_set = {decoded[e]: e for e in s.poset.elements}
    else:
        inc = minimal_incidence(s.poset, QQ if f == RR else f)
        gids = [[g for g, (degree, _) in enumerate(inc.generators) if degree == j]
                for j in range(len(c.degrees))]
    for j in range(len(c.diffs)):
        owners = c.degrees[j + 1]
        if c.kind == "roos":
            copy = {tau: k for k, tau in enumerate(chains[j])}
            for r, sigma in enumerate(chains[j + 1]):
                for i in range(len(sigma)):
                    tau = sigma[:i] + sigma[i + 1:]
                    yield (j, r, copy[tau], tau[-1], sigma[-1],
                           one if i % 2 == 0 else minus_one)
        elif c.kind == "cellular":
            copy = {decoded[e]: k for k, e in enumerate(c.degrees[j])}
            for r, e in enumerate(owners):
                sigma = decoded[e]
                for i in range(len(sigma)):
                    tau = sigma[:i] + sigma[i + 1:]
                    yield j, r, copy[tau], by_set[tau], e, one if i % 2 == 0 else minus_one
        else:
            copy = {gid: k for k, gid in enumerate(gids[j])}
            for r, (e, row_gid) in enumerate(zip(owners, gids[j + 1])):
                for gid, scalar in inc.columns[row_gid].items():
                    if gid in copy:
                        yield j, r, copy[gid], inc.generators[gid][1], e, scalar


def _summand_offsets(c) -> list[list[int]]:
    return [[0] + list(itertools.accumulate(dims)) for dims in c.dims]


def dense_diffs_reference(c) -> list[list[list]]:
    """The differentials of a Roos, cellular or minimal complex, assembled the
    way the constructions did while matrices were stored dense: stalk-map
    blocks written into zero-filled rows (accumulated for Roos, written for
    the others).  The layout (summand owners and dimensions) is read off c,
    the faces off _reference_faces."""
    f, offsets = c.field, _summand_offsets(c)
    out = [[[f.zero()] * offsets[j][-1] for _ in range(offsets[j + 1][-1])]
           for j in range(len(c.diffs))]
    for j, r, k, source, target, scalar in _reference_faces(c):
        _write_block(out[j], offsets[j + 1][r], offsets[j][k], c.sheaf.map(source, target),
                     scalar, f, accumulate=c.kind == "roos")
    return out


def add_block_diffs_reference(c) -> list[Matrix]:
    """The differentials of a Roos, cellular or minimal complex as the sum of
    their face blocks: Matrix.zeros, then one add_block per face of
    _reference_faces, in its order.  Over R the minimal faces keep their
    Fraction scalars, which multiply a float as their float does."""
    offsets = _summand_offsets(c)
    diffs = [Matrix.zeros(offsets[j + 1][-1], offsets[j][-1], c.field)
             for j in range(len(c.diffs))]
    for j, r, k, source, target, scalar in _reference_faces(c):
        diffs[j].add_block(offsets[j + 1][r], offsets[j][k], c.sheaf.map(source, target), scalar)
    return diffs


def incidence_reference(p: Poset, field) -> tuple[list, list[dict]]:
    """Generators and boundary columns of the incidence algorithm with one
    ``homology_basis`` call per element and no memo, as ``minimal_incidence``
    ran before it kept the homology of repeated down-set complexes."""
    from posheaf.cochain import AUGMENTATION
    from posheaf.linalg import homology_basis

    degrees: list[int] = []
    owners: list[str] = []
    columns: list[dict] = []
    owned: dict[str, list[int]] = {}
    for s in p.topo_order:
        kept = sorted(gid for t in p.strict_lower(s) for gid in owned[t])
        top = max((degrees[gid] for gid in kept), default=-1)
        by_degree: list[list[int]] = [[AUGMENTATION]] + [[] for _ in range(top + 1)]
        for gid in kept:
            by_degree[degrees[gid] + 1].append(gid)
        index = {gid: i for gens in by_degree for i, gid in enumerate(gens)}
        blocks = [
            Matrix.from_columns(len(by_degree[j]), [
                {index[row]: value for row, value in columns[gid].items()}
                for gid in by_degree[j + 1]
            ], field)
            for j in range(top, -1, -1)
        ]
        reps = homology_basis(blocks, [len(gens) for gens in reversed(by_degree)], field)
        owned[s] = []
        for j, gens in enumerate(by_degree):
            for vec in reps[top + 1 - j]:
                owned[s].append(len(degrees))
                degrees.append(j)
                owners.append(s)
                columns.append({gens[i]: x for i, x in vec.items()})
    return list(zip(degrees, owners)), columns


def saturated_paths_reference(p: Poset) -> dict[tuple[str, str], list[tuple[str, ...]]]:
    """The saturated paths of every pair s < t, found by filtering all chains
    for those whose steps are all Hasse covers; each list is lexicographic in
    topo positions, so its first path is the canonical one."""
    covers = set(p.hasse_edges())
    position = {e: k for k, e in enumerate(p.topo_order)}
    paths: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for chain in sorted(brute_force_chains(p), key=lambda c: [position[e] for e in c]):
        if len(chain) > 1 and all(step in covers for step in zip(chain, chain[1:])):
            paths.setdefault((chain[0], chain[-1]), []).append(chain)
    return paths


def dense_compose(d: Sheaf, path) -> list[list]:
    """The edge maps along path multiplied as dense row-by-column sums."""
    f = d.field
    add, _, mul, _ = scalar_ops(f)
    n = d.stalk(path[0])
    m = [[f.one() if i == j else f.zero() for j in range(n)] for i in range(n)]
    for a, b in zip(path, path[1:]):
        e = d.edge_map[(a, b)].data
        m = [[functools.reduce(add, (mul(e[i][k], m[k][j]) for k in range(len(m))),
                               f.zero())
              for j in range(n)] for i in range(d.stalk(b))]
    return m


def compositionality_reference(d: Sheaf) -> list[tuple]:
    """(source, target, path_a, path_b, deviation_sq) for every two saturated
    paths whose dense compositions differ, pairs in topo order; the deviation
    is the sum of the squared entries of the difference, in row-major order."""
    _, sub, _, _ = scalar_ops(d.field)
    paths = saturated_paths_reference(d.poset)
    out = []
    for s in d.poset.topo_order:
        for t in d.poset.topo_order:
            composed = [(path, dense_compose(d, path)) for path in paths.get((s, t), [])]
            for (pa, ma), (pb, mb) in itertools.combinations(composed, 2):
                if ma != mb:
                    diff = [float(sub(x, y)) for ra, rb in zip(ma, mb) for x, y in zip(ra, rb)]
                    out.append((s, t, pa, pb, sum(z * z for z in diff)))
    return out


def decode_simplicial_reference(p: Poset) -> dict[str, tuple[str, ...]] | None:
    """The vertex tuple of each element when the names parse as distinct
    simplices, every codimension-one face is present and, for every pair of
    elements, a < b in p exactly when a's vertices are a proper subset of
    b's; else None."""
    decoded = {e: tuple(sorted(e.split(","))) for e in p.elements}
    for parts in decoded.values():
        if any(not part for part in parts) or len(set(parts)) != len(parts):
            return None
    if len(set(decoded.values())) != len(decoded):
        return None
    present = set(decoded.values())
    for parts in present:
        if len(parts) > 1 and any(parts[:i] + parts[i + 1:] not in present
                                  for i in range(len(parts))):
            return None
    closure = closure_pairs(p)
    for a in p.elements:
        for b in p.elements:
            if (set(decoded[a]) < set(decoded[b])) != ((a, b) in closure):
                return None
    return decoded


def matrix_apply(m: Matrix, vec: list) -> list:
    """m times the column vector vec, a plain list of scalars of m's field."""
    column = Matrix(len(vec), 1, [[x] for x in vec], m.field)
    return [x for x, in (m @ column).data]


def gcn_forward_oracle(p: Poset, features: np.ndarray, w2: np.ndarray,
                       eta: float | None = None, norm: str = "weak") -> np.ndarray:
    """Independent graph-convolution layer: sigma((I - 2*eta*L) X W2) with the
    graph Laplacian assembled directly from adjacency and degrees.

    Shares no code with the sheaf path.
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
    return 1.0 / (1.0 + np.exp(-(operator @ x @ np.asarray(w2, dtype=float))))


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def union_find_components(n_vertices: int, edges: list[tuple[int, int]]) -> int:
    parent = list(range(n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(n_vertices)})


def pad(vec: list[int], n: int) -> list[int]:
    return vec + [0] * (n - len(vec))


def same_betti(a: list[int], b: list[int]) -> bool:
    n = max(len(a), len(b))
    return pad(a, n) == pad(b, n)


# ---------------------------------------------------------------------------
# Random structures.
# ---------------------------------------------------------------------------

def random_dag_poset(rng: np.random.Generator, max_elements: int = 9,
                     chain_cap: int = 60, edge_prob: float = 0.3) -> Poset:
    """Random poset with a bounded order-complex size (keeps Roos tractable)."""
    while True:
        n = int(rng.integers(3, max_elements + 1))
        names = [f"x{i}" for i in range(n)]
        pairs = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < edge_prob
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RedundantCoversWarning)
            p = build_poset(names, pairs)
        # chain count via DP over the closure
        total = 0
        ending: dict[str, int] = {}
        for e in p.topo_order:
            ending[e] = 1 + sum(ending[d] for d in p.strict_lower(e))
            total += ending[e]
        if total <= chain_cap:
            return p


def random_graph_poset(rng: np.random.Generator, max_vertices: int = 8,
                       edge_prob: float = 0.4) -> tuple[Poset, int, list[tuple[int, int]]]:
    n = int(rng.integers(2, max_vertices + 1))
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob
    ]
    seen = set()
    hyperedges = []
    for (i, j) in edges:
        if (i, j) not in seen:
            seen.add((i, j))
            hyperedges.append([str(i), str(j)])
    from posheaf.poset import hypergraph_to_poset

    p = hypergraph_to_poset([str(i) for i in range(n)], hyperedges)
    return p, n, edges


def random_simplicial_poset(rng: np.random.Generator, max_vertices: int = 5) -> Poset:
    n = int(rng.integers(3, max_vertices + 1))
    vertices = [str(i) for i in range(1, n + 1)]
    simplices = [[v] for v in vertices]
    for combo in itertools.combinations(vertices, 2):
        if rng.random() < 0.5:
            simplices.append(list(combo))
    for combo in itertools.combinations(vertices, 3):
        if rng.random() < 0.2:
            simplices.append(list(combo))
    return simplicial_complex_poset(simplices)


_SCALAR_POOL = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3]


def random_sheaf(p: Poset, rng: np.random.Generator, field=QQ) -> Sheaf:
    """Stalk dimensions 0 to 2 (mostly nonzero) and edge maps with entries
    from the scalar pool and zero (over F_2, 0 and 1): in general not
    compositional."""
    pool = [0, 1] if field.p == 2 else [0] + _SCALAR_POOL
    stalks = {e: (0, 1, 2, 2)[int(rng.integers(0, 4))] for e in p.elements}
    maps = {
        (a, b): Matrix(stalks[b], stalks[a], [
            [field.coerce(pool[int(rng.integers(0, len(pool)))]) for _ in range(stalks[a])]
            for _ in range(stalks[b])
        ], field)
        for (a, b) in p.hasse_edges()
    }
    return build_sheaf(p, stalks, maps, field)


def sheaf_direct_sum(pieces: list[Sheaf]) -> Sheaf:
    """Block-diagonal direct sum of sheaves on the same poset."""
    p = pieces[0].poset
    field = pieces[0].field
    stalks = {e: sum(piece.stalk(e) for piece in pieces) for e in p.elements}
    maps = {}
    for (a, b) in p.hasse_edges():
        rows, cols = stalks[b], stalks[a]
        data = [[field.zero()] * cols for _ in range(rows)]
        r0 = c0 = 0
        for piece in pieces:
            block = piece.edge_map[(a, b)]
            for i, row in enumerate(block.data):
                data[r0 + i][c0:c0 + block.cols] = row
            r0 += block.rows
            c0 += block.cols
        maps[(a, b)] = Matrix(rows, cols, data, field)
    return build_sheaf(p, stalks, maps, field)


def gauge_connection_sheaf(p: Poset, rng: np.random.Generator, field=QQ) -> Sheaf:
    """Rank-1 connection sheaf D(a<b) = [u_b / u_a] from random nonzero scalars
    u_s; transitively compositional by construction."""
    units = {e: Fraction(_SCALAR_POOL[int(rng.integers(0, len(_SCALAR_POOL)))])
             for e in p.elements}
    if field.kind == PRIME:
        # a unit of Q that p divides is no unit of F_p; same draws, so the
        # rational sheaves do not change
        units = {e: u if u.numerator % field.p else Fraction(1) for e, u in units.items()}
    stalks = {e: 1 for e in p.elements}
    maps = {
        (a, b): Matrix.from_rows([[units[b] / units[a]]], field)
        for (a, b) in p.hasse_edges()
    }
    return build_sheaf(p, stalks, maps, field)


def random_compositional_sheaf(p: Poset, rng: np.random.Generator, field=QQ) -> Sheaf:
    """Direct sum of a gauge connection piece with random cone and Dirac
    pieces: nontrivial stalk dimensions and maps, compositional by
    construction."""
    from posheaf.sheaf import dirac_sheaf, skyscraper_cone_sheaf

    pieces = [gauge_connection_sheaf(p, rng, field)]
    elements = list(p.elements)
    for _ in range(int(rng.integers(0, 3))):
        s = elements[int(rng.integers(0, len(elements)))]
        pieces.append(skyscraper_cone_sheaf(p, s, 1, field))
    for _ in range(int(rng.integers(0, 3))):
        s = elements[int(rng.integers(0, len(elements)))]
        pieces.append(dirac_sheaf(p, s, 1, field))
    return sheaf_direct_sum(pieces)


def _unimodular2(rng: np.random.Generator) -> tuple[list[list[int]], list[list[int]]]:
    """Random 2x2 integer matrix of determinant 1 and its integer inverse."""
    g = np.eye(2, dtype=int)
    for _ in range(2):
        step = np.eye(2, dtype=int)
        step[(0, 1) if rng.random() < 0.5 else (1, 0)] = int(rng.choice([-2, -1, 1, 2]))
        g = g @ step
    (a, b), (c, d) = g.tolist()
    return [[a, b], [c, d]], [[d, -b], [-c, a]]


def twisted_cycle_sheaf(n: int, rng: np.random.Generator, field=QQ,
                        monodromy=((2, 1), (1, 1))) -> Sheaf:
    """C_n with 2-dim stalks and maps g_e T g_v^-1 for random integer gauges
    g of determinant 1, where T = I except the monodromy on v0 < e{n-1}.
    Its minimal complex has the cyclic block-bidiagonal coboundary d_0."""
    p = cycle_poset(n)
    gauge = {e: _unimodular2(rng) for e in p.elements}
    maps = {}
    for (v, e) in p.hasse_edges():
        twist = monodromy if (v, e) == ("v0", f"e{n - 1}") else ((1, 0), (0, 1))
        m = np.array(gauge[e][0]) @ np.array(twist) @ np.array(gauge[v][1])
        maps[(v, e)] = Matrix.from_rows(m.tolist(), field)
    return build_sheaf(p, {e: 2 for e in p.elements}, maps, field)


def random_monotone_map(rng: np.random.Generator, source: Poset,
                        target: Poset) -> dict[str, str]:
    """Random monotone map built by assigning images in topo order, choosing
    each image above all images of already-assigned predecessors."""
    assignment: dict[str, str] = {}
    for s in source.topo_order:
        lower = [assignment[t] for t in source.strict_lower(s)]
        candidates = [
            u for u in target.elements
            if all(target.leq(v, u) for v in lower)
        ]
        if not candidates:
            # no common upper bound: fall back to a constant map
            anchor = target.elements[int(rng.integers(0, len(target.elements)))]
            return {t: anchor for t in source.elements}
        assignment[s] = candidates[int(rng.integers(0, len(candidates)))]
    return assignment


def _rational_rotation(rng: np.random.Generator) -> list[list[Fraction]]:
    """Exact orthogonal 2x2 matrix from a Pythagorean parametrization, a
    rotation or a reflection with equal odds."""
    a, b = (int(x) for x in rng.integers(1, 7, size=2))
    c = Fraction(a * a - b * b, a * a + b * b)
    s = Fraction(2 * a * b, a * a + b * b)
    if rng.random() < 0.5:
        return [[c, -s], [s, c]]
    return [[c, s], [s, -c]]


def _rational_frame(rng: np.random.Generator) -> tuple[list[list[Fraction]], Fraction, Fraction]:
    """(R, a, b): an exact orthogonal matrix R and a != b drawn from 1/2 .. 2,
    so the frame R diag(a, b) is invertible, with condition number at most 4."""
    a, b = (Fraction(int(k), 2) for k in rng.choice([1, 2, 3, 4], size=2, replace=False))
    return _rational_rotation(rng), a, b


def _inverse2(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def _product2(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def graph_sheaf_twins(n: int, kind: str, rng: np.random.Generator) -> tuple[Sheaf, Sheaf]:
    """A sheaf with 2-dim stalks on the cycle C_n plus n // 2 chords, over Q,
    and its float copy over R.

    kind "gauss": independent maps with Gaussian entries rounded to eighths
    (b0 = 0).  kind "gauge": F_(v,e) = R_e R_v^T for exact rational orthogonal
    frames R (b0 = 2, every stalk block of L_0 a multiple of I).  kind
    "frame": F_(v,e) = G_e G_v^-1 for invertible rational frames
    G = R diag(a, b) (b0 = 2, every stalk block of L_0 with two distinct
    eigenvalues).  kind "ordered-frame": "frame" with a > b at every vertex
    and a < b at every edge, so each stalk block's two eigenvalues are
    distinct with no swap.
    """
    chords = []
    seen = {frozenset((i, (i + 1) % n)) for i in range(n)}
    while len(chords) < n // 2:
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            chords.append((min(a, b), max(a, b)))
    ends = [(i, (i + 1) % n) for i in range(n)] + chords
    vertices = [f"v{i}" for i in range(n)]
    edges = [f"e{k}" for k in range(len(ends))]
    covers = [(vertices[a], e) for e, pair in zip(edges, ends) for a in pair]
    p = build_poset(vertices + edges, covers)
    frames: dict[str, list[list[Fraction]]] = {}
    if kind == "gauge":
        frames = {x: _rational_rotation(rng) for x in vertices + edges}
    elif kind in ("frame", "ordered-frame"):
        parts = {x: _rational_frame(rng) for x in vertices + edges}
        if kind == "ordered-frame":
            parts = {x: (rotation, *sorted((a, b), reverse=x in vertices))
                     for x, (rotation, a, b) in parts.items()}
        # the stalk block of L_0 at v is R_v diag(A / a_v^2, B / b_v^2) R_v^T,
        # (A, B) the sum of (a_e^2, b_e^2) over the edges at v; where the two
        # eigenvalues are equal, they differ once a_v and b_v swap, as a_v != b_v
        for v in vertices:
            rotation, a, b = parts[v]
            at_v = [parts[e] for (u, e) in covers if u == v]
            if sum(x * x for _, x, _ in at_v) * b * b == sum(y * y for _, _, y in at_v) * a * a:
                parts[v] = rotation, b, a
        frames = {x: _product2(rotation, [[a, Fraction(0)], [Fraction(0), b]])
                  for x, (rotation, a, b) in parts.items()}
    maps = {}
    for (v, e) in covers:
        if kind == "gauss":
            m = [[Fraction(round(8 * float(x)), 8) for x in row]
                 for row in rng.standard_normal((2, 2))]
        elif kind == "gauge":
            m = _product2(frames[e], [list(col) for col in zip(*frames[v])])
        else:
            m = _product2(frames[e], _inverse2(frames[v]))
        maps[(v, e)] = m
    stalks = {x: 2 for x in vertices + edges}
    exact = build_sheaf(p, stalks, {k: Matrix.from_rows(m, QQ) for k, m in maps.items()}, QQ)
    real = build_sheaf(p, stalks, {k: Matrix.from_rows([[float(x) for x in row] for row in m], RR)
                                   for k, m in maps.items()}, RR)
    return exact, real


# ---------------------------------------------------------------------------
# The real path one stalk block and one state at a time: the loops that
# spectral's stacked LAPACK and BLAS calls must reproduce bit for bit.
# ---------------------------------------------------------------------------

def fix_signs_reference(vectors: np.ndarray) -> np.ndarray:
    """The sign rule on one matrix: each column's largest-magnitude entry,
    the first of any tie, made positive."""
    if vectors.size:
        columns = np.arange(vectors.shape[1])
        lead = np.argmax(np.abs(vectors), axis=0)
        vectors = vectors * np.where(vectors[lead, columns] < 0, -1.0, 1.0)
    return vectors


def strong_normalize_reference(mat: np.ndarray, blocks: list[int]) -> np.ndarray:
    """Strong normalization with one eigensolve per stalk block, in order."""
    from posheaf import spectral
    n = mat.shape[0]
    q = np.eye(n)
    scale = np.ones(n)
    offset = 0
    for size in blocks:
        block = mat[offset:offset + size, offset:offset + size]
        eigenvalues, vectors = np.linalg.eigh(block)
        q[offset:offset + size, offset:offset + size] = fix_signs_reference(vectors)
        zero = eigenvalues <= spectral.HARMONIC_TOL * eigenvalues[-1:]
        with np.errstate(over="ignore"):
            scale[offset:offset + size] = np.where(zero, 1.0, 1.0 / np.where(zero, 1.0, eigenvalues))
        offset += size
    half = np.sqrt(scale)
    rotated = q.T @ mat @ q
    return rotated * np.outer(half, half)


def heat_diffusion_reference(l: np.ndarray, x0, *, eta: float, steps: int,
                             mode: str) -> tuple[list, list[float], list[float], np.ndarray]:
    """(states, energies, distances, limit) of heat diffusion with one product
    per state and one energy and distance per state; eta is given."""
    from posheaf import spectral
    x0 = np.asarray(x0, dtype=float)
    spectrum = spectral.eigendecompose(l)
    states = [x0]
    with np.errstate(over="ignore", invalid="ignore"):
        limit = spectrum.harmonic_projector() @ x0
        if mode == "discrete":
            operator = np.eye(len(l)) - 2.0 * (eta * l)
            x = x0
            for _ in range(steps):
                x = operator @ x
                states.append(x)
        else:
            coords = spectrum.eigenvectors.T @ x0
            rates = eta * np.maximum(spectrum.eigenvalues, 0.0)
            for k in range(1, steps + 1):
                decay = np.exp(-2.0 * rates * float(k))
                states.append(spectrum.eigenvectors @ (decay * coords))
        energies = [float(x @ (l @ x)) for x in states]
        distances = [float(np.linalg.norm(x - limit)) for x in states]
    return states, energies, distances, limit


def hyperedge_barycenters(h: Sheaf, x) -> np.ndarray:
    """Copy of x with every hyperedge value replaced by the barycenter of its
    incoming images; at this assignment the two energy forms coincide."""
    from posheaf.spectral import _hyperedge_images
    out = np.array(x, dtype=float)
    for b, _, images in _hyperedge_images(h, x, "hyperedge_barycenters"):
        out[b] = sum(images) / len(images)
    return out


# ---------------------------------------------------------------------------
# The dense reports as they were printed before ``incidence`` and ``sections``
# turned sparse: every cell a scalar text in a list of lists.  densify turns a
# sparse report's rows back into that form.
# ---------------------------------------------------------------------------

def densify(rows: list[dict], width: int, zero="0") -> list[list]:
    """Dense rows of width cells from sparse rows {position: value}, whose
    positions may be ints or the decimal keys JSON gives; zero fills the rest.
    Checks that each row lists nonzero cells only, in increasing position."""
    out = []
    for row in rows:
        positions = [int(k) for k in row]
        assert [str(c) for c in positions] == [str(k) for k in row], row
        assert positions == sorted(set(positions)) and all(0 <= c < width for c in positions), row
        assert zero not in row.values(), row
        dense = [zero] * width
        for c, value in zip(positions, row.values()):
            dense[c] = value
        out.append(dense)
    return out


def incidence_report_reference(sheaf: Sheaf) -> dict:
    """The fields of ``cmd_incidence``'s report, its augmented matrix dense."""
    from posheaf.io import scalar_to_string
    inc = cochain.minimal_incidence(sheaf.poset, sheaf.field)
    n = len(inc.generators) + 1
    matrix = [[scalar_to_string(sheaf.field.zero(), sheaf.field)] * n for _ in range(n)]
    for g, column in enumerate(inc.columns):
        for h, value in column.items():
            matrix[h + 1][g + 1] = scalar_to_string(value, sheaf.field)
    return {"incidence": {
        "generators": [
            {"id": g, "degree": deg, "owner": owner}
            for g, (deg, owner) in enumerate(inc.generators)
        ],
        "labels": ["@"] + [f"g{g}" for g in range(len(inc.generators))],
        "matrix": matrix,
    }}


def sections_report_reference(sheaf: Sheaf) -> dict:
    """The fields of ``cmd_sections``'s report, each basis vector dense."""
    from posheaf.io import scalar_to_string
    from posheaf.sheaf import global_sections_bruteforce
    space = global_sections_bruteforce(sheaf)
    width = sum(map(sheaf.stalk, space.layout))
    return {"sections": {
        "dim": space.dim,
        "layout": list(space.layout),
        "basis": [
            [scalar_to_string(v, sheaf.field) for v in vec]
            for vec in densify(space.basis, width, sheaf.field.zero())
        ],
    }}


# ---------------------------------------------------------------------------
# Documents whose cost explodes: a few hundred KB of JSON at most, generated
# so that no large file is committed.
# ---------------------------------------------------------------------------

def deep_chain_sheaf() -> Sheaf:
    """The constant sheaf over Q on c0 < ... < c1499 < x with y < x: a chain
    longer than the interpreter's recursion limit, with 2^1501 chains."""
    chain = [f"c{i}" for i in range(1500)]
    covers = list(zip(chain, chain[1:] + ["x"])) + [("y", "x")]
    return constant_sheaf(build_poset(chain + ["x", "y"], covers), 1, QQ)


def boolean_lattice_sheaf(n: int) -> Sheaf:
    """The constant sheaf over Q on the Boolean lattice B_n: element b<m> is
    the subset with bit mask m, covered by each subset with one more bit."""
    covers = [(f"b{m}", f"b{m | 1 << i}") for m in range(2 ** n) for i in range(n)
              if not m >> i & 1]
    return constant_sheaf(build_poset([f"b{m}" for m in range(2 ** n)], covers), 1, QQ)


def simplex_skeleton_sheaf(vertices: int, top_dim: int) -> Sheaf:
    """The constant sheaf over Q on the top_dim-skeleton of the simplex on
    this many vertices."""
    faces = itertools.combinations(range(vertices), top_dim + 1)
    return constant_sheaf(simplicial_complex_poset(faces), 1, QQ)


def fixed_twisted_cycle_sheaf(n: int) -> Sheaf:
    """``twisted_cycle_sheaf`` over Q with gauges from a generator of seed 0,
    which POSHEAF_SEED does not shift: the same document on every run."""
    return twisted_cycle_sheaf(n, np.random.default_rng(0))


def single_stalk_sheaf(dim: int) -> Sheaf:
    """One element with a stalk of dimension dim over Q: its section space is
    the whole stalk."""
    return constant_sheaf(build_poset(["x"], []), dim, QQ)


# tools/scaling_probe.py: the one table of these documents and their cases,
# and the runner that the probe's tests and the resource corpus share
_spec = importlib.util.spec_from_file_location("scaling_probe",
                                               ROOT / "tools" / "scaling_probe.py")
scaling_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling_probe)


# ---------------------------------------------------------------------------
# The CLI parser stated one argparse call a line: the reference that
# posheaf.cli.build_parser, which builds it from its subcommand table, must
# match in every output, exit status and parsed namespace.
# ---------------------------------------------------------------------------

def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posheaf",
        description="Sheaves on finite posets: cohomology, Laplacians, diffusion.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("document", help="sheaf document (JSON)")
        return p

    add("validate", help="check compositionality")
    add("classify", help="gradedness and cell-likeness of the poset")
    add("sections", help="global sections by brute force")

    p = add("betti", help="Betti numbers of the sheaf")
    p.add_argument("--method", choices=["roos", "cellular", "minimal"],
                   default="minimal")

    add("incidence", help="incidence data of the poset")

    p = add("spectrum", help="Laplacian eigendecomposition")
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--norm", choices=cochain.NORMALIZATIONS, default="none")

    p = add("diffuse", help="heat diffusion trace")
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--norm", choices=cochain.NORMALIZATIONS, default="none")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--steps", type=_COUNT, default=100)
    p.add_argument("--mode", choices=["discrete", "continuous"], default="discrete")
    p.add_argument("--x0", default=None, help="JSON file with an initial state")

    p = add("nsd-forward", help="neural sheaf diffusion layer")
    p.add_argument("params", help="JSON file with X, W1, W2 and optional eta/norm")

    p = add("learn", help="learn edge maps from smooth signals")
    p.add_argument("signals", help="JSON file with a 'signals' array")
    p.add_argument("--lr", type=_POSITIVE_FINITE, default=0.2)
    p.add_argument("--iters", type=_COUNT, default=60)
    p.add_argument("--d", type=_POSITIVE_INT, default=1)
    p.add_argument("--seed", type=_COUNT, default=0)

    return parser
