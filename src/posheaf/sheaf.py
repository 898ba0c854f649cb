"""Sheaves (diagrams of finite-dimensional vector spaces) on finite posets.

Structure maps are stored on Hasse edges only (``edge_map``), and a cover's map
is its edge map.  The map for a general relation s < t is composed along the
canonical path, the lexicographically least saturated path in topo order: from
s, step to the first cover below or at t.  check_compositionality walks every
saturated path from each source once, depth first in the same order.
Order questions are answered from the covers, in declaration order, and by
membership in the strict down-sets, so a missing map or a non-monotone
pullback is reported at its first cover.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Integral

from .errors import (
    Disconnected,
    ExtraEdgeMap,
    FieldMismatch,
    MissingEdgeMap,
    NonInvertibleMap,
    NotAPath,
    NotMonotone,
    OverflowOnConvert,
    ShapeMismatch,
    TooShort,
    UnknownElement,
    brief,
)
from .linalg import FieldTag, Matrix, invert, kernel_basis, require_exact
from .poset import Poset, build_poset


class Sheaf:
    """Stalk dimensions per element plus a structure matrix on every Hasse edge."""

    __slots__ = ("poset", "field", "stalk_dim", "edge_map", "_path_cache")

    def __init__(self, poset: Poset, field: FieldTag, stalk_dim: dict[str, int],
                 edge_map: dict[tuple[str, str], Matrix]):
        self.poset = poset
        self.field = field
        self.stalk_dim = dict(stalk_dim)
        self.edge_map = dict(edge_map)
        # a cover's only saturated path is the cover itself
        self._path_cache: dict[tuple[str, str], Matrix] = dict(self.edge_map)

    def stalk(self, s: str) -> int:
        if s not in self.stalk_dim:
            raise UnknownElement(f"element {brief(repr(s))} has no stalk")
        return self.stalk_dim[s]

    def map(self, s: str, t: str) -> Matrix:
        """Structure map for s <= t, composed along the canonical path: the
        first saturated path, the lexicographically least in topo order."""
        if s == t:
            return Matrix.identity(self.stalk(s), self.field)
        m = self._path_cache.get((s, t))
        if m is None:
            if not self.poset.lt(s, t):
                raise NotAPath(f"{brief(repr(s))} is not strictly below {brief(repr(t))}")
            path = [s]
            while path[-1] != t:
                path.append(next(u for u in self.poset.covers_of(path[-1])
                                 if self.poset.leq(u, t)))
            m = self._path_cache[(s, t)] = self.compose_along(path)
        return m

    def compose_along(self, path) -> Matrix:
        """Composition of edge maps along an explicit saturated ascending path,
        from its first edge map, each later one applied on the left; the
        identity on a one-element path."""
        if len(path) == 1:
            return Matrix.identity(self.stalk(path[0]), self.field)
        m = self.edge_map[(path[0], path[1])]
        for a, b in zip(path[1:], path[2:]):
            m = self.edge_map[(a, b)] @ m
        return m

    def __repr__(self) -> str:
        return f"Sheaf(on {self.poset!r}, field {self.field})"


def build_sheaf(p: Poset, stalks: dict[str, int],
                maps: dict[tuple[str, str], Matrix | list],
                field: FieldTag) -> Sheaf:
    """Shape-check and assemble a sheaf; compositionality is NOT verified here
    (use check_compositionality), and is vacuous on one-dimensional posets.
    A stalk dimension is a nonnegative integer, numpy's included, not a bool."""
    stalk_dim = {}
    for e in p.elements:
        if e not in stalks:
            raise MissingEdgeMap(f"stalks: missing dimension for {brief(repr(e))}")
        d = stalks[e]
        if type(d) is bool or not isinstance(d, Integral):
            raise ShapeMismatch(f"stalk dimension at {brief(repr(e))} is not an integer")
        if d < 0:
            raise ShapeMismatch(f"negative stalk dimension at {brief(repr(e))}")
        stalk_dim[e] = int(d)
    edge_map: dict[tuple[str, str], Matrix] = {}
    hasse = set(p.hasse_edges())
    for (a, b), m in maps.items():
        if (a, b) not in hasse:
            raise ExtraEdgeMap(f"({brief(repr(a))}, {brief(repr(b))}) is not a Hasse edge")
        if not isinstance(m, Matrix):
            m = Matrix.from_rows(m, field)
        if m.field != field:
            raise FieldMismatch(
                f"map on ({brief(repr(a))}, {brief(repr(b))}) uses field {m.field}")
        if m.rows != stalk_dim[b] or m.cols != stalk_dim[a]:
            raise ShapeMismatch(
                f"map on ({brief(repr(a))}, {brief(repr(b))}) has shape {m.rows}x{m.cols}, "
                f"expected {stalk_dim[b]}x{stalk_dim[a]}"
            )
        edge_map[(a, b)] = m
    for edge in p.hasse_edges():
        if edge not in edge_map:
            raise MissingEdgeMap(f"maps: missing {brief(str(edge[0]))}<{brief(str(edge[1]))}")
    return Sheaf(p, field, stalk_dim, edge_map)


@dataclass(frozen=True)
class CompositionalityViolation:
    source: str
    target: str
    path_a: tuple[str, ...]
    path_b: tuple[str, ...]
    deviation_sq: float


def _unlink(node) -> tuple[str, ...]:
    """The path of a walk node (end, prefix node), from its source."""
    path = []
    while node is not None:
        path.append(node[0])
        node = node[1]
    return tuple(reversed(path))


def _frobenius_sq(m: Matrix) -> float:
    """Squared Frobenius norm as a float; OverflowOnConvert where an entry or
    the sum leaves the double range."""
    # sorted: the row-major order of a dense sum, so the float result is too
    try:
        total = float(sum(float(x) * float(x) for _, _, x in sorted(m.nonzeros())))
    except OverflowError:
        raise OverflowOnConvert("deviation: an entry beyond the double range") from None
    if not math.isfinite(total):
        raise OverflowOnConvert("deviation: squared norm beyond the double range")
    return total


def check_compositionality(d: Sheaf) -> list[CompositionalityViolation]:
    """Compare all saturated-path compositions pairwise for every s < t.

    Each saturated path from s is a node (end, prefix node) of one walk from
    s, composed as its last edge map @ its prefix's, as compose_along does.
    An empty list certifies a genuine diagram.  Each violation carries the raw
    squared Frobenius deviation of the two compositions as a diagnostic.
    """
    p = d.poset
    above = {e: p.covers_of(e)[::-1] for e in p.elements}
    violations = []
    for s in p.topo_order:
        reached: dict[str, list] = {}
        stack = [((u, (s, None)), d.edge_map[(s, u)]) for u in above[s]]
        while stack:
            node, m = stack.pop()
            reached.setdefault(node[0], []).append((node, m))
            stack += [((u, node), d.edge_map[(node[0], u)] @ m) for u in above[node[0]]]
        for t in sorted(reached, key=p.topo_position):
            # equality is transitive: when every composite is the first, none differ
            if all(m == reached[t][0][1] for _, m in reached[t][1:]):
                continue
            for (na, ma), (nb, mb) in itertools.combinations(reached[t], 2):
                if ma != mb:
                    violations.append(CompositionalityViolation(
                        s, t, _unlink(na), _unlink(nb), _frobenius_sq(ma - mb)))
    return violations


def _supported_sheaf(p: Poset, support: set[str], dim: int, field: FieldTag) -> Sheaf:
    """Stalk dim on support and 0 elsewhere; one shared identity on every
    cover with both ends in support, a zero map on every other cover."""
    stalks = {e: (dim if e in support else 0) for e in p.elements}
    ident = Matrix.identity(dim, field)
    maps = {(a, b): ident if a in support and b in support
            else Matrix.zeros(stalks[b], stalks[a], field)
            for (a, b) in p.hasse_edges()}
    return build_sheaf(p, stalks, maps, field)


def constant_sheaf(p: Poset, dim: int, field: FieldTag) -> Sheaf:
    return _supported_sheaf(p, set(p.elements), dim, field)


def skyscraper_cone_sheaf(p: Poset, s: str, dim: int, field: FieldTag) -> Sheaf:
    """Constant stalk on the down-set {t <= s}, zero elsewhere; identity maps
    inside the cone, zero maps out.  The cone is down-closed, so it holds a
    cover's lower end wherever it holds the upper one."""
    p.index(s)
    return _supported_sheaf(p, {s} | p.strict_lower(s), dim, field)


def dirac_sheaf(p: Poset, s: str, dim: int, field: FieldTag) -> Sheaf:
    p.index(s)
    return _supported_sheaf(p, {s}, dim, field)


def _graph_poset(n: int, ends: list[tuple[int, int]]) -> Poset:
    """Cell poset of a graph: vertices v0..v{n-1}, then one edge e{k} over
    each vertex pair ends[k], covered by its two ends in that order."""
    edges = [f"e{k}" for k in range(len(ends))]
    covers = [(f"v{i}", e) for e, pair in zip(edges, ends) for i in pair]
    return build_poset([f"v{i}" for i in range(n)] + edges, covers)


def cycle_poset(n: int) -> Poset:
    """Poset of the cycle graph C_n: vertices v0..v{n-1}, edges e_i over {v_i, v_{i+1}}."""
    return _graph_poset(n, [(i, (i + 1) % n) for i in range(n)])


def path_poset(n: int) -> Poset:
    """Poset of the path graph on n vertices v0..v{n-1} with edges e0..e{n-2}."""
    return _graph_poset(n, [(i, i + 1) for i in range(n - 1)])


def mobius_sheaf(n: int, field: FieldTag) -> Sheaf:
    """One-dimensional sheaf on the cycle C_n whose maps are all [1] except a
    single [-1] on the wrap-around edge map (v0, e{n-1})."""
    if n < 3:
        raise TooShort("a cycle needs at least 3 vertices")
    p = cycle_poset(n)
    stalks = {e: 1 for e in p.elements}
    one = Matrix.identity(1, field)
    maps = {edge: one for edge in p.hasse_edges()}
    maps[("v0", f"e{n - 1}")] = one.scale(-1)
    return build_sheaf(p, stalks, maps, field)


def pullback(d: Sheaf, f: dict[str, str], source: Poset) -> Sheaf:
    """Inverse image along a monotone map f: source -> d.poset.

    Stalks and maps transport along f; Hasse edges of the source mapping to
    equalities downstairs get identity maps.  f is monotone exactly when it
    is monotone on every cover; the first cover that breaks it is reported.
    """
    target = d.poset
    for s in source.elements:
        if s not in f:
            raise NotMonotone(f"map does not cover element {brief(repr(s))}")
        target.index(f[s])
    stalks = {s: d.stalk(f[s]) for s in source.elements}
    maps = {}
    for (a, b) in source.hasse_edges():
        if not target.leq(f[a], f[b]):
            raise NotMonotone(f"map is not monotone on {brief(repr(a))} < {brief(repr(b))}")
        maps[(a, b)] = d.map(f[a], f[b])
    return build_sheaf(source, stalks, maps, d.field)


@dataclass(frozen=True)
class SectionSpace:
    """Basis of the global-section space; vectors concatenate per-element
    stalk coordinates in topo order."""

    layout: tuple[str, ...]
    basis: list[list]
    dim: int


def stalk_layout(d: Sheaf) -> tuple[tuple[str, ...], dict[str, int], int]:
    """Topo-order layout of the 0-th cochain coordinates for brute-force sections."""
    layout = tuple(d.poset.topo_order)
    offsets = {}
    total = 0
    for e in layout:
        offsets[e] = total
        total += d.stalk(e)
    return layout, offsets, total


def global_sections_bruteforce(d: Sheaf) -> SectionSpace:
    """Kernel of the stacked Hasse-edge system {D(s<t) x_s - x_t = 0}.

    This is the construction-independent oracle for H^0.
    """
    require_exact(d.field, "global_sections_bruteforce")
    layout, offsets, total = stalk_layout(d)
    rows = sum(d.stalk(b) for (_, b) in d.poset.hasse_edges())
    system = Matrix.zeros(rows, total, d.field)
    r = 0
    for (a, b) in d.poset.hasse_edges():
        m = d.edge_map[(a, b)]
        system.add_block(r, offsets[a], m)
        system.add_block(r, offsets[b], Matrix.identity(m.rows, d.field), -1)
        r += m.rows
    basis = kernel_basis(system)
    return SectionSpace(layout, basis, len(basis))


@dataclass(frozen=True)
class TransportResult:
    path: tuple[str, ...]
    matrix: Matrix


def _step_matrix(d: Sheaf, a: str, b: str) -> Matrix:
    """Transport matrix for one zig-zag step a -> b (ascending or descending)."""
    if d.poset.leq(a, b):
        return d.map(a, b)
    if d.poset.lt(b, a):
        m = d.map(b, a)
        inv = invert(m)
        if inv is None:
            raise NonInvertibleMap(f"map {brief(repr(b))} -> {brief(repr(a))} is not invertible")
        return inv
    raise NotAPath(f"consecutive elements {brief(repr(a))}, {brief(repr(b))} are incomparable")


def parallel_transport(d: Sheaf, path) -> TransportResult:
    """Composition of structure maps along a zig-zag path, with inverses on
    descending steps."""
    path = [str(x) for x in path]
    if len(path) < 1:
        raise NotAPath("empty path")
    for x in path:
        d.poset.index(x)
    m = Matrix.identity(d.stalk(path[0]), d.field)
    for a, b in zip(path, path[1:]):
        m = _step_matrix(d, a, b) @ m
    return TransportResult(tuple(path), m)


def monodromy(d: Sheaf, base: str) -> list[TransportResult]:
    """Transport matrices around the fundamental cycles of the Hasse diagram,
    one per non-tree cover of a breadth-first spanning tree rooted at base,
    which is its parent map; a disconnected diagram raises Disconnected."""
    p = d.poset
    p.index(base)
    neighbors: dict[str, list[str]] = {e: [] for e in p.elements}
    for (a, b) in p.hasse_edges():
        neighbors[a].append(b)
        neighbors[b].append(a)
    for e in neighbors:
        neighbors[e].sort(key=p.topo_position)
    parent: dict[str, str | None] = {base: None}
    queue = [base]
    for current in queue:  # the queue grows as the search reaches new elements
        for nxt in neighbors[current]:
            if nxt not in parent:
                parent[nxt] = current
                queue.append(nxt)
    if len(parent) != len(p.elements):
        raise Disconnected("Hasse diagram is not connected")

    def tree_path(x: str) -> list[str]:
        out = [x]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return list(reversed(out))

    loops = []
    # a cover is a tree edge exactly when one end is the other's parent
    extra = [(a, b) for (a, b) in p.hasse_edges() if parent[b] != a and parent[a] != b]
    extra.sort(key=lambda ab: (p.topo_position(ab[0]), p.topo_position(ab[1])))
    for (a, b) in extra:
        loop = tree_path(a) + list(reversed(tree_path(b)))
        loops.append(parallel_transport(d, loop))
    return loops
