"""Finite posets stored by their Hasse diagrams: construction, down-sets,
order complexes, gradings, and the cell-like classification used by the
one-shot cohomology machinery.

Order questions are answered from the covers, in their stored declaration
order, and from strict up-sets listed in topo order: no walk visits all element
pairs or follows a hashed set's order, so results ignore the hash seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import (
    CycleDetected,
    DuplicateElement,
    EmptyHyperedge,
    UnknownElement,
    UnknownVertex,
    brief,
)
from .linalg import FieldTag


class RedundantCoversWarning(UserWarning):
    """Input covers contained transitive edges; they were silently reduced."""


def _toposort_indices(n: int, succ: list[set[int]]) -> list[int]:
    """Kahn's algorithm, ties broken by declaration index."""
    indeg = [0] * n
    for a in range(n):
        for b in succ[a]:
            indeg[b] += 1
    from heapq import heapify, heappop, heappush

    ready = [i for i in range(n) if indeg[i] == 0]
    heapify(ready)
    order = []
    while ready:
        a = heappop(ready)
        order.append(a)
        # the heap, not this loop's order, decides the ties
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heappush(ready, b)
    if len(order) != n:
        raise CycleDetected("covering relation contains a directed cycle")
    return order


class Poset:
    """Immutable finite poset.  Elements are opaque strings; all internal
    indexing uses dense integer handles in declaration order.
    """

    __slots__ = ("elements", "covers", "_index", "_succ", "_pred", "_up", "_down",
                 "topo_order", "_topo_pos")

    def __init__(self, elements: tuple[str, ...], index: dict[str, int],
                 covers: tuple[tuple[str, str], ...], succ: list[set[int]],
                 up: list[set[int]], topo_idx: range | list[int]):
        self.elements = elements
        self.covers = covers
        self._index = index
        self._succ = succ
        self._up = up
        self._pred: list[set[int]] = [set() for _ in elements]
        self._down: list[set[int]] = [set() for _ in elements]
        for a, (above, covering) in enumerate(zip(up, succ)):
            for b in covering:
                self._pred[b].add(a)
            for b in above:
                self._down[b].add(a)
        self.topo_order = tuple(elements[i] for i in topo_idx)
        self._topo_pos = dict(zip(self.topo_order, range(len(elements))))

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, element: str) -> bool:
        return element in self._index

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise UnknownElement(f"element {brief(repr(element))} is not in the poset") from None

    def topo_position(self, element: str) -> int:
        return self._topo_pos[element]

    def lt(self, a: str, b: str) -> bool:
        return self.index(b) in self._up[self.index(a)]

    def leq(self, a: str, b: str) -> bool:
        return a == b or self.lt(a, b)

    def strict_lower(self, s: str) -> set[str]:
        return {self.elements[i] for i in self._down[self.index(s)]}

    def strict_upper(self, s: str) -> list[str]:
        """Elements strictly above s, in topo order."""
        return sorted((self.elements[j] for j in self._up[self.index(s)]), key=self._topo_pos.get)

    def covers_of(self, s: str) -> list[str]:
        """Elements covering s, in topo order."""
        i = self.index(s)
        return sorted((self.elements[j] for j in self._succ[i]), key=self._topo_pos.get)

    def covered_by(self, s: str) -> list[str]:
        i = self.index(s)
        return sorted((self.elements[j] for j in self._pred[i]), key=self._topo_pos.get)

    def minimal_elements(self) -> list[str]:
        return [e for i, e in enumerate(self.elements) if not self._pred[i]]

    def maximal_elements(self) -> list[str]:
        return [e for i, e in enumerate(self.elements) if not self._succ[i]]

    def hasse_edges(self) -> tuple[tuple[str, str], ...]:
        return self.covers

    def __repr__(self) -> str:
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self.covers == other.covers
        )

    def __hash__(self):
        return hash((self.elements, self.covers))


def build_poset(elements, covers) -> Poset:
    """Validate and build a poset from element identifiers and cover pairs.

    Faults are reported in input order: the first repeated identifier, then
    the first cover with an undeclared endpoint or equal endpoints, then a
    cycle.  When every cover leads to a later-declared element, declaration
    order is the topological order, as it is the order Kahn's algorithm with
    ties broken by least index returns, and that algorithm runs only
    otherwise.  One reverse topological pass builds the strict up-sets and the
    Hasse covers: a successor b of a is a cover unless b lies in the up-set of
    another successor of a.  Redundant (transitive) pairs are dropped with one
    RedundantCoversWarning; repeated pairs count once and raise nothing.
    """
    elements = tuple(map(str, elements))
    n = len(elements)
    index = dict(zip(elements, range(n)))
    if len(index) < n:
        seen = set()
        for e in elements:
            if e in seen:
                raise DuplicateElement(f"duplicate element {brief(repr(e))}")
            seen.add(e)
    succ: list[set[int]] = [set() for _ in range(n)]
    forward = True  # every cover leads to a later-declared element
    for a, b in covers:
        a, b = str(a), str(b)
        try:
            i, j = index[a], index[b]
        except KeyError:
            missing = b if a in index else a
            raise UnknownElement(
                f"cover endpoint {brief(repr(missing))} is not a declared element") from None
        if i == j:
            raise CycleDetected(f"reflexive cover ({brief(repr(a))}, {brief(repr(b))})")
        succ[i].add(j)
        if j < i:
            forward = False
    topo = range(n) if forward else _toposort_indices(n, succ)
    up: list[set[int]] = [set() for _ in range(n)]
    redundant = False
    for a in reversed(topo):
        # b is never in its own up-set: the order is acyclic
        above = succ[a]
        if len(above) == 1:
            (b,) = above
            up[a] = up[b] | above
        elif above:
            beyond = set().union(*(up[b] for b in above))
            up[a] = above | beyond
            if not above.isdisjoint(beyond):
                succ[a] = above - beyond
                redundant = True
    if redundant:
        warnings.warn(
            "input covers contained transitive edges; stored their reduction",
            RedundantCoversWarning,
            stacklevel=2,
        )
    cover_pairs = tuple(
        (elements[a], elements[b])
        for a in range(n)
        for b in sorted(succ[a])
    )
    return Poset(elements, index, cover_pairs, succ, up, topo)


def transitive_reduction(pairs) -> set[tuple[str, str]]:
    """Minimal edge set whose transitive closure equals the closure of the input."""
    pairs = [(str(a), str(b)) for a, b in pairs]
    names = dict.fromkeys(x for pair in pairs for x in pair)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RedundantCoversWarning)
        return set(build_poset(names, pairs).covers)


def topological_sort(p: Poset) -> list[str]:
    """Linearization respecting the order; ties broken by declaration order."""
    return list(p.topo_order)


def down_set(p: Poset, s: str) -> Poset:
    """Induced subposet on the elements strictly below s.  A down-set holds
    every element between two of its own, so its covers are the covers of p
    whose upper end lies in it, and build_poset has nothing to reduce."""
    keep = p._down[p.index(s)]
    elements = [e for i, e in enumerate(p.elements) if i in keep]
    return build_poset(elements, [(a, b) for a, b in p.covers if p.index(b) in keep])


def order_complex(p: Poset) -> list[list[tuple[str, ...]]]:
    """All nonempty chains s_0 < ... < s_j of p, each a tuple of elements,
    grouped by dimension j.

    Each element's strict up-set is listed once, in topo order, and chains
    grow from those lists; so within each dimension, chains are listed in
    lexicographic order of their topo_order positions.
    """
    topo = p.topo_order
    above = [[p.topo_position(u) for u in p.strict_upper(e)] for e in topo]
    groups: list[list[tuple[str, ...]]] = []

    def extend(chain: list[int]):
        dim = len(chain) - 1
        if len(groups) == dim:
            groups.append([])
        groups[dim].append(tuple(topo[k] for k in chain))
        for k in above[chain[-1]]:
            chain.append(k)
            extend(chain)
            chain.pop()

    for k in range(len(topo)):
        extend([k])
    return groups


@dataclass(frozen=True)
class PosetClassification:
    """Gradedness plus the homology-sphere structure of every strict down-set."""

    graded: bool
    rank: dict[str, int] | None
    homology_cell: bool
    morse_cell: bool
    cell_dims: dict[str, int] | None


def _grading(p: Poset) -> dict[str, int] | None:
    """Unique rank function when all maximal descending chains agree, else None."""
    lengths: dict[int, set[int]] = {}
    for e in p.topo_order:
        i = p.index(e)
        preds = p._pred[i]
        if not preds:
            lengths[i] = {0}
        else:
            acc: set[int] = set()
            for q in preds:
                acc |= {l + 1 for l in lengths[q]}
            lengths[i] = acc
    if any(len(v) != 1 for v in lengths.values()):
        return None
    return {p.elements[i]: next(iter(v)) for i, v in lengths.items()}


def classify(p: Poset, field: FieldTag) -> PosetClassification:
    """Grading search plus the field-homology sphere test on all strict down-sets.

    The incidence-matrix algorithm gives each element one generator per
    reduced-homology class of its strict down-set, one degree up.  So the
    strict down-set of s is a homology (d-1)-sphere exactly when s owns a
    single generator, and d is that generator's degree.

    Field homology only: posets whose down-sets carry torsion may be classified
    differently than with integral coefficients.
    """
    from .cochain import minimal_incidence

    rank = _grading(p)
    owned: dict[str, list[int]] = {s: [] for s in p.elements}
    for deg, owner in minimal_incidence(p, field).generators:
        owned[owner].append(deg)
    morse = all(len(degrees) == 1 for degrees in owned.values())
    cell_dims = {s: owned[s][0] for s in p.elements} if morse else None
    homology_cell = (
        morse
        and rank is not None
        and all(cell_dims[s] == rank[s] for s in p.elements)
    )
    return PosetClassification(
        graded=rank is not None,
        rank=rank,
        homology_cell=homology_cell,
        morse_cell=morse,
        cell_dims=cell_dims,
    )


def hypergraph_to_poset(vertices, hyperedges) -> Poset:
    """Two-layer poset V ⊔ H with v < h iff v belongs to the hyperedge h.

    Hyperedge k is named h{k}, prefixed with underscores past any vertex name."""
    vertices = [str(v) for v in vertices]
    vertex_set = set(vertices)
    names = []
    covers = []
    for k, edge in enumerate(hyperedges):
        members = [str(v) for v in edge]
        if not members:
            raise EmptyHyperedge(f"hyperedge #{k} is empty")
        for v in members:
            if v not in vertex_set:
                raise UnknownVertex(f"hyperedge #{k} mentions unknown vertex {brief(repr(v))}")
        name = f"h{k}"
        while name in vertex_set:
            name = "_" + name
        names.append(name)
        covers.extend((v, name) for v in dict.fromkeys(members))
    return build_poset(vertices + names, covers)


def simplicial_complex_poset(simplices) -> Poset:
    """Poset of nonempty simplices of the simplicial complex generated by the input.

    Elements are canonical comma-joined sorted vertex tuples ("1", "1,2", ...),
    declared by (dimension, lexicographic) order; this is the encoding expected
    by the cellular cochain construction.
    """
    closed: set[tuple[str, ...]] = set()

    def close(simplex: tuple[str, ...]):
        if simplex in closed or not simplex:
            return
        closed.add(simplex)
        for i in range(len(simplex)):
            close(simplex[:i] + simplex[i + 1:])

    for sx in simplices:
        vertices = tuple(sorted({str(v) for v in sx}))
        close(vertices)
    ordered = sorted(closed, key=lambda t: (len(t), t))
    names = {t: ",".join(t) for t in ordered}
    covers = []
    for t in ordered:
        if len(t) == 1:
            continue
        for i in range(len(t)):
            covers.append((names[t[:i] + t[i + 1:]], names[t]))
    return build_poset([names[t] for t in ordered], covers)


def decode_simplicial_elements(p: Poset) -> dict[str, tuple[str, ...]] | None:
    """Map each element to its vertex tuple when the poset encodes a simplicial
    complex (strict order = strict inclusion, faces all present); else None.
    With all faces present, that holds exactly when the covers are the
    (codimension-one face, simplex) pairs."""
    decoded: dict[str, tuple[str, ...]] = {}
    sets_seen = set()
    for e in p.elements:
        parts = tuple(sorted(e.split(",")))
        if any(not part for part in parts) or len(set(parts)) != len(parts):
            return None
        if parts in sets_seen:
            return None
        sets_seen.add(parts)
        decoded[e] = parts
    by_set = {v: k for k, v in decoded.items()}
    faces = set()
    for e, parts in decoded.items():
        if len(parts) > 1:
            for i in range(len(parts)):
                face = by_set.get(parts[:i] + parts[i + 1:])
                if face is None:
                    return None
                faces.add((face, e))
    return decoded if faces == set(p.covers) else None
