"""Finite posets stored by their Hasse diagrams: construction, down-sets,
order complexes, gradings, and the cell-like classification used by the
one-shot cohomology machinery.

Order questions are answered from the covers, in declaration order, and from
the strict down-sets, the order's one copy, read by membership or in topo
order: no walk follows a hashed set's order, so results ignore the hash seed.
"""

from __future__ import annotations

import itertools
import warnings
from collections import namedtuple

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


def _toposort_indices(succ: list[set[int]], pred: list[set[int]]) -> list[int]:
    """Kahn's algorithm, ties broken by declaration index."""
    from heapq import heapify, heappop, heappush

    indeg = list(map(len, pred))
    ready = [i for i, d in enumerate(indeg) if d == 0]
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
    if len(order) != len(pred):
        raise CycleDetected("covering relation contains a directed cycle")
    return order


class Poset:
    """Immutable finite poset.  Elements are opaque strings; all internal
    indexing uses dense integer handles in declaration order.
    """

    __slots__ = ("elements", "covers", "_index", "_succ", "_pred", "_down",
                 "topo_order", "_topo_pos")

    def __init__(self, elements: tuple[str, ...], index: dict[str, int],
                 covers: tuple[tuple[str, str], ...], succ: list[set[int]],
                 pred: list[set[int]], down: list[set[int]], topo_idx: range | list[int]):
        self.elements = elements
        self.covers = covers
        self._index = index
        self._succ, self._pred, self._down = succ, pred, down
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
        j = self.index(b)
        return self.index(a) in self._down[j]

    def leq(self, a: str, b: str) -> bool:
        return a == b or self.lt(a, b)

    def strict_lower(self, s: str) -> set[str]:
        return {self.elements[i] for i in self._down[self.index(s)]}

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
    """Validate and build a poset from element identifiers and cover pairs,
    each made a string.

    Faults are reported in input order: the first repeated identifier, then
    the first cover with an undeclared endpoint or equal endpoints, then a
    cycle.  When every cover leads to a later-declared element, declaration
    order is the topological order, as it is the order Kahn's algorithm with
    ties broken by least index returns, and that algorithm runs only
    otherwise.  One forward topological pass builds the strict down-sets and
    the Hasse covers: a predecessor b of a is a cover unless b lies below
    another predecessor of a.  Redundant (transitive) pairs are dropped with
    one RedundantCoversWarning; repeated pairs count once and raise nothing.
    An endpoint is made a string only where it is not one of the declared
    strings, so the strings of a parsed document are looked up as they are.
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
    pred: list[set[int]] = [set() for _ in range(n)]
    forward = True  # every cover leads to a later-declared element
    for a, b in covers:
        try:
            i, j = index[a], index[b]
        except (KeyError, TypeError):  # an endpoint that is not a declared string
            a, b = str(a), str(b)
            if a not in index or b not in index:
                missing = b if a in index else a
                raise UnknownElement(
                    f"cover endpoint {brief(repr(missing))} is not a declared element") from None
            i, j = index[a], index[b]
        if i == j:
            raise CycleDetected(f"reflexive cover ({brief(repr(a))}, {brief(repr(b))})")
        succ[i].add(j)
        pred[j].add(i)
        if j < i:
            forward = False
    topo = range(n) if forward else _toposort_indices(succ, pred)
    down: list[set[int]] = [set() for _ in range(n)]
    redundant = False
    for a in topo:
        below = pred[a]
        if below:
            # b is never in its own down-set: the order is acyclic
            beyond = set().union(*map(down.__getitem__, below))
            if not below.isdisjoint(beyond):
                for b in below & beyond:
                    succ[b].discard(a)
                pred[a] = below - beyond
                redundant = True
            beyond |= below
            down[a] = beyond
    if redundant:
        warnings.warn(
            "input covers contained transitive edges; stored their reduction",
            RedundantCoversWarning,
            stacklevel=2,
        )
    cover_pairs = tuple([(elements[a], elements[b])
                         for a, above in enumerate(succ) if above for b in sorted(above)])
    return Poset(elements, index, cover_pairs, succ, pred, down, topo)


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

    The strict down-sets are inverted once into up-lists of topo positions,
    each filled in topo order, and chains grow from those lists; so within
    each dimension, chains are in lexicographic order of topo positions.
    """
    topo = p.topo_order
    position = [p._topo_pos[e] for e in p.elements]  # by declaration index
    above: list[list[int]] = [[] for _ in topo]
    for k, e in enumerate(topo):
        for i in p._down[p._index[e]]:
            above[position[i]].append(k)
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


class PosetClassification(namedtuple("PosetClassification",
                                      "graded rank homology_cell morse_cell cell_dims")):
    """Gradedness plus the homology-sphere structure of every strict down-set:
    graded (bool), rank ({element: int} or None), homology_cell and
    morse_cell (bool), cell_dims ({element: int} or None)."""

    __slots__ = ()


def _grading(p: Poset) -> dict[str, int] | None:
    """Unique rank function when all maximal descending chains agree, else
    None: in topo order, one more than the rank the lower covers share."""
    rank: dict[str, int] = {}
    for e in p.topo_order:
        below = {rank[p.elements[q]] for q in p._pred[p.index(e)]}
        if len(below) > 1:
            return None
        rank[e] = max(below, default=-1) + 1
    return rank


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
    for sx in simplices:
        vertices = sorted({str(v) for v in sx})
        for k in range(1, len(vertices) + 1):
            closed.update(itertools.combinations(vertices, k))
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
    for e in p.elements:
        parts = tuple(sorted(e.split(",")))
        if any(not part for part in parts) or len(set(parts)) != len(parts):
            return None
        decoded[e] = parts
    by_set = {v: k for k, v in decoded.items()}
    if len(by_set) < len(decoded):  # two elements name one vertex set
        return None
    faces = set()
    for e, parts in decoded.items():
        if len(parts) > 1:
            for i in range(len(parts)):
                face = by_set.get(parts[:i] + parts[i + 1:])
                if face is None:
                    return None
                faces.add((face, e))
    return decoded if faces == set(p.covers) else None
