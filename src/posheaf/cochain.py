"""The three interchangeable cochain-complex constructions (Roos, cellular on
simplicial posets, minimal via the incidence-matrix algorithm), cohomology,
Betti numbers, and multiplicity accounting.

Every complex here is graded and stored per degree: a cochain complex as its
differential blocks d_j : C^j -> C^{j+1}, and the incidence data as one sparse
boundary column per generator.  ``CochainComplexInstance`` is the one graded
complex type, over Q, F_p and R alike.  ``linalg.check_d_squared`` checks
d^2 = 0 where blocks are built: in its constructor and, per down-set complex,
in ``minimal_incidence``.  All three constructions build it through
``_assemble`` from the owners of its summands (summand k of C^j copies the
stalk of the element ``degrees[j][k]``) and faces (j, r, c, scalar) joining
summand c of C^j to summand r of C^{j+1}; Roos reads both off the chains of
``order_complex``, which are plain tuples of elements.  Cohomology and the
incidence algorithm then solve with ``linalg.homology_basis``.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate
from operator import mul

from .errors import (
    FieldMismatch,
    NotSimplicialPoset,
    PosetMismatch,
    TooLarge,
)
from .linalg import (
    FieldTag,
    Matrix,
    QQ,
    RR,
    check_d_squared,
    homology_basis,
    rank,
    require_exact,
)
from .poset import Poset, decode_simplicial_elements, order_complex
from .sheaf import Sheaf

ROOS = "roos"
CELLULAR = "cellular"
MINIMAL = "minimal"
CONSTRUCTIONS = (ROOS, CELLULAR, MINIMAL)  # of build_complex
NORMALIZATIONS = ("none", "weak", "strong")  # of spectral.laplacian
DIFFUSION_MODES = ("discrete", "continuous")  # of spectral.heat_diffusion
# chains, and summed stalk dimensions, past which roos_complex refuses: over
# five times B_7's 189,171, under B_8's 2,183,339
ROOS_CAP = 10**6


class CochainComplexInstance:
    """Graded direct sum of stalk copies with per-degree differentials.

    Summand k of C^j is a copy of the stalk of the element ``degrees[j][k]``
    (the chain's top for Roos, the simplex for cellular, the generator's owner
    for minimal), of dimension ``dims[j][k]``; diffs[j] is the matrix of
    d_j : C^j -> C^{j+1}.  This is the one graded complex type, over every
    field.  ``_assemble`` sizes each block from the summand dimensions, and
    construction runs ``check_d_squared`` (exact over Q and F_p, with a
    tolerance over R): on every pair of blocks, but on a Roos complex's first
    pair alone, whose composite vanishes exactly when they all do (see
    ``roos_complex``).  The spectral layer reads the differentials of a Q or R
    complex directly.
    """

    __slots__ = ("kind", "field", "degrees", "dims", "diffs", "sheaf")

    def __init__(self, kind: str, field: FieldTag, degrees: list[list[str]],
                 dims: list[list[int]], diffs: list[Matrix], sheaf: Sheaf):
        self.kind = kind
        self.field = field
        self.degrees = degrees
        self.dims = dims
        self.diffs = diffs
        self.sheaf = sheaf
        check_d_squared(diffs[:2] if kind == ROOS else diffs)

    @property
    def top_degree(self) -> int:
        return len(self.degrees) - 1

    def degree_dim(self, j: int) -> int:
        if 0 <= j <= self.top_degree:
            return sum(self.dims[j])
        return 0

    def __repr__(self) -> str:
        shape = "+".join(str(self.degree_dim(j)) for j in range(self.top_degree + 1))
        return f"CochainComplexInstance({self.kind}, dims {shape})"


def _assemble(kind: str, d: Sheaf, degrees: list[list[str]],
              faces) -> CochainComplexInstance:
    """The complex whose summand k of C^j copies the stalk of degrees[j][k].

    Each face (j, r, c, scalar) puts scalar . D(degrees[j][c] <= degrees[j + 1][r])
    in the block of d_j at row summand r and column summand c.  No two faces
    share a block, hence an entry: the faces of one Roos chain or one simplex
    are distinct chains or simplices, and a minimal boundary column holds one
    scalar per generator.  So each entry is stored, not added: x for scalar 1,
    -x for -1 (-x mod p over F_p), and otherwise scalar * x, reduced mod p and
    dropped if it vanishes (a float product can underflow).  The entries go in
    face order, each block row by row, the order in which adding the blocks
    to zero rows writes them.  A face whose two owners are one element has
    the identity for its map, so it puts scalar (mod p) at (r0 + k, c0 + k)
    without asking the sheaf for a map: in a Roos complex, every face of a
    chain but the one that drops its top.
    """
    p = d.field.p
    dims = [list(map(d.stalk_dim.__getitem__, owners)) for owners in degrees]
    offsets = [list(accumulate(dims_j, initial=0)) for dims_j in dims]
    diffs = [Matrix.zeros(offsets[j + 1][-1], offsets[j][-1], d.field)
             for j in range(len(degrees) - 1)]
    for j, r, c, scalar in faces:
        source, target = degrees[j][c], degrees[j + 1][r]
        r0, c0 = offsets[j + 1][r], offsets[j][c]
        rows = diffs[j]._entries[r0:r0 + dims[j + 1][r]]
        if source == target:
            if v := scalar % p if p else scalar:
                for k, row in enumerate(rows):
                    row[c0 + k] = v
        elif scalar == 1:
            for brow, row in zip(d.map(source, target)._entries, rows):
                for k, x in brow.items():
                    row[c0 + k] = x
        elif scalar == -1:
            for brow, row in zip(d.map(source, target)._entries, rows):
                for k, x in brow.items():
                    row[c0 + k] = -x % p if p else -x
        else:
            for brow, row in zip(d.map(source, target)._entries, rows):
                for k, x in brow.items():
                    if v := scalar * x % p if p else scalar * x:
                        row[c0 + k] = v
    return CochainComplexInstance(kind, d.field, degrees, dims, diffs, d)


def _alternating_faces(simplices: list[list[tuple]]):
    """Faces of the alternating boundary, where summand k of C^j spans the
    vertex tuple simplices[j][k]: it meets the summand of its face without
    vertex i with sign (-1)^i."""
    position = {sigma: k for sigmas in simplices for k, sigma in enumerate(sigmas)}
    for j, sigmas in enumerate(simplices[1:]):
        for r, sigma in enumerate(sigmas):
            for i in range(len(sigma)):
                yield j, r, position[sigma[:i] + sigma[i + 1:]], -1 if i % 2 else 1


def roos_size(d: Sheaf) -> tuple[int, int]:
    """The number of chains of d's poset and the summed stalk dimension of
    its Roos complex, by ``roos_complex``'s recurrence in one topo-order pass
    over the strict down-sets.  TooLarge if either passes ROOS_CAP: the pass
    stops as soon as the chains topped by one element do, so each count stays
    a small integer however deep the poset.  The chains are capped too, as
    ``order_complex`` lists a chain whatever its top's stalk."""
    p = d.poset
    down, ending = p._down, [0] * len(p)  # E by declaration index
    below = ending.__getitem__
    for i in map(p._index.__getitem__, p.topo_order):
        ending[i] = e = 1 + sum(map(below, down[i]))
        if e > ROOS_CAP:
            break
    chains = sum(ending)
    total = sum(map(mul, ending, map(d.stalk_dim.__getitem__, p.elements)))
    if chains > ROOS_CAP or total > ROOS_CAP:
        what = "chains" if chains > ROOS_CAP else "summed stalk dimensions"
        raise TooLarge(f"the Roos complex has more than {ROOS_CAP} {what}")
    return chains, total


def roos_complex(d: Sheaf) -> CochainComplexInstance:
    """Chain-indexed honest complex: C^j = sum over j-chains t of D(t_max),
    with alternating face signs and structure maps between chain maxima.

    Its size, sum(c.degree_dim(j)), is sum over x of E(x) . dim D(x), where
    E(x) = 1 + sum over y < x of E(y) counts the chains whose top is x.
    ``roos_size`` counts it, and the chains, before ``order_complex`` lists
    any chain, and refuses either past ROOS_CAP with TooLarge: a poset with a
    chain of n elements has at least 2^n - 1 chains.

    Its constructor checks d_1 . d_0 alone.  Summand t copies the stalk of
    t's top, so a face map is the identity unless the face drops the top.
    In d_{j+1} . d_j, from a (j+2)-chain t_0 < ... < t_{j+2} to the chain
    without two of its elements, the two orders of dropping them cancel by
    their signs when the maps agree: they are one identity and one map when
    a lower element and the top go, identities when two lower ones go, and
    D(t_{j+1} <= t_{j+2}) . D(t_j <= t_{j+1}) against D(t_j <= t_{j+2}) when
    the top two go.  So every composite vanishes iff each triple a < b < c
    composes, and d_1 . d_0, whose entry from (a) to (a, b, c) is
    D(a <= c) - D(b <= c) . D(a <= b), tests every triple.
    """
    require_exact(d.field, "roos_complex")
    roos_size(d)
    chains = order_complex(d.poset)
    degrees = [[chain[-1] for chain in group] for group in chains]
    return _assemble(ROOS, d, degrees, _alternating_faces(chains))


def cellular_complex(d: Sheaf) -> CochainComplexInstance:
    """One-summand-per-simplex honest complex on a simplicial-complex poset,
    with the canonical alternating incidence signs."""
    require_exact(d.field, "cellular_complex")
    decoded = decode_simplicial_elements(d.poset)
    if decoded is None:
        raise NotSimplicialPoset(
            "poset elements do not encode the simplices of a simplicial complex"
        )
    top = max((len(v) - 1 for v in decoded.values()), default=-1)
    degrees: list[list[str]] = [[] for _ in range(top + 1)]
    for e in sorted(d.poset.elements, key=lambda e: (len(decoded[e]), decoded[e])):
        degrees[len(decoded[e]) - 1].append(e)
    faces = _alternating_faces([[decoded[e] for e in owners] for owners in degrees])
    return _assemble(CELLULAR, d, degrees, faces)


AUGMENTATION = -1  # key of the augmentation generator "@" in boundary columns


class IncidenceData(namedtuple("IncidenceData", "poset field generators columns")):
    """Output of the incidence-matrix algorithm: generators stitched to poset
    elements, each with its sparse boundary column.

    A generator is its position g: ``generators[g]`` is its (degree, owner)
    pair, and ``columns[g]`` maps a generator h, or ``AUGMENTATION`` for the
    augmentation generator "@" in degree -1, to the nonzero coefficient of h
    in the boundary of g; an absent h has coefficient zero.  The data depends
    only on the poset and field, and is reusable across sheaves.
    """

    __slots__ = ()


def minimal_incidence(p: Poset, field: FieldTag) -> IncidenceData:
    """Incidence matrix computation.

    Walk the poset in topological order.  For each element, take the
    augmented chain complex spanned by "@" and the generators owned by its
    strict down-set, as boundary blocks per degree read off the sparse
    columns; compute a homology basis; and create one new generator per class,
    one degree up, whose boundary column is the representative chain.

    An element whose strict down-set owns no generator above degree 0 (each
    vertex and each edge of a graph or cycle) is not solved.  Only minimal
    elements own degree-0 generators, as a nonempty down-set holds a minimal
    element and so has no class in degree -1; each has the boundary "@", and
    the down-set's other elements own nothing.  Its complex is then "@" and
    k points, one 1 x k block of ones, and the element gets what
    ``homology_basis`` returns on that block.  For k = 0 (a minimal element)
    "@" alone has one class: one degree-0 generator whose boundary is "@"
    with coefficient 1.  For k >= 1 the classes are the block's kernel
    vectors in RREF free-variable form, g_j - g_0 for the kept points
    g_0 < g_1 < ... from j = 1 up, and no image reduces them, as no
    generator has degree 1: k - 1 degree-1 generators with columns
    {g_j: 1, g_0: -1}, -1 being p - 1 over F_p.  So the columns, their
    insertion order and their int values are the solver's.  On a graph these
    are the signed incidence columns of the coboundary of Hansen and Ghrist
    ("Toward a spectral theory of cellular sheaves", 2019).

    Many elements share one down-set complex (every face of a simplex of one
    dimension above 1).  ``homology_basis`` is a function of its blocks
    alone, so within one call its representatives are kept in a local dict,
    and an element whose complex was seen reuses them; the dict is dropped
    when the call returns.  The key holds the number of generators of each
    degree and, per degree from the top down and per generator of that
    degree, the id of its column's tuple of values and the column's rows
    relabelled to positions in the down-set's degrees, in the column's
    insertion order.  The values of each class are interned once, when its
    complex is solved (id 0 is the minimal elements' (1,) and id 1 the
    points' (1, -1)), so a scalar is hashed once per class and not at every
    use of its column; equal ids mean equal values, so two elements share an
    entry exactly when their blocks are equal.
    """
    require_exact(field, "minimal_incidence")
    minus_one = -1 % field.p if field.p else -1
    degrees: list[int] = []
    owners: list[str] = []
    columns: list[dict[int, object]] = []
    value_ids: list[int] = []  # per generator, the id of its column's values
    interned: dict[tuple, int] = {(1,): 0, (1, minus_one): 1}
    owned: list[list[int]] = [[] for _ in p.elements]  # by element index
    # per down-set complex, (degree, local column, value id) of each new generator
    memo: dict[tuple, list[tuple[int, dict, int]]] = {}
    handles = p._index  # element -> its index
    down_sets = p._down
    for s in p.topo_order:
        i = handles[s]
        down = down_sets[i]
        if not down:  # "@" alone
            owned[i].append(len(degrees))
            degrees.append(0)
            owners.append(s)
            columns.append({AUGMENTATION: 1})
            value_ids.append(0)
            continue
        kept = [gid for t in down for gid in owned[t]]
        kept.sort()
        # a nonempty down-set holds a minimal element, which owns a generator
        top = max(map(degrees.__getitem__, kept))
        if not top:  # "@" and len(kept) points
            mine, first = owned[i], kept[0]
            for gid in kept[1:]:
                mine.append(len(degrees))
                degrees.append(1)
                owners.append(s)
                columns.append({gid: 1, first: minus_one})
                value_ids.append(1)
            continue
        # by_degree[j + 1] lists the kept generators of degree j, and index
        # gives each its position there
        by_degree: list[list[int]] = [[AUGMENTATION]] + [[] for _ in range(top + 1)]
        index = {AUGMENTATION: 0}
        for gid in kept:
            gens = by_degree[degrees[gid] + 1]
            index[gid] = len(gens)
            gens.append(gid)
        # boundary blocks degree j -> j - 1 from the top down: the chain
        # complex read as a cochain complex in degree -j
        position = index.__getitem__
        key = (tuple(map(len, by_degree)),
               tuple([(value_ids[gid], *map(position, columns[gid]))
                      for gens in by_degree[:0:-1] for gid in gens]))
        new = memo.get(key)
        if new is None:
            blocks = [Matrix.from_columns(len(by_degree[j]), [
                {index[row]: x for row, x in columns[gid].items()}
                for gid in by_degree[j + 1]], field) for j in range(top, -1, -1)]
            check_d_squared(blocks)
            reps = homology_basis(blocks, [len(gens) for gens in reversed(by_degree)], field)
            # classes in degree j - 1 become generators of degree j
            new = memo[key] = [
                (j, vec, interned.setdefault(tuple(vec.values()), len(interned)))
                for j in range(top + 2) for vec in reps[top + 1 - j]]
        for j, vec, value_id in new:
            gens = by_degree[j]
            owned[i].append(len(degrees))
            degrees.append(j)
            owners.append(s)
            columns.append({gens[k]: x for k, x in vec.items()})
            value_ids.append(value_id)
    return IncidenceData(p, field, list(zip(degrees, owners)), columns)


def minimal_complex(d: Sheaf, inc: IncidenceData) -> CochainComplexInstance:
    """Minimal honest complex: one stalk copy per incidence generator, with
    differential blocks I(g2, g1) . D(owner(g1) < owner(g2)).

    A sheaf over R takes incidence data over Q, whose scalars embed in R: each
    face gets its scalar as a float once, and since Fraction * float is
    float(Fraction) * float, every entry is the one the Fraction would give.
    """
    if inc.poset != d.poset:
        raise PosetMismatch("incidence data was computed on a different poset")
    if inc.field != (QQ if d.field == RR else d.field):
        raise FieldMismatch("incidence data uses a different field")
    top = max((deg for deg, _ in inc.generators), default=-1)
    degrees: list[list[str]] = [[] for _ in range(top + 1)]
    position = []  # position[g]: the generator's summand in its degree
    for deg, owner in inc.generators:
        position.append(len(degrees[deg]))
        degrees[deg].append(owner)
    real = d.field == RR
    faces = ((inc.generators[g1][0], position[g2], position[g1],
              float(scalar) if real else scalar)
             for g2, column in enumerate(inc.columns)
             for g1, scalar in column.items() if g1 != AUGMENTATION)
    return _assemble(MINIMAL, d, degrees, faces)


def cohomology(c: CochainComplexInstance) -> list[tuple[int, list[list]]]:
    """Per-degree Betti numbers with representative cochains.

    The differentials ``c.diffs`` go to ``homology_basis`` as they are, so the
    representatives of degree j lie in ker d_j and are independent modulo
    im d_{j-1}; each is a vector over the summands of C^j.
    """
    dims = [c.degree_dim(j) for j in range(c.top_degree + 1)]
    zero = c.field.zero()
    return [(len(reps), [[vec.get(i, zero) for i in range(n)] for vec in reps])
            for reps, n in zip(homology_basis(c.diffs, dims, c.field), dims)]


def betti_numbers(c: CochainComplexInstance) -> list[int]:
    """Betti vector via rank-nullity, one entry per degree of c, so its length
    follows the construction: over Q on the cone over the six-vertex RP^2,
    Roos gives [1, 0, 0, 0] and minimal [1, 0, 0]."""
    # padded: d_{j-1} is ranks[j] and d_j is ranks[j + 1], zero past either end
    ranks = [0, *(rank(diff) for diff in c.diffs), 0]
    return [c.degree_dim(j) - ranks[j] - ranks[j + 1] for j in range(c.top_degree + 1)]


def build_complex(d: Sheaf, method: str) -> CochainComplexInstance:
    if method == ROOS:
        return roos_complex(d)
    if method == CELLULAR:
        return cellular_complex(d)
    if method == MINIMAL:
        return minimal_complex(d, minimal_incidence(d.poset, d.field))
    raise FieldMismatch(f"unknown construction {method!r}")


def betti(d: Sheaf, method: str) -> list[int]:
    """Dispatch wrapper over the chosen construction."""
    return betti_numbers(build_complex(d, method))


def multiplicities(c: CochainComplexInstance) -> Counter:
    """Summand multiplicities keyed by (element, degree); a missing key reads
    0, and .total() is the complex's size in summands."""
    return Counter((e, j) for j, owners in enumerate(c.degrees) for e in owners)
