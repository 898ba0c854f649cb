"""The three interchangeable cochain-complex constructions (Roos, cellular on
simplicial posets, minimal via the incidence-matrix algorithm), cohomology,
Betti numbers, and multiplicity accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    FieldMismatch,
    NotAComplex,
    NotSimplicialPoset,
    PosetMismatch,
)
from .linalg import (
    AugChainComplex,
    FieldTag,
    Matrix,
    QQ,
    RR,
    homology_basis,
    rank,
)
from .poset import Poset, decode_simplicial_elements, order_complex
from .sheaf import Sheaf

ROOS = "roos"
CELLULAR = "cellular"
MINIMAL = "minimal"


@dataclass(frozen=True)
class SummandTag:
    """One stalk copy inside a graded component.

    ``chain`` is the indexing chain for Roos summands; ``gid`` is the generator
    id for minimal summands; cellular summands carry neither.
    """

    element: str
    copy: int
    chain: tuple[str, ...] | None = None
    gid: int | None = None


class CochainComplexInstance:
    """Graded tagged direct sum of stalk copies with per-degree differentials.

    diffs[j] is the matrix of d_j : C^j -> C^{j+1}; over exact fields d^2 = 0
    is verified at construction time.  Over R it is left to ``realize``, whose
    RealComplex checks it with a tolerance.
    """

    __slots__ = ("kind", "field", "degrees", "dims", "diffs", "sheaf")

    def __init__(self, kind: str, field: FieldTag, degrees: list[list[SummandTag]],
                 dims: list[list[int]], diffs: list[Matrix], sheaf: Sheaf | None = None):
        self.kind = kind
        self.field = field
        self.degrees = degrees
        self.dims = dims
        self.diffs = diffs
        self.sheaf = sheaf
        self._verify_shapes()
        if field.is_exact:
            self._verify_d2()

    @property
    def top_degree(self) -> int:
        return len(self.degrees) - 1

    def degree_dim(self, j: int) -> int:
        if 0 <= j <= self.top_degree:
            return sum(self.dims[j])
        return 0

    def _verify_shapes(self):
        for j, d in enumerate(self.diffs):
            if d.cols != self.degree_dim(j) or d.rows != self.degree_dim(j + 1):
                raise NotAComplex(f"differential d_{j} has inconsistent shape")

    def _verify_d2(self):
        for j in range(len(self.diffs) - 1):
            if not (self.diffs[j + 1] @ self.diffs[j]).is_zero():
                raise NotAComplex(f"d_{j + 1} . d_{j} != 0")

    def __repr__(self) -> str:
        shape = "+".join(str(self.degree_dim(j)) for j in range(self.top_degree + 1))
        return f"CochainComplexInstance({self.kind}, dims {shape})"


def _block_offsets(dims: list[int]) -> list[int]:
    out = [0]
    for d in dims:
        out.append(out[-1] + d)
    return out


def _write_block(target: Matrix, r0: int, c0: int, block: Matrix, scalar=None,
                 field: FieldTag | None = None, accumulate: bool = False):
    mul = field.mul if field else None
    add = field.add if field else None
    for i in range(block.rows):
        trow = target.data[r0 + i]
        brow = block.data[i]
        for j in range(block.cols):
            v = brow[j]
            if not v:
                continue
            if scalar is not None:
                v = mul(scalar, v)
            if accumulate:
                trow[c0 + j] = add(trow[c0 + j], v)
            else:
                trow[c0 + j] = v


def roos_complex(d: Sheaf) -> CochainComplexInstance:
    """Chain-indexed honest complex: C^j = sum over j-chains t of D(t_max),
    with alternating face signs and structure maps between chain maxima."""
    if not d.field.is_exact:
        raise FieldMismatch("roos_complex needs an exact field")
    groups = order_complex(d.poset)
    degrees: list[list[SummandTag]] = []
    dims: list[list[int]] = []
    position: dict[tuple[str, ...], tuple[int, int]] = {}
    for j, chains in enumerate(groups):
        tags = []
        for k, chain in enumerate(chains):
            position[chain.elements] = (j, k)
            tags.append(SummandTag(chain.top, k, chain=chain.elements))
        degrees.append(tags)
        dims.append([d.stalk(tag.element) for tag in tags])
    diffs = []
    for j in range(len(groups) - 1):
        col_off = _block_offsets(dims[j])
        row_off = _block_offsets(dims[j + 1])
        m = Matrix.zeros(row_off[-1], col_off[-1], d.field)
        for k, chain in enumerate(groups[j + 1]):
            sigma = chain.elements
            for i in range(len(sigma)):
                tau = sigma[:i] + sigma[i + 1:]
                _, col_k = position[tau]
                block = d.map(tau[-1], sigma[-1])
                sign = d.field.one() if i % 2 == 0 else d.field.coerce(-1)
                _write_block(m, row_off[k], col_off[col_k], block, sign, d.field,
                             accumulate=True)
        diffs.append(m)
    if len(groups) == 1:
        diffs = []
    return CochainComplexInstance(ROOS, d.field, degrees, dims, diffs, d)


def cellular_complex(d: Sheaf) -> CochainComplexInstance:
    """One-summand-per-simplex honest complex on a simplicial-complex poset,
    with the canonical alternating incidence signs."""
    if not d.field.is_exact:
        raise FieldMismatch("cellular_complex needs an exact field")
    decoded = decode_simplicial_elements(d.poset)
    if decoded is None:
        raise NotSimplicialPoset(
            "poset elements do not encode the simplices of a simplicial complex"
        )
    top = max((len(v) - 1 for v in decoded.values()), default=-1)
    degrees: list[list[SummandTag]] = [[] for _ in range(top + 1)]
    dims: list[list[int]] = [[] for _ in range(top + 1)]
    position: dict[tuple[str, ...], tuple[int, int]] = {}
    ordered = sorted(d.poset.elements, key=lambda e: (len(decoded[e]), decoded[e]))
    by_set = {decoded[e]: e for e in d.poset.elements}
    for e in ordered:
        j = len(decoded[e]) - 1
        position[decoded[e]] = (j, len(degrees[j]))
        degrees[j].append(SummandTag(e, len(degrees[j])))
        dims[j].append(d.stalk(e))
    diffs = []
    for j in range(top):
        col_off = _block_offsets(dims[j])
        row_off = _block_offsets(dims[j + 1])
        m = Matrix.zeros(row_off[-1], col_off[-1], d.field)
        for tag in degrees[j + 1]:
            sigma = decoded[tag.element]
            for i in range(len(sigma)):
                tau = sigma[:i] + sigma[i + 1:]
                _, col_k = position[tau]
                block = d.map(by_set[tau], tag.element)
                sign = d.field.one() if i % 2 == 0 else d.field.coerce(-1)
                _write_block(m, row_off[tag.copy], col_off[col_k], block, sign, d.field)
        diffs.append(m)
    return CochainComplexInstance(CELLULAR, d.field, degrees, dims, diffs, d)


@dataclass(frozen=True)
class IncidenceGenerator:
    gid: int
    degree: int
    owner: str


@dataclass
class IncidenceData:
    """Output of the incidence-matrix algorithm: generators stitched to poset
    elements plus the augmented incidence matrix.

    The matrix is indexed by ["@"] + generator ids; entry (row h, column g)
    holds the coefficient of h in the boundary of g.  The data depends only on
    the poset and field, and is reusable across sheaves.
    """

    poset: Poset
    field: FieldTag
    generators: list[IncidenceGenerator]
    complex: AugChainComplex

    def incidence(self, g: IncidenceGenerator, h: IncidenceGenerator):
        """Coefficient of h in the boundary of g (both proper generators)."""
        return self.complex.matrix.data[h.gid + 1][g.gid + 1]


def minimal_incidence(p: Poset, field: FieldTag) -> IncidenceData:
    """Incidence matrix computation.

    Walk the poset in topological order; for each element, restrict the
    accumulated augmented complex to the generators owned by its strict
    down-set (plus the augmentation generator), compute a homology basis, and
    create one new generator per class, one degree up, whose incidence column
    is the representative chain.
    """
    if not field.is_exact:
        raise FieldMismatch("minimal_incidence needs an exact field")
    labels: list = ["@"]
    degrees: list[int] = [-1]
    columns: list[dict[int, object]] = [{}]
    owners: list[str | None] = [None]
    owned: dict[str, list[int]] = {}
    for s in p.topo_order:
        below = p.strict_lower(s)
        keep = [0] + sorted(pos for t in below for pos in owned.get(t, ()))
        sub_matrix = Matrix.zeros(len(keep), len(keep), field)
        keep_index = {pos: i for i, pos in enumerate(keep)}
        for i, pos in enumerate(keep):
            for row_pos, value in columns[pos].items():
                sub_matrix.data[keep_index[row_pos]][i] = value
        sub = AugChainComplex(
            [labels[pos] for pos in keep],
            [degrees[pos] for pos in keep],
            sub_matrix,
            field,
        )
        result = homology_basis(sub)
        owned[s] = []
        for deg, rc in zip(result.degrees, result.rc):
            gid = len(labels)
            labels.append(f"g{gid - 1}")
            degrees.append(deg + 1)
            columns.append({keep[local]: value for local, value in rc.items()})
            owners.append(s)
            owned[s].append(gid)
    n = len(labels)
    matrix = Matrix.zeros(n, n, field)
    for col, entries in enumerate(columns):
        for row, value in entries.items():
            matrix.data[row][col] = value
    complex_ = AugChainComplex(labels, degrees, matrix, field)
    generators = [
        IncidenceGenerator(pos - 1, degrees[pos], owners[pos]) for pos in range(1, n)
    ]
    return IncidenceData(p, field, generators, complex_)


def minimal_complex(d: Sheaf, inc: IncidenceData) -> CochainComplexInstance:
    """Minimal honest complex: one stalk copy per incidence generator, with
    differential blocks I(g2, g1) . D(owner(g1) < owner(g2)).

    A sheaf over R takes incidence data over Q, whose scalars embed in R.
    """
    if inc.poset != d.poset:
        raise PosetMismatch("incidence data was computed on a different poset")
    if inc.field != (QQ if d.field == RR else d.field):
        raise FieldMismatch("incidence data uses a different field")
    top = max((g.degree for g in inc.generators), default=-1)
    degrees: list[list[SummandTag]] = [[] for _ in range(top + 1)]
    dims: list[list[int]] = [[] for _ in range(top + 1)]
    slot: dict[int, tuple[int, int]] = {}
    for g in inc.generators:
        j = g.degree
        slot[g.gid] = (j, len(degrees[j]))
        degrees[j].append(SummandTag(g.owner, len(degrees[j]), gid=g.gid))
        dims[j].append(d.stalk(g.owner))
    diffs = []
    gens_by_degree: dict[int, list[IncidenceGenerator]] = {}
    for g in inc.generators:
        gens_by_degree.setdefault(g.degree, []).append(g)
    for j in range(top):
        col_off = _block_offsets(dims[j])
        row_off = _block_offsets(dims[j + 1])
        m = Matrix.zeros(row_off[-1], col_off[-1], d.field)
        for g2 in gens_by_degree.get(j + 1, ()):
            for g1 in gens_by_degree.get(j, ()):
                scalar = inc.incidence(g2, g1)
                if not scalar:
                    continue
                block = d.map(g1.owner, g2.owner)
                _write_block(m, row_off[slot[g2.gid][1]], col_off[slot[g1.gid][1]],
                             block, scalar, d.field)
        diffs.append(m)
    return CochainComplexInstance(MINIMAL, d.field, degrees, dims, diffs, d)


def cohomology(c: CochainComplexInstance) -> list[tuple[int, list[list]]]:
    """Per-degree Betti numbers with representative cochains.

    Implemented by handing the differential to the homology solver with the
    grading reversed, so representatives genuinely lie in ker d_j.
    """
    top = c.top_degree
    labels = []
    degrees = []
    spans = []
    for j in range(top + 1):
        start = len(labels)
        for i in range(c.degree_dim(j)):
            labels.append((j, i))
            degrees.append(top - j)
        spans.append((start, len(labels)))
    n = len(labels)
    m = Matrix.zeros(n, n, c.field)
    for j, diff in enumerate(c.diffs):
        r0 = spans[j + 1][0]
        c0 = spans[j][0]
        for i in range(diff.rows):
            for k in range(diff.cols):
                if diff.data[i][k]:
                    m.data[r0 + i][c0 + k] = diff.data[i][k]
    result = homology_basis(AugChainComplex(labels, degrees, m, c.field))
    out: list[tuple[int, list[list]]] = []
    for j in range(top + 1):
        reps = []
        for deg, rc in zip(result.degrees, result.rc):
            if top - deg != j:
                continue
            vec = [c.field.zero()] * c.degree_dim(j)
            for pos, value in rc.items():
                vec[pos - spans[j][0]] = value
            reps.append(vec)
        out.append((len(reps), reps))
    return out


def betti_numbers(c: CochainComplexInstance) -> list[int]:
    """Betti vector via rank-nullity, one entry per graded component."""
    top = c.top_degree
    ranks = [rank(diff) for diff in c.diffs]
    out = []
    for j in range(top + 1):
        dim_j = c.degree_dim(j)
        rank_out = ranks[j] if j < len(ranks) else 0
        rank_in = ranks[j - 1] if j >= 1 else 0
        out.append(dim_j - rank_out - rank_in)
    return out


def build_complex(d: Sheaf, method: str,
                  inc: IncidenceData | None = None) -> CochainComplexInstance:
    method = method.lower()
    if method == ROOS:
        return roos_complex(d)
    if method == CELLULAR:
        return cellular_complex(d)
    if method == MINIMAL:
        if inc is None:
            inc = minimal_incidence(d.poset, d.field)
        return minimal_complex(d, inc)
    raise FieldMismatch(f"unknown construction {method!r}")


def betti(d: Sheaf, method: str, inc: IncidenceData | None = None) -> list[int]:
    """Dispatch wrapper over the chosen construction."""
    return betti_numbers(build_complex(d, method, inc))


@dataclass(frozen=True)
class ComplexStats:
    """Summand multiplicities per (element, degree) and their total."""

    multiplicities: dict[tuple[str, int], int]
    complexity: int

    def mu(self, element: str, degree: int) -> int:
        return self.multiplicities.get((element, degree), 0)


def multiplicities(c: CochainComplexInstance) -> ComplexStats:
    mu: dict[tuple[str, int], int] = {}
    total = 0
    for j, tags in enumerate(c.degrees):
        for tag in tags:
            mu[(tag.element, j)] = mu.get((tag.element, j), 0) + 1
            total += 1
    return ComplexStats(mu, total)
