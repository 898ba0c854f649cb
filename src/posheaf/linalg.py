"""Exact field arithmetic, dense matrices, Gaussian elimination, and the
homology-basis solver for augmented chain complexes.

Scalars are ``fractions.Fraction`` over the rationals, plain ``int`` residues
in [0, p) over a prime field, and ``float`` over the (approximate) reals.
The reals are rejected by every elimination routine here; they only exist so
the spectral layer can share the matrix container.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import (
    DegreeViolation,
    FieldMismatch,
    NotAComplex,
    NotClosedUnderDifferential,
)

RATIONALS = "Q"
PRIME = "Fp"
REALS = "R"

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _SMALL_PRIMES:
        if p == q:
            return True
        if p % q == 0:
            return False
    d = 41
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldTag:
    """Ground field marker: rationals, a prime field F_p (p < 2^31), or floats."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in (RATIONALS, PRIME, REALS):
            raise FieldMismatch(f"unknown field kind {self.kind!r}")
        if self.kind == PRIME:
            if self.p is None or not (2 <= self.p < 2**31) or not _is_prime(self.p):
                raise FieldMismatch(f"modulus {self.p!r} is not a prime below 2^31")
        elif self.p is not None:
            raise FieldMismatch("modulus only makes sense for prime fields")

    @property
    def is_exact(self) -> bool:
        return self.kind != REALS

    def zero(self):
        return 0.0 if self.kind == REALS else (Fraction(0) if self.kind == RATIONALS else 0)

    def one(self):
        return 1.0 if self.kind == REALS else (Fraction(1) if self.kind == RATIONALS else 1)

    def coerce(self, value):
        """Normalize an int/str/Fraction/float into this field's scalar type."""
        if self.kind == RATIONALS:
            return Fraction(value)
        if self.kind == PRIME:
            return int(value) % self.p
        return float(value)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == PRIME else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == PRIME else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == PRIME else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == PRIME else -a

    def div(self, a, b):
        if self.kind == PRIME:
            return a * pow(b, -1, self.p) % self.p
        return a / b

    def __str__(self) -> str:
        if self.kind == PRIME:
            return f"Fp:{self.p}"
        return self.kind


QQ = FieldTag(RATIONALS)
RR = FieldTag(REALS)


def prime_field(p: int) -> FieldTag:
    return FieldTag(PRIME, p)


def _require_exact(field: FieldTag, what: str):
    if not field.is_exact:
        raise FieldMismatch(f"{what} requires an exact field, got {field}")


class Matrix:
    """Dense matrix over a FieldTag, stored as a list of row lists."""

    __slots__ = ("rows", "cols", "data", "field")

    def __init__(self, rows: int, cols: int, data, field: FieldTag):
        self.rows = rows
        self.cols = cols
        self.data = data
        self.field = field

    @classmethod
    def zeros(cls, rows: int, cols: int, field: FieldTag) -> "Matrix":
        z = field.zero()
        return cls(rows, cols, [[z] * cols for _ in range(rows)], field)

    @classmethod
    def identity(cls, n: int, field: FieldTag) -> "Matrix":
        m = cls.zeros(n, n, field)
        one = field.one()
        for i in range(n):
            m.data[i][i] = one
        return m

    @classmethod
    def from_rows(cls, rows, field: FieldTag) -> "Matrix":
        data = [[field.coerce(x) for x in row] for row in rows]
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise FieldMismatch("ragged rows")
        return cls(len(data), ncols, data, field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field})"

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        sub = self.field.sub
        data = [
            [sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)
        ]
        return Matrix(self.rows, self.cols, data, self.field)

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        c = self.field.coerce(c)
        return Matrix(
            self.rows, self.cols, [[mul(c, x) for x in row] for row in self.data], self.field
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("matrix product across different fields")
        if self.cols != other.rows:
            raise FieldMismatch(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        out = Matrix.zeros(self.rows, other.cols, self.field)
        add, mul = self.field.add, self.field.mul
        bdata = other.data
        for i, arow in enumerate(self.data):
            orow = out.data[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = bdata[k]
                for j, b in enumerate(brow):
                    if b:
                        orow[j] = add(orow[j], mul(a, b))
        return out

    def apply(self, vec):
        """Matrix-vector product; vec is a plain list of scalars."""
        if len(vec) != self.cols:
            raise FieldMismatch("vector length does not match column count")
        add, mul = self.field.add, self.field.mul
        out = [self.field.zero()] * self.rows
        for i, row in enumerate(self.data):
            acc = out[i]
            for j, a in enumerate(row):
                if a and vec[j]:
                    acc = add(acc, mul(a, vec[j]))
            out[i] = acc
        return out

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("mixed fields")
        if self.rows != other.rows or self.cols != other.cols:
            raise FieldMismatch("shape mismatch")


def rref(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Reduced row echelon form of an exact-field matrix.

    Returns (reduced matrix, pivot column indices in increasing order, rank).
    """
    _require_exact(m.field, "rref")
    f = m.field
    sub, mul, div = f.sub, f.mul, f.div
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


def rank(m: Matrix) -> int:
    return rref(m)[2]


def kernel_basis(m: Matrix) -> list[list]:
    """Basis of the right null space, one vector per non-pivot column.

    Each basis vector has entry 1 at its free column; the pivot coordinates are
    filled by back-substitution from the RREF.
    """
    _require_exact(m.field, "kernel_basis")
    f = m.field
    red, pivots, _ = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [f.zero()] * m.cols
        vec[free] = f.one()
        for r, pc in enumerate(pivots):
            coef = red.data[r][free]
            if coef:
                vec[pc] = f.neg(coef)
        basis.append(vec)
    return basis


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square exact matrix, or None when singular."""
    _require_exact(m.field, "invert")
    if m.rows != m.cols:
        return None
    n = m.rows
    f = m.field
    aug = Matrix(n, 2 * n, [row[:] + ident_row for row, ident_row in
                            zip(m.data, Matrix.identity(n, f).data)], f)
    red, pivots, rk = rref(aug)
    if rk < n or pivots[:n] != list(range(n)):
        return None
    inv_rows = [red.data[i][n:] for i in range(n)]
    return Matrix(n, n, inv_rows, f)


# ---------------------------------------------------------------------------
# Augmented chain complexes and the homology-basis solver.
# ---------------------------------------------------------------------------

@dataclass
class AugChainComplex:
    """A finite chain complex given by homogeneous generators and one square
    differential matrix.

    ``matrix.data[b][a]`` holds the coefficient of generator ``b`` in the
    boundary of generator ``a`` (column = input, row = output).  Degrees live
    in {-1} union the nonnegative integers; the boundary lowers degree by one.
    """

    labels: list
    degrees: list[int]
    matrix: Matrix
    field: FieldTag

    def __post_init__(self):
        n = len(self.labels)
        if len(self.degrees) != n or self.matrix.rows != n or self.matrix.cols != n:
            raise FieldMismatch("generator count and matrix size disagree")

    @property
    def size(self) -> int:
        return len(self.labels)

    def positions_of_degree(self, j: int) -> list[int]:
        return [i for i, d in enumerate(self.degrees) if d == j]

    def validate(self):
        """Check the degree rule and the d^2 = 0 contract."""
        for a in range(self.size):
            col_deg = self.degrees[a]
            for b in range(self.size):
                if self.matrix.data[b][a] and self.degrees[b] != col_deg - 1:
                    raise DegreeViolation(
                        f"entry ({self.labels[b]!r}, {self.labels[a]!r}) violates the grading"
                    )
        square = self.matrix @ self.matrix
        if not square.is_zero():
            raise NotAComplex("differential does not square to zero")


@dataclass
class HomologyBasisResult:
    """Homology generators with degrees and sparse representative chains.

    ``rc[i]`` maps a generator position in the source complex to its nonzero
    coefficient in the i-th representative cycle.
    """

    degrees: list[int]
    rc: list[dict]
    field: FieldTag = dc_field(default=QQ)

    @property
    def size(self) -> int:
        return len(self.degrees)

    def dims_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return out


def _reduce_against(vec: list, reducers: list[tuple[int, list]], f: FieldTag) -> list:
    """Eliminate vec against rows with known pivot columns (leading entry 1)."""
    sub, mul = f.sub, f.mul
    out = vec[:]
    for pc, row in reducers:
        c = out[pc]
        if c:
            for j, rj in enumerate(row):
                if rj:
                    out[j] = sub(out[j], mul(c, rj))
    return out


def _normalized_reducer(vec: list, f: FieldTag) -> tuple[int, list] | None:
    for j, x in enumerate(vec):
        if x:
            if x == f.one():
                return j, vec
            inv = f.div(f.one(), x)
            return j, [f.mul(inv, y) for y in vec]
    return None


def homology_basis(c: AugChainComplex) -> HomologyBasisResult:
    """Representative cycles for a basis of homology, degree by degree.

    Representatives follow the sparsity heuristic: kernel vectors are taken in
    RREF free-variable form and reduced modulo an RREF basis of the boundary
    image; the reduced vectors are kept verbatim.
    """
    _require_exact(c.field, "homology_basis")
    c.validate()
    f = c.field
    degs_present = sorted(set(c.degrees))
    out_degrees: list[int] = []
    out_rc: list[dict] = []
    for j in degs_present:
        pos_j = c.positions_of_degree(j)
        pos_below = c.positions_of_degree(j - 1)
        pos_above = c.positions_of_degree(j + 1)
        nj = len(pos_j)
        if nj == 0:
            continue
        # kernel of the boundary leaving degree j
        if pos_below:
            block = Matrix(
                len(pos_below),
                nj,
                [[c.matrix.data[b][a] for a in pos_j] for b in pos_below],
                f,
            )
            kernel = kernel_basis(block)
        else:
            kernel = [list(row) for row in Matrix.identity(nj, f).data]
        if not kernel:
            continue
        # RREF basis of the boundary image entering degree j
        image_rows = []
        for a in pos_above:
            col = [c.matrix.data[b][a] for b in pos_j]
            if any(col):
                image_rows.append(col)
        reducers: list[tuple[int, list]] = []
        if image_rows:
            red, pivots, rk = rref(Matrix(len(image_rows), nj, image_rows, f))
            reducers = [(pc, red.data[r]) for r, pc in enumerate(pivots)]
        workspace = list(reducers)
        for kvec in kernel:
            candidate = _reduce_against(kvec, reducers, f)
            residue = _reduce_against(candidate, workspace, f)
            norm = _normalized_reducer(residue, f)
            if norm is None:
                continue
            workspace.append(norm)
            out_degrees.append(j)
            out_rc.append({pos_j[i]: x for i, x in enumerate(candidate) if x})
    return HomologyBasisResult(out_degrees, out_rc, f)


def restrict(c: AugChainComplex, keep: list[int]) -> AugChainComplex:
    """Restriction of the complex to the generators at the given positions.

    The differential must preserve the span of the kept generators.
    """
    keep_set = set(keep)
    for a in keep:
        for b in range(c.size):
            if b not in keep_set and c.matrix.data[b][a]:
                raise NotClosedUnderDifferential(
                    f"boundary of {c.labels[a]!r} leaves the selected span at {c.labels[b]!r}"
                )
    labels = [c.labels[i] for i in keep]
    degrees = [c.degrees[i] for i in keep]
    data = [[c.matrix.data[b][a] for a in keep] for b in keep]
    return AugChainComplex(labels, degrees, Matrix(len(keep), len(keep), data, c.field), c.field)
