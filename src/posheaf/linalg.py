"""Exact field arithmetic, dense matrices, sparse Gaussian elimination, and
the homology-basis solver for graded complexes given by per-degree blocks.

Matrices are stored dense.  ``rref``, through which ``rank``, ``kernel_basis``,
``invert`` and ``homology_basis`` all eliminate, works on sparse rows
({column: value} over the nonzeros): a forward pass, then back-substitution
from the last pivot to the first.

Scalars are ``fractions.Fraction`` over the rationals, plain ``int`` residues
in [0, p) over a prime field, and ``float`` over the (approximate) reals.
The reals are rejected by every elimination routine here; they only exist so
the spectral layer can share the matrix container.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, NotAComplex

RATIONALS = "Q"
PRIME = "Fp"
REALS = "R"
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)  # shared: a Fraction is immutable


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the bases 2, 3, 5, 7 decide every
    n < 3,215,031,751, which covers the moduli below 2^31."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
        return 0.0 if self.kind == REALS else (_Q_ZERO if self.kind == RATIONALS else 0)

    def one(self):
        return 1.0 if self.kind == REALS else (_Q_ONE if self.kind == RATIONALS else 1)

    def coerce(self, value):
        """Normalize an int/str/Fraction/float into this field's scalar type.

        Over F_p a rational n/d maps to n * d^-1 mod p; a denominator that p
        divides, a float that is not an integer, or a value that is not a
        rational number raises FieldMismatch.
        """
        if self.kind == RATIONALS:
            return Fraction(value)
        if self.kind == PRIME:
            if isinstance(value, float) and not value.is_integer():
                raise FieldMismatch(f"{value!r} is not an integer")
            try:
                q = Fraction(value)
            except (TypeError, ValueError) as exc:
                raise FieldMismatch(f"{value!r} is not a rational number: {exc}") from None
            if q.denominator % self.p == 0:
                raise FieldMismatch(f"{value!r} has no residue mod {self.p}")
            return q.numerator * pow(q.denominator, -1, self.p) % self.p
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


def _nonzeros(row) -> dict:
    """A dense row as a sparse row: {column: value} over its nonzero entries."""
    return {j: x for j, x in enumerate(row) if x}


def _dense(row: dict, n: int, zero) -> list:
    out = [zero] * n
    for j, x in row.items():
        out[j] = x
    return out


def _add_multiple(row: dict, c, other: dict, f: FieldTag):
    """row += c * other on sparse rows, in place; entries that cancel are
    removed, so a sparse row never stores a zero."""
    add, mul = f.add, f.mul
    for j, x in other.items():
        v = add(row[j], mul(c, x)) if j in row else mul(c, x)
        if v:
            row[j] = v
        else:
            del row[j]


def _with_lead_one(row: dict, lead: int, f: FieldTag) -> dict:
    """The sparse row scaled so that its entry in column lead is 1."""
    pv = row[lead]
    one = f.one()
    if pv == one:
        return row
    inv, mul = f.div(one, pv), f.mul
    return {j: mul(inv, x) for j, x in row.items()}


def rref(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Reduced row echelon form of an exact-field matrix.

    Returns (reduced matrix, pivot column indices in increasing order, rank).

    Two passes on sparse rows.  Forward: each row in turn has its leading
    entry cancelled by the pivot row owning that column until it vanishes or
    leads in a new column, whose pivot row it becomes, scaled to lead with 1.
    Back-substitution: from the last pivot row to the first, clear a row's
    entries in later pivot columns with the rows already fully reduced; they
    vanish in every other pivot column, so each subtraction changes free
    columns only, and on a cycle's coboundary each row meets O(1) others.
    Row operations keep the row space, which has exactly one reduced row
    echelon form, so the result equals dense Gauss-Jordan's entry for entry.
    """
    _require_exact(m.field, "rref")
    f = m.field
    zero = f.zero()
    owner: dict[int, dict] = {}
    for row in map(_nonzeros, m.data):
        while row:
            lead = min(row)
            if lead not in owner:
                owner[lead] = _with_lead_one(row, lead, f)
                break
            _add_multiple(row, f.neg(row[lead]), owner[lead], f)
    pivots = sorted(owner)
    for pc in reversed(pivots):
        row = owner[pc]
        for j in [j for j in row if j != pc and j in owner]:
            _add_multiple(row, f.neg(row[j]), owner[j], f)
    data = [_dense(owner[pc], m.cols, zero) for pc in pivots]
    data += [[zero] * m.cols for _ in range(m.rows - len(pivots))]
    return Matrix(m.rows, m.cols, data, f), pivots, len(pivots)


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
# Graded complexes and the homology-basis solver.
# ---------------------------------------------------------------------------

def check_d_squared(diffs: list[Matrix]):
    """Raise NotAComplex unless each composite of consecutive differentials
    vanishes; diffs[j] maps degree j to degree j + 1.  The products are formed
    on sparse rows."""
    for j in range(len(diffs) - 1):
        f = diffs[j].field
        inner = [_nonzeros(row) for row in diffs[j].data]
        for row in diffs[j + 1].data:
            product: dict = {}
            for k, a in _nonzeros(row).items():
                _add_multiple(product, a, inner[k], f)
            if product:
                raise NotAComplex(f"d_{j + 1} . d_{j} != 0")


def _reduce_against(vec: dict, reducers: list[tuple[int, dict]], f: FieldTag) -> dict:
    """Eliminate a sparse vector, in order, against sparse rows with known
    pivot columns (leading entry 1)."""
    out = dict(vec)
    for pc, row in reducers:
        c = out.get(pc)
        if c is not None:
            _add_multiple(out, f.neg(c), row, f)
    return out


def homology_basis(diffs: list[Matrix], dims: list[int], field: FieldTag) -> list[list[list]]:
    """Representatives of a homology basis of a graded complex, degree by degree.

    Degree i of the complex has dimension dims[i], and diffs[i] is the
    differential from degree i to degree i + 1 (rows index degree i + 1).  A
    chain complex, whose boundary lowers degree, enters with its grading
    negated.  The result holds, per degree, vectors of length dims[i]: kernel
    vectors in RREF free-variable form, reduced modulo an RREF basis of the
    incoming image, and kept verbatim when independent of that image and of
    the representatives kept before them.
    """
    _require_exact(field, "homology_basis")
    if len(diffs) != max(len(dims) - 1, 0) or any(
        d.field != field or d.cols != dims[i] or d.rows != dims[i + 1]
        for i, d in enumerate(diffs)
    ):
        raise NotAComplex("differentials do not match the degree dimensions")
    check_d_squared(diffs)
    out: list[list[list]] = []
    for i, n in enumerate(dims):
        if i < len(diffs):
            kernel = [_nonzeros(vec) for vec in kernel_basis(diffs[i])]
        else:
            kernel = [{k: field.one()} for k in range(n)]
        reps: list[list] = []
        out.append(reps)
        if not kernel:
            continue
        reducers: list[tuple[int, dict]] = []
        if i > 0:
            image_rows = [list(col) for col in zip(*diffs[i - 1].data) if any(col)]
            if image_rows:
                red, pivots, _ = rref(Matrix(len(image_rows), n, image_rows, field))
                reducers = [(pc, _nonzeros(red.data[r])) for r, pc in enumerate(pivots)]
        # rows of `kept` vanish at the image pivots, as every candidate does
        kept: list[tuple[int, dict]] = []
        for kvec in kernel:
            candidate = _reduce_against(kvec, reducers, field)
            residue = _reduce_against(candidate, kept, field)
            if not residue:
                continue
            lead = min(residue)
            kept.append((lead, _with_lead_one(residue, lead, field)))
            reps.append(_dense(candidate, n, field.zero()))
    return out
