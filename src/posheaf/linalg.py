"""Exact field arithmetic, sparse matrices, Gaussian elimination, and the
homology-basis solver for graded complexes given by per-degree blocks.

A matrix is stored as sparse rows: row i is a dict {column: value} over its
nonzero entries, and no stored value is ever zero.  Every row operation is
one call of ``_add_multiple``, and every echelon step is one ``_insert_row``:
reduce a row by the rows owning its lead column until it vanishes or leads in
a new column, which it then owns.  The one forward pass, ``_echelon``, takes
the nonzero rows in decreasing lexicographic order of their sorted columns,
so by decreasing lead; ``rank`` counts its pivot rows, and
``_back_substitute`` reduces them to the one reduced row echelon form,
whatever the order.  ``rref`` is the two in turn, and ``kernel_basis`` and
``homology_basis`` read kernel vectors off the same two passes.
``homology_basis`` runs a differential's forward pass once, back-substitutes
it only where the Betti number it gives is nonzero, and keeps a
representative iff ``_insert_row`` stores it.  The order bounds the work on
rows that share lead columns, as a differential's and the Hasse-edge system
of ``sections`` do.  Every row taken
before the first one leading in column l leads after l, and a row is stored
at or after its lead, so that row is stored as it entered.  Each later one
has its next column at or before that pivot row's, so one subtraction leaves
it leading there, or after it where the two cancel: rows sharing a lead do
not chain through each other's columns.  Dense rows exist only at the edges:
the constructor takes them, and ``Matrix.data`` returns a fresh dense copy
for rendering and conversion.

Scalars are plain ``int`` residues in [0, p) over a prime field, ``float``
over the (approximate) reals, and over the rationals an ``int`` where
integral and a ``fractions.Fraction`` only where the denominator exceeds 1
(``rational``).  Since ``int op Fraction`` is exact, every kernel computes
with Python's ``+``, ``-`` and ``*`` on either, with no type test, and
reduces with ``% p`` where the field has a modulus p.  Elimination over Q
builds no Fraction: rows enter as primitive integer rows (``_enter``, which
divides an all-int row by its gcd and rescales only a row holding a
Fraction), and a pivot row is one again (``_pivot_row``), as in Bareiss's
integer-preserving elimination with the content as divisor.  Clearing a
column of a row with a pivot row is row := a * row - b * pivot, a and b their
entries there, over both exact fields, since an F_p pivot row leads with 1.
``_back_substitute`` builds a Fraction only for an entry that its row's lead
does not divide.
``check_d_squared`` is the one test that consecutive differentials compose to
zero, for every field: exactly over Q and F_p, within a relative tolerance
over R.  The code that builds blocks runs it on them, once:
``homology_basis`` checks only its input's field and shapes.

The field rules live here alone.  An F_p modulus is an ``int`` below 2^31
that trial division (``_is_prime``, cached) finds prime.  A stage that needs
Q or F_p calls ``require_exact``, one that needs Q or R ``require_real``;
they alone raise a field requirement, naming the stage and the field given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, inf, isnan, isqrt, lcm, nan
from numbers import Integral

from .errors import FieldMismatch, NotAComplex, OverflowOnConvert, brief

RATIONALS = "Q"
PRIME = "Fp"
REALS = "R"
D2_RESIDUAL_TOL = 1e-10


def rational(q):
    """The Q scalar of a Fraction or int q: a plain int when q is integral."""
    return q.numerator if q.denominator == 1 else q


@cache  # below 2^31, up to 23,170 divisions: paid once per modulus
def _is_prime(n: int) -> bool:
    """Trial division by 2 and by the odd q <= isqrt(n)."""
    return n > 1 and (n < 4 or n % 2 == 1 and all(n % q for q in range(3, isqrt(n) + 1, 2)))


@dataclass(frozen=True)
class FieldTag:
    """Ground field marker: rationals, a prime field F_p (p < 2^31), or floats."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in (RATIONALS, PRIME, REALS):
            raise FieldMismatch(f"unknown field kind {self.kind!r}")
        if self.kind == PRIME:
            if type(self.p) is not int or not 2 <= self.p < 2**31 or not _is_prime(self.p):
                raise FieldMismatch(f"modulus {brief(repr(self.p))} is not a prime below 2^31")
        elif self.p is not None:
            raise FieldMismatch("modulus only makes sense for prime fields")

    @property
    def is_exact(self) -> bool:
        return self.kind != REALS

    def zero(self):
        return 0.0 if self.kind == REALS else 0

    def one(self):
        return 1.0 if self.kind == REALS else 1

    def coerce(self, value):
        """Normalize an int/str/Fraction/float into this field's scalar type,
        reading numpy's fixed-width integers as ints, so no product wraps.

        A value that is not a number of the field (over Q and F_p one that
        ``Fraction`` refuses, over R one that ``float`` refuses, or nan)
        raises FieldMismatch, as does, over F_p, a denominator that p divides
        or a float that is not an integer.  Over R a value beyond the
        doubles, infinities included, raises OverflowOnConvert.  Over F_p a
        rational n/d maps to n * d^-1 mod p.
        """
        if isinstance(value, Integral):
            value = int(value)
        if self.kind == REALS:
            try:
                x = float(value)
            except OverflowError:
                x = inf
            except (TypeError, ValueError):  # not a number: refused as nan is
                x = nan
            if isnan(x):
                raise FieldMismatch(f"{brief(repr(value))} is not a real number")
            if x in (inf, -inf):
                raise OverflowOnConvert("a real scalar beyond the double range")
            return x
        if self.kind == PRIME and isinstance(value, float) and not value.is_integer():
            raise FieldMismatch(f"{brief(repr(value))} is not an integer")
        try:
            q = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise FieldMismatch(
                f"{brief(repr(value))} is not a rational number: {brief(str(exc))}"
            ) from None
        if self.kind == RATIONALS:
            return rational(q)
        if q.denominator % self.p == 0:
            raise FieldMismatch(f"{brief(repr(value))} has no residue mod {self.p}")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def __str__(self) -> str:
        return f"Fp:{self.p}" if self.kind == PRIME else self.kind


QQ = FieldTag(RATIONALS)
RR = FieldTag(REALS)


def prime_field(p: int) -> FieldTag:
    return FieldTag(PRIME, p)


def require_exact(field: FieldTag, what: str):
    if not field.is_exact:
        raise FieldMismatch(f"{what} requires an exact field, got {field}")


def require_real(field: FieldTag, what: str):
    if field.kind == PRIME:
        raise FieldMismatch(f"{what} requires a rational or real field, got {field}")


class Matrix:
    """Matrix over a FieldTag, stored as sparse rows that never hold a zero.

    ``Matrix(rows, cols, data, field)`` and ``from_rows`` take dense rows;
    ``data`` is a dense copy, so writing into it changes nothing.
    """

    __slots__ = ("rows", "cols", "field", "_entries")

    def __init__(self, rows: int, cols: int, data, field: FieldTag):
        self.rows = rows
        self.cols = cols
        self.field = field
        self._entries = [{j: x for j, x in enumerate(row) if x} for row in data]

    @classmethod
    def _of(cls, rows: int, cols: int, entries: list[dict], field: FieldTag) -> "Matrix":
        """A matrix that takes ownership of sparse rows holding no zero."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.field, m._entries = rows, cols, field, entries
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int, field: FieldTag) -> "Matrix":
        return cls._of(rows, cols, [{} for _ in range(rows)], field)

    @classmethod
    def identity(cls, n: int, field: FieldTag) -> "Matrix":
        one = field.one()
        return cls._of(n, n, [{i: one} for i in range(n)], field)

    @classmethod
    def from_rows(cls, rows, field: FieldTag) -> "Matrix":
        data = [[field.coerce(x) for x in row] for row in rows]
        ncols = len(data[0]) if data else 0
        for row in data:
            if len(row) != ncols:
                raise FieldMismatch("ragged rows")
        return cls(len(data), ncols, data, field)

    @classmethod
    def from_columns(cls, rows: int, columns: list[dict], field: FieldTag) -> "Matrix":
        """The matrix whose column c has the nonzero entries columns[c], a
        dict {row: value}."""
        return cls._of(rows, len(columns), _transpose(columns, rows), field)

    @property
    def data(self) -> list[list]:
        """A fresh dense copy, as a list of row lists."""
        zero = self.field.zero()
        out = []
        for row in self._entries:
            dense = [zero] * self.cols
            for j, x in row.items():
                dense[j] = x
            out.append(dense)
        return out

    def nonzeros(self):
        """The stored entries as (row, column, value) triples."""
        for i, row in enumerate(self._entries):
            for j, x in row.items():
                yield i, j, x

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and (
            (self.rows, self.cols, self.field, self._entries)
            == (other.rows, other.cols, other.field, other._entries))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field})"

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or (self.rows, self.cols) != (other.rows, other.cols):
            raise FieldMismatch("difference of matrices with different fields or shapes")
        out = Matrix._of(self.rows, self.cols, [dict(row) for row in self._entries], self.field)
        out.add_block(0, 0, other, -1)
        return out

    def scale(self, c) -> "Matrix":
        c, p = self.field.coerce(c), self.field.p
        entries = [{j: v for j, x in row.items() if (v := c * x % p if p else c * x)}
                   for row in self._entries]
        return Matrix._of(self.rows, self.cols, entries, self.field)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row i of the product is ``_product_row`` of row i of self."""
        _composable(self, other)
        p = self.field.p
        entries = [_product_row(arow, other._entries, p) for arow in self._entries]
        return Matrix._of(self.rows, other.cols, entries, self.field)

    def add_block(self, r0: int, c0: int, block: "Matrix", scalar=1):
        """Add scalar * block in place, with the block's top left corner at
        (r0, c0); the scalar is one of the field's or a plain int."""
        for brow, row in zip(block._entries, self._entries[r0:r0 + block.rows]):
            _add_multiple(row, scalar, {c0 + j: x for j, x in brow.items()}, self.field.p)


def _composable(a: Matrix, b: Matrix):
    """Refuse the product a . b across fields or shapes."""
    if a.field != b.field:
        raise FieldMismatch("matrix product across different fields")
    if a.cols != b.rows:
        raise FieldMismatch(f"shape mismatch in product: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")


def _product_row(arow: dict, inner: list[dict], p: int | None) -> dict:
    """A row of a product: arow's a_k * (row k of inner), summed in increasing
    k, the order in which a dense loop sums them."""
    row: dict = {}
    for k in sorted(arow):
        _add_multiple(row, arow[k], inner[k], p)
    return row


def _transpose(entries: list[dict], n: int) -> list[dict]:
    """Sparse rows of the transpose of sparse rows with n columns."""
    out: list[dict] = [{} for _ in range(n)]
    for i, row in enumerate(entries):
        for j, x in row.items():
            out[j][i] = x
    return out


def _add_multiple(row: dict, c, other: dict, p: int | None, a=1):
    """row := a * row + c * other on sparse rows, in place, reduced mod p when
    p is set; entries that cancel or underflow are removed, so a sparse row
    never stores a zero."""
    if a != 1:
        for j in row:
            row[j] = row[j] * a % p if p else row[j] * a
    for j, x in other.items():
        v = row[j] + c * x if j in row else c * x
        if p:
            v %= p
        if v:
            row[j] = v
        else:
            row.pop(j, None)


def _pivot_row(row: dict, lead, p: int | None) -> dict:
    """Make row a pivot row, in place: over F_p scale it to 1 in column lead,
    over Q divide it by the gcd of its entries (lead is not read)."""
    if p:
        if row[lead] != 1:
            inv = pow(row[lead], -1, p)
            for j in row:
                row[j] = inv * row[j] % p
    elif (g := gcd(*row.values())) > 1:
        for j in row:
            row[j] //= g
    return row


def _enter(row: dict, p: int | None) -> dict:
    """A fresh copy of row to eliminate; over Q the primitive integer row with
    its span: an integral row over its content, any other row times the lcm
    of its denominators over its content."""
    row = dict(row)
    if p:
        return row
    try:
        return _pivot_row(row, None, p)
    except TypeError:  # gcd takes ints only: a Fraction is among the values
        d = lcm(*(x.denominator for x in row.values()))
        return _pivot_row({j: x.numerator * (d // x.denominator) for j, x in row.items()}, None, p)


def _insert_row(owner: dict[int, dict], row: dict, p: int | None) -> bool:
    """Reduce row in place by owner[lead] until it vanishes or leads in a column
    no row owns, then store it there as a pivot row; return whether it was."""
    while row:
        lead = min(row)
        if lead not in owner:
            owner[lead] = _pivot_row(row, lead, p)
            return True
        other = owner[lead]
        _add_multiple(row, -row[lead], other, p, other[lead])
    return False


def _echelon(m: Matrix) -> dict[int, dict]:
    """{pivot column: pivot row} of m's nonzero rows, in the module notes' order."""
    p = m.field.p
    owner: dict[int, dict] = {}
    for row in sorted((_enter(row, p) for row in m._entries if row), key=sorted, reverse=True):
        _insert_row(owner, row, p)
    return owner


def _back_substitute(owner: dict[int, dict], p: int | None) -> dict[int, dict]:
    """The reduced row echelon form of ``_echelon``'s pivot rows, which it
    reduces in place: {pivot column: its reduced row}, by increasing pivot.

    From the last pivot row to the first, clear a row's entries in later pivot
    columns with the rows already fully reduced; they vanish in every other
    pivot column, so each subtraction changes free columns only, and on a
    cycle's coboundary each row meets O(1) others; then the row is made a
    pivot row again.  Over Q both passes run on integer rows, and each entry x
    of the result is the Q scalar x / lead: dense Gauss-Jordan's entry, as the
    form is unique.
    """
    pivots = sorted(owner)
    for pc in reversed(pivots):
        row = owner[pc]
        for j in [j for j in row if j != pc and j in owner]:
            _add_multiple(row, -row[j], owner[j], p, owner[j][j])
        _pivot_row(row, pc, p)
    # a pivot row that leads with 1, as every F_p one does, is its own result
    return {pc: row if (lead := row[pc]) == 1
            else {j: x // lead if not x % lead else Fraction(x, lead) for j, x in row.items()}
            for pc, row in sorted(owner.items())}


def rref(m: Matrix) -> tuple[Matrix, list[int], int]:
    """Reduced row echelon form of an exact-field matrix: ``_echelon``, then
    ``_back_substitute``.

    Returns (reduced matrix, pivot column indices in increasing order, rank);
    row r of the reduced matrix is the pivot row of pivots[r], and the rows
    after the rank are empty.
    """
    require_exact(m.field, "rref")
    reduced = _back_substitute(_echelon(m), m.field.p)
    entries = list(reduced.values()) + [{} for _ in range(m.rows - len(reduced))]
    return Matrix._of(m.rows, m.cols, entries, m.field), list(reduced), len(reduced)


def rank(m: Matrix) -> int:
    """Rank of an exact-field matrix: the pivot rows ``_echelon`` stores."""
    require_exact(m.field, "rank")
    return len(_echelon(m))


def _kernel_entries(owner: dict[int, dict], n: int, field: FieldTag) -> list[dict]:
    """Sparse basis of the right null space of a matrix with n columns, from
    its ``_echelon`` pivot rows, one vector per non-pivot column: entry 1 at
    its free column and minus the reduced pivot rows' entries there."""
    one, p = field.one(), field.p
    basis = {free: {free: one} for free in range(n) if free not in owner}
    for pc, row in _back_substitute(owner, p).items():
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x % p if p else -x
    return list(basis.values())


def kernel_basis(m: Matrix) -> list[dict]:
    """Basis of the right null space as sparse vectors {column: value}, each
    in increasing column order, one per non-pivot column in increasing order,
    in RREF free-variable form."""
    require_exact(m.field, "kernel_basis")
    return [dict(sorted(vec.items())) for vec in _kernel_entries(_echelon(m), m.cols, m.field)]


def invert(m: Matrix) -> Matrix | None:
    """Inverse of a square exact matrix, or None when singular."""
    require_exact(m.field, "invert")
    if m.rows != m.cols:
        return None
    n, f = m.rows, m.field
    aug = Matrix._of(n, 2 * n, [{**row, n + i: f.one()} for i, row in enumerate(m._entries)], f)
    red, pivots, rk = rref(aug)
    if rk < n or pivots[:n] != list(range(n)):
        return None
    inverse = [{j - n: x for j, x in row.items() if j >= n} for row in red._entries]
    return Matrix._of(n, n, inverse, f)


# ---------------------------------------------------------------------------
# Graded complexes and the homology-basis solver.
# ---------------------------------------------------------------------------

def check_d_squared(diffs: list[Matrix]):
    """Check that each composite d_{j+1} . d_j vanishes; diffs[j] maps degree
    j to degree j + 1.

    No composite matrix is built: each row of d_{j+1} . d_j is formed in one
    scratch dict, as ``Matrix.__matmul__`` forms it, and the check stops at
    the first row that fails.  Over Q and F_p every row must be zero; over Q
    it is taken on ints, with each block holding a Fraction times the lcm of
    its denominators, which scales the composite by a nonzero int and keeps
    its zeros.  Over R every entry must stay within
    D2_RESIDUAL_TOL * max|d_{j+1}| * max|d_j|.  Either failure is NotAComplex.
    """
    if len(diffs) < 2:  # no pair to compose
        return
    diffs = [_integral(d) if d.field == QQ else d for d in diffs]
    for j in range(len(diffs) - 1):
        a, b = diffs[j + 1], diffs[j]
        _composable(a, b)
        p, inner = a.field.p, b._entries
        if a.field.is_exact:
            for arow in a._entries:
                if _product_row(arow, inner, p):
                    raise NotAComplex(f"d_{j + 1} . d_{j} != 0")
            continue
        tol = D2_RESIDUAL_TOL * (_max_abs(a._entries) * _max_abs(b._entries))
        for arow in a._entries:
            if _max_abs([_product_row(arow, inner, p)]) > tol:
                raise NotAComplex(f"d_{j + 1} . d_{j} residual exceeds tolerance")


def _integral(m: Matrix) -> Matrix:
    """A Q matrix times the lcm of its denominators; m itself where integral."""
    d = lcm(*{x.denominator for row in m._entries for x in row.values()})
    if d == 1:
        return m
    entries = [{j: x.numerator * (d // x.denominator) for j, x in row.items()}
               for row in m._entries]
    return Matrix._of(m.rows, m.cols, entries, QQ)


def _max_abs(entries: list[dict]) -> float:
    return max((abs(x) for row in entries for x in row.values()), default=0.0)


def homology_basis(diffs: list[Matrix], dims: list[int], field: FieldTag) -> list[list[dict]]:
    """Representatives of a homology basis of a graded complex, degree by degree.

    Degree i of the complex has dimension dims[i], and diffs[i] is the
    differential from degree i to degree i + 1 (rows index degree i + 1).  A
    chain complex, whose boundary lowers degree, enters with its grading
    negated.  The result holds, per degree, sparse vectors {index: value} with
    indices below dims[i]: kernel vectors in RREF free-variable form, reduced
    modulo an RREF basis of the incoming image (the nonzero columns of
    diffs[i - 1]), and kept verbatim when independent of that image and of
    the representatives kept before them.

    Each differential's forward pass (``_echelon``) runs once and gives its
    rank, so degree i's Betti number is dims[i] less the ranks of diffs[i]
    and diffs[i - 1].  A degree where that is zero has no representatives:
    its pivot rows are not back-substituted into kernel vectors and its image
    is never reduced.  Elsewhere the kernel vectors are tried in turn until
    the degree holds its Betti number of representatives: every later one
    depends on those, so it would not be kept.  It checks the field and the
    shapes; that the blocks compose to zero is the caller's to check.
    """
    require_exact(field, "homology_basis")
    if len(diffs) != max(len(dims) - 1, 0) or any(
        d.field != field or d.cols != dims[i] or d.rows != dims[i + 1]
        for i, d in enumerate(diffs)
    ):
        raise NotAComplex("differentials do not match the degree dimensions")
    out: list[list[dict]] = []
    incoming_rank = 0
    for i, n in enumerate(dims):
        owner = _echelon(diffs[i]) if i < len(diffs) else {}
        reps: list[dict] = []
        out.append(reps)
        betti = n - len(owner) - incoming_rank
        incoming_rank = len(owner)
        if betti == 0:
            continue
        kernel = _kernel_entries(owner, n, field)
        image: dict[int, dict] = {}
        if i > 0:
            d = diffs[i - 1]
            columns = [col for col in _transpose(d._entries, d.cols) if col]
            if columns:
                red, pivots, _ = rref(Matrix._of(len(columns), n, columns, field))
                image = dict(zip(pivots, red._entries))
        # an RREF row vanishes at the other pivots, so kvec's own entries decide
        kept: dict[int, dict] = {}
        for kvec in kernel:
            if len(reps) == betti:
                break
            candidate = dict(kvec)
            for pc in sorted(pc for pc in kvec if pc in image):
                _add_multiple(candidate, -kvec[pc], image[pc], field.p)
            if _insert_row(kept, _enter(candidate, field.p), field.p):
                reps.append({j: rational(x) for j, x in candidate.items()})
    return out
