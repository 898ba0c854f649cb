"""Sheaf documents (JSON) and machine-readable run reports.

Documents are canonical: elements in declaration order, covers sorted by
element indices, map keys sorted lexicographically, rational scalars in lowest
terms.  Reports print floats with 17 significant digits so identical inputs
produce byte-identical output, and quote strings exactly as ``json.dumps`` does.
A non-finite float is a SchemaError: the last guard behind the
``OverflowOnConvert`` that each numeric stage raises on its own overflow.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import ParseError, SchemaError, brief
from .linalg import FieldTag, Matrix, PRIME, QQ, RATIONALS, RR, prime_field, rational
from .poset import build_poset
from .sheaf import Sheaf


def field_from_string(text: str) -> FieldTag:
    if text == "Q":
        return QQ
    if text == "R":
        return RR
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise SchemaError(f"field: bad prime in {brief(repr(text))}") from None
        return prime_field(p)
    raise SchemaError(f"field: unknown field {brief(repr(text))}")


# The most digits a rational's numerator or denominator may have: Python's
# default int-string limit, kept here since Python 3.10 before 3.10.7 has none.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** MAX_DIGITS  # the least integer of MAX_DIGITS + 1 digits
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def scalar_to_string(value, field: FieldTag) -> str:
    if field.kind == RATIONALS:
        try:
            return str(value)
        except ValueError:  # a term beyond the interpreter's int-string limit
            raise SchemaError(
                f"cannot print a rational with more than {MAX_DIGITS} digits") from None
    if field.kind == PRIME:
        return str(int(value))
    return format(float(value), ".17g")


def _rational(text: str):
    """The Q scalar of Fraction(text), with no term of more than MAX_DIGITS
    digits: an exponent beyond that is refused before Fraction expands
    10 ** exponent."""
    match = _EXPONENT.search(text)
    if match:
        digits = match[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DIGITS)) or int(digits or "0") > MAX_DIGITS:
            raise ValueError(f"exponent beyond {MAX_DIGITS}")
    q = Fraction(text)
    if abs(q.numerator) >= _DIGIT_BOUND or q.denominator >= _DIGIT_BOUND:
        raise ValueError(f"more than {MAX_DIGITS} digits")
    return rational(q)


_NOT_SCALARS = {bool: "a boolean", list: "an array", dict: "an object", type(None): "null"}


def scalar_from_string(text: str, field: FieldTag):
    """Parse one map entry; real literals must be finite doubles, rational
    ones may have no term of more than MAX_DIGITS digits.  A JSON value that
    is neither a string nor a number is refused in words of its own, not in
    an interpreter's, so the report is the same on every Python."""
    try:
        if type(text) in _NOT_SCALARS:
            raise TypeError(f"{_NOT_SCALARS[type(text)]} is not a scalar")
        if field.kind == RATIONALS:
            return _rational(str(text))
        if field.kind == PRIME:
            return int(str(text), 10) % field.p
        value = float(text)
    except OverflowError:  # an integer beyond the double range
        value = math.inf
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(
            f"maps: bad scalar literal {brief(repr(text))}: {brief(str(exc))}") from None
    if not math.isfinite(value):
        raise SchemaError(f"maps: real literal {brief(repr(text))} is not a finite double")
    return value


# ---------------------------------------------------------------------------
# Canonical JSON encoder: insertion-ordered objects, floats at 17 significant
# digits, no whitespace.
# ---------------------------------------------------------------------------

def _encode(obj) -> str:
    if type(obj) is float:  # as scalar_to_string(obj, RR) writes it
        if not math.isfinite(obj):
            raise SchemaError("reports cannot contain non-finite floats")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):  # a subclass, such as a numpy scalar
        return _encode(float(obj))
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_encode(str(k))}:{_encode(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_encode, obj)) + "]"
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Canonical text of obj.  _encode recurses under its own name, so a
    tracer that wraps canonical_json sees one call per report."""
    return _encode(obj)


def inputs_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# Sheaf documents.
# ---------------------------------------------------------------------------

def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nest too deeply") from None
    except ValueError as exc:  # an integer past the interpreter's int-string limit
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    return doc


_UNSEEN = object()  # parse_sheaf's mark for a literal not parsed yet


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    return doc[key]


def parse_sheaf(text: str) -> Sheaf:
    """Parse and validate a sheaf document, every rule of ``build_sheaf``
    included; lossless against serialize_sheaf.

    The checks run in a fixed order (field, elements, covers and the poset,
    stalks, then each map in document order, its entries row-major, and last
    the missing maps), so of several faults the first in that order is the one
    reported.  A map key is found with one lookup among the Hasse edges keyed
    "a<b", and is split only to tell a bad key from a non-edge.  Each
    distinct string among the map entries is parsed once, and its scalar,
    immutable, is shared by every entry that repeats it.  The sparse rows of
    each map are built in one flat pass over its entries, a new row every
    ``cols`` of them; a map from a 0-dimensional stalk has ``rows`` empty
    rows."""
    doc = parse_document(text)
    field = field_from_string(str(_require(doc, "field")))
    elements = _require(doc, "elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise SchemaError("elements: must be an array of strings")
    for e in elements:
        if "<" in e or not e:
            raise SchemaError(f"elements: bad identifier {brief(repr(e))}")
    covers = _require(doc, "covers")
    if not isinstance(covers, list):
        raise SchemaError("covers: must be an array of [a, b] string pairs")
    for c in covers:
        if not (isinstance(c, list) and len(c) == 2
                and isinstance(c[0], str) and isinstance(c[1], str)):
            raise SchemaError("covers: must be an array of [a, b] string pairs")
    poset = build_poset(elements, covers)
    stalks_doc = _require(doc, "stalks")
    if not isinstance(stalks_doc, dict):
        raise SchemaError("stalks: must be an object")
    stalks = {}
    for e in elements:
        if e not in stalks_doc:
            raise SchemaError(f"stalks: missing {brief(e)}")
        dim = stalks_doc[e]
        if type(dim) is not int or dim < 0:  # JSON true is an int to isinstance
            raise SchemaError(f"stalks: bad dimension for {brief(e)}")
        stalks[e] = dim
    if len(stalks_doc) != len(stalks):
        for key in stalks_doc:
            if key not in stalks:
                raise SchemaError(f"stalks: unknown element {brief(key)}")
    maps_doc = _require(doc, "maps")
    if not isinstance(maps_doc, dict):
        raise SchemaError("maps: must be an object")
    hasse = {f"{a}<{b}": (a, b) for a, b in poset.covers}
    parsed: dict[str, object] = {}  # literal -> its scalar, or None if zero
    maps = {}
    for key, entries in maps_doc.items():
        edge = hasse.get(key)
        if edge is None:
            if key.count("<") != 1:
                raise SchemaError(f"maps: bad key {brief(repr(key))}")
            raise SchemaError(f"maps: {brief(key)} is not a Hasse edge")
        rows, cols = stalks[edge[1]], stalks[edge[0]]
        if not isinstance(entries, list) or len(entries) != rows * cols:
            raise SchemaError(
                f"maps: {brief(key)} needs {rows * cols} row-major entries"
            )
        sparse = [] if cols else [{} for _ in range(rows)]
        c = cols
        for x in entries:
            if c == cols:
                sparse.append(row := {})
                c = 0
            if type(x) is str:
                value = parsed.get(x, _UNSEEN)
                if value is _UNSEEN:
                    value = parsed[x] = scalar_from_string(x, field) or None
            else:  # a JSON number, or unhashable: parsed anew
                value = scalar_from_string(x, field) or None
            if value is not None:
                row[c] = value
            c += 1
        maps[edge] = Matrix._of(rows, cols, sparse, field)
    if len(maps) != len(poset.covers):
        for (a, b) in poset.covers:
            if (a, b) not in maps:
                raise SchemaError(f"maps: missing {brief(a)}<{brief(b)}")
    return Sheaf(poset, field, stalks, maps)


def serialize_sheaf(s: Sheaf) -> str:
    """Canonical document text (with a trailing newline)."""
    poset = s.poset
    doc = {
        "field": str(s.field),
        "elements": list(poset.elements),
        "covers": [[a, b] for (a, b) in poset.covers],
        "stalks": {e: s.stalk(e) for e in poset.elements},
        "maps": map_entries(s, lambda v: scalar_to_string(v, s.field)),
    }
    return canonical_json(doc) + "\n"


def map_entries(s: Sheaf, convert) -> dict:
    """{"a<b": row-major [convert(entry), ...]} with sorted keys: "maps" layout."""
    return {
        f"{a}<{b}": [convert(v) for row in s.edge_map[(a, b)].data for v in row]
        for (a, b) in sorted(s.edge_map, key=lambda ab: f"{ab[0]}<{ab[1]}")
    }
