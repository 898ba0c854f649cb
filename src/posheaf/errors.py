"""Exception hierarchy. Every error carries a stable ``code`` string used by the CLI."""

ECHO_LIMIT = 64


def brief(text: str) -> str:
    """Text echoed into an error message: as it is up to ECHO_LIMIT characters,
    else its head and its length, so that no report grows with its input."""
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{text[:ECHO_LIMIT // 2]}... ({len(text)} characters)"


class PosheafError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


# poset construction
class CycleDetected(PosheafError):
    pass


class UnknownElement(PosheafError):
    pass


class DuplicateElement(PosheafError):
    pass


class EmptyHyperedge(PosheafError):
    pass


class UnknownVertex(PosheafError):
    pass


# exact linear algebra
class FieldMismatch(PosheafError):
    pass


class NotAComplex(PosheafError):
    pass


# sheaves
class ShapeMismatch(PosheafError):
    pass


class MissingEdgeMap(PosheafError):
    pass


class ExtraEdgeMap(PosheafError):
    pass


class TooShort(PosheafError):
    pass


class NotMonotone(PosheafError):
    pass


class NonInvertibleMap(PosheafError):
    pass


class NotAPath(PosheafError):
    pass


class Disconnected(PosheafError):
    pass


# cochain constructions
class NotSimplicialPoset(PosheafError):
    pass


class PosetMismatch(PosheafError):
    pass


class TooLarge(PosheafError):
    """A Roos complex with more chains, or more summed stalk dimensions, than
    ``cochain.ROOS_CAP``, refused before any chain is built."""


# spectral
class DegreeOutOfRange(PosheafError):
    pass


class NoConvergence(PosheafError):
    pass


class DimensionMismatch(PosheafError):
    pass


class UnstableStepSize(PosheafError):
    pass


class TraceTooShort(PosheafError):
    pass


class DegenerateInitialState(PosheafError):
    pass


class NotTwoLayer(PosheafError):
    pass


class OverflowOnConvert(PosheafError):
    pass


# nsd
class EmptySignalSet(PosheafError):
    pass


# io
class ParseError(PosheafError):
    pass


class SchemaError(PosheafError):
    pass
