"""Exception types shared across the package."""


class KantorError(Exception):
    """Base class for every error raised by this package."""


class DimMismatch(KantorError):
    pass


class SymbolicEntries(KantorError):
    """A computation that needs rational structure constants met a parameter."""


class SingularMatrix(KantorError):
    pass


class SlotMismatch(KantorError):
    pass


class UnknownIdentity(KantorError):
    pass


class IndexOutOfRange(KantorError):
    pass


class InconsistentSystem(KantorError):
    pass


class NonlinearInput(KantorError):
    pass


class SymbolicCoefficient(KantorError):
    pass


class NotDerivation(KantorError):
    pass


class NotCommutativeAssociative(KantorError):
    pass


class LieCheckFailed(KantorError):
    pass


class UndeclaredParam(KantorError):
    pass


class CatalogSelfTestFailed(KantorError):
    pass


class ParseError(KantorError):
    """Input text could not be parsed; carries position diagnostics when known."""

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class ExponentOverflow(KantorError, ValueError):
    """A monomial exponent would pass ``poly.MAX_EXPONENT`` (2**15 - 1 = 32767).

    The exponent fields of a packed monomial are 16 bits wide, one bit of
    each a guard; an exponent past the bound raises this instead of
    carrying into the next field.
    """
