"""Exception types shared across the package."""


class StochabsError(Exception):
    """Base class for all package errors."""


class ParseError(StochabsError):
    """Syntax or validation error in an input file, with source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class ExprEvalError(StochabsError):
    """Runtime failure while evaluating an expression."""

    def __init__(self, message, source=None):
        self.source = source
        if source is not None:
            message = f"{message} in '{source}'"
        super().__init__(message)


class ModelError(StochabsError):
    """A system model or network violates a structural invariant."""


class CertificateError(StochabsError):
    """Certificate inputs are malformed or fail a precondition."""


class InversionError(StochabsError):
    """A gain function cannot be inverted at the requested value."""


class ParameterError(StochabsError, ValueError):
    """A numeric parameter (sampling period, pitch, precision) is out of range."""


class AbstractionError(StochabsError):
    """Abstraction construction failed: size cap, integration accuracy, wiring."""


class FormatError(StochabsError):
    """Malformed serialized artifact: bad header, version, or hash mismatch."""
