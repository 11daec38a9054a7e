"""Exception types shared across the package."""


class FaultlineError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FaultlineError):
    """Malformed input: bad alphabet, bad rule, bad document, field mismatch."""


class HypothesisError(FaultlineError):
    """A mathematical hypothesis of an operation is violated (e.g. unequal
    image lengths for a boundary trace)."""


class ResourceCapError(FaultlineError):
    """A configured cap (trace states, word length, tile count) would be exceeded."""


class NoPerronRootError(FaultlineError):
    """The matrix has no positive real eigenvalue (zero matrix)."""

