"""Exception hierarchy shared across the package."""


class DiagwalksError(Exception):
    """Base class for all package errors."""


class NotPrime(DiagwalksError):
    pass


class ReducibleModulus(DiagwalksError):
    pass


class FieldTooLarge(DiagwalksError):
    pass


class KDoesNotDivide(DiagwalksError):
    pass


class BadDecomposition(DiagwalksError):
    pass


class DependentBasis(DiagwalksError):
    pass


class VertexOutOfRange(DiagwalksError):
    pass


class ArityMismatch(DiagwalksError):
    pass


class ProductTooLarge(DiagwalksError):
    pass


class LengthTableTooShort(DiagwalksError):
    pass


class BadParameters(DiagwalksError):
    pass


class EnumerationTooLarge(DiagwalksError):
    pass


class WalkCacheTooLarge(DiagwalksError):
    """Raised when the cached matrix powers of a graph would pass
    graphs.MAX_WALK_BYTES."""


class NepsWalkTooLarge(DiagwalksError):
    """Raised when a NEPS walk count, by the column-sum dynamic program or
    the complete-graph spectral sum, could pass neps.MAX_NEPS_OPS."""


class CountTooLarge(DiagwalksError):
    """Raised when a count could have more bits than cli.MAX_PRINT_BITS
    allows the CLI to print."""


class NotPrimitiveDivisor(DiagwalksError):
    """Raised when u = b(p^a-1) already divides some p^h-1 with h < ab."""


class KNotInteger(DiagwalksError):
    """Raised when (p^{ab}-1)/(b(p^a-1)) is not an integer.

    Carries the divisibility report so callers can show why.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
