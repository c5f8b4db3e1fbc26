"""Exception hierarchy shared across the package, `admit`, the one cap gate,
and `check_length`, the one admission of a length that every count runs."""

import math
import operator

# largest count, in bits, that an evaluator builds: CPython's int-to-decimal
# conversion is quadratic, and a 2^20-bit count takes about 2 s to print
MAX_COUNT_BITS = 1 << 20


class DiagwalksError(Exception):
    """Base class for all package errors."""


class CapExceeded(DiagwalksError):
    """Base class of the refusals of a stated resource cap: the request is
    well formed, but the field, table, enumeration, walk work or count it
    asks for passes a cap checked before the work. `verify` reports a check
    refused this way as skipped."""


class NotPrime(DiagwalksError):
    pass


class ReducibleModulus(DiagwalksError):
    pass


class FieldTooLarge(CapExceeded):
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


class ProductTooLarge(CapExceeded):
    pass


class LengthTableTooShort(DiagwalksError):
    pass


class BadParameters(DiagwalksError, ValueError):
    """A ValueError too, so callers that catch ValueError keep working."""


class EnumerationTooLarge(CapExceeded):
    pass


class WalkCacheTooLarge(CapExceeded):
    """Raised when the cached matrix powers of a graph would pass
    graphs.MAX_WALK_BYTES."""


class NepsWalkTooLarge(CapExceeded):
    """Raised through `admit` when the DP, the complete-graph terms, the
    Krawtchouk weights or the powers pass neps.MAX_NEPS_OPS."""


class CountTooLarge(CapExceeded):
    """Raised by `check_length`, before the first power, when a count could
    have more than MAX_COUNT_BITS bits."""


class NotPrimitiveDivisor(DiagwalksError):
    """Raised when u = b(p^a-1) already divides some p^h-1 with h < ab."""


class KNotInteger(DiagwalksError):
    """Raised when (p^{ab}-1)/(b(p^a-1)) is not an integer.

    Carries the divisibility report so callers can show why.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def shown(n: int) -> str:
    """n for a message; a decimal of over 4,300 digits would raise."""
    return str(n) if abs(n) < 1 << 64 else f"<{n.bit_length()}-bit integer>"


def admit(error: type[CapExceeded], need: int, cap: int, name: str,
          message: str, *args) -> None:
    """The one cap gate: raises `error` when the exact int `need` passes
    `cap`, named `name`. Only then is the template `message` filled in,
    with `args` and `need` last, each int through `shown`."""
    if need > cap:
        args = [shown(a) if isinstance(a, int) else a for a in (*args, need)]
        raise error(f"{message.format(*args)}, over the cap {name} of {shown(cap)}")


def as_integer(name: str, value) -> int:
    """value through operator.index (a numpy int too); else BadParameters."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParameters(f"{name}={value!r} is not an integer") from None


def check_length(name: str, n, base: int = 1) -> int:
    """The one admission of a length n, returned as a Python int: raises
    BadParameters unless n is an integer >= 0, and CountTooLarge when a count
    of at most base^n could pass MAX_COUNT_BITS (never for base <= 1)."""
    n = as_integer(name, n)
    if n < 0:
        raise BadParameters(f"{name}={shown(n)} must be >= 0")
    # an int compares exactly with the float cap, and is never cast
    cap = MAX_COUNT_BITS / math.log2(base) if base > 1 else math.inf
    if n > cap:
        raise CountTooLarge(
            f"{name}={shown(n)} gives a count of up to {name}*log2"
            f"({shown(base)}) bits, over the cap MAX_COUNT_BITS of "
            f"{MAX_COUNT_BITS} bits: {name} <= {math.floor(cap)} here")
    return n
