"""Exception hierarchy with stable error codes for the CLI."""


class PerfchainError(Exception):
    """Base class for all errors raised by this package."""

    code = "E_INTERNAL"


class NotAGroupError(PerfchainError):
    """Multiplication table fails associativity, identity, or inverses."""

    code = "E_NOT_A_GROUP"


class NotAnLGroupError(PerfchainError):
    """Group order is not a power of the declared prime."""

    code = "E_NOT_L_GROUP"


class DimensionMismatchError(PerfchainError):
    """Operands have incompatible shapes or belong to different groups."""

    code = "E_DIM_MISMATCH"


class NotAUnitError(PerfchainError):
    """Inversion of group-ring data whose augmentation is not invertible."""

    code = "E_NOT_UNIT"


class GroupMismatchError(PerfchainError):
    """Operation combining values over different groups or primes."""

    code = "E_GROUP_MISMATCH"


class BoundarySquareNonzeroError(PerfchainError):
    """Supplied boundary data does not satisfy d ∘ d = 0."""

    code = "E_D_SQUARED"


class NotPerfectError(PerfchainError):
    """Operation requires a perfect complex but the verdict is negative."""

    code = "E_NOT_PERFECT"


class HorizonExhaustedError(PerfchainError):
    """Tower images did not stabilize within the supplied levels."""

    code = "E_HORIZON"


class NotExactIntegrallyError(PerfchainError):
    """Sequence of abelian groups fails integral exactness validation."""

    code = "E_NOT_EXACT"


class LimitError(PerfchainError):
    """An answer or input exceeds a size the program can handle."""

    code = "E_LIMIT"


class UsageError(PerfchainError):
    """Command-line arguments that cannot be used together."""

    code = "E_USAGE"


class ParseError(PerfchainError):
    """Malformed input text; carries a 1-based line number when known."""

    code = "E_PARSE"

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
