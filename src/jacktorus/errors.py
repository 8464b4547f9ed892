"""Exception types shared across the package."""


class JackTorusError(Exception):
    """Base class for all package-specific errors."""


class InvalidShape(JackTorusError, ValueError):
    """Shape is not a partition with at least two rows and two columns."""


class PoleExcluded(JackTorusError, ArithmeticError):
    """The parameter hits a pole of the coefficient recurrence.

    Carries the offending value and a witness pair (m, c) with value = -m/c
    (or m/c on the positive branch).
    """

    def __init__(self, value, witness_m, witness_c, context=""):
        self.value = value
        self.witness_m = witness_m
        self.witness_c = witness_c
        sign = "-" if value < 0 else ""
        msg = f"parameter {value} lies in the excluded pole set (witness {sign}{witness_m}/{witness_c})"
        if context:
            msg += f" [{context}]"
        super().__init__(msg)


class SpectralCollision(JackTorusError, ArithmeticError):
    """Two adjacent spectral-vector entries coincide; the step recursion would divide by zero."""


class NegativeEntry(JackTorusError, ValueError):
    """A composition operation received a vector with negative entries."""


class NotGraded(JackTorusError, ValueError):
    """Vector entries do not sum to zero."""


class BadSupport(JackTorusError, ValueError):
    """Support pattern of a vector violates the operation's precondition."""


class SingularPoint(JackTorusError, ValueError):
    """Connection evaluated at a point with x_i = x_j or x_i = 0."""


class PathNearSingular(JackTorusError, ValueError):
    """Integration path passes closer to the singular set than ``diffsystem.CLEARANCE``."""


class VerificationFailed(JackTorusError):
    """An invariant that a verification checks does not hold."""


class StoreCorrupt(JackTorusError, ValueError):
    """A coefficient store file does not match the requested store or is incomplete."""


class WriteFailed(JackTorusError, OSError):
    """A store or report file could not be written, e.g. its directory is missing or read-only."""
