"""Exception types shared across the package."""


class CauchyBuresError(Exception):
    """Base class for all package-specific errors."""


class PoleError(CauchyBuresError):
    """Argument lies on (or too close to) a pole of the gamma function."""


class DomainError(CauchyBuresError):
    """Parameter outside the admissible domain (e.g. weight exponent <= -1)."""


class DimensionError(CauchyBuresError):
    """Matrix or point-set dimension incompatible with the requested operation."""


class NonConverged(CauchyBuresError):
    """Iterative refinement stalled before reaching the requested tolerance."""


class PoleCollisionError(CauchyBuresError):
    """Mellin-Barnes poles the residue series cannot sum.

    Raised for a pole of order 3 or more, or for left and right pole
    families that overlap.  Coinciding pairs (double poles) are summed.
    """


class SignError(CauchyBuresError):
    """A quantity that must be positive came out non-positive."""


class SingularPointError(CauchyBuresError):
    """Evaluation point sits on a non-removable singularity of the kernel."""


class ComplexityError(CauchyBuresError):
    """Brute-force oracle invoked beyond its feasible size limits."""
