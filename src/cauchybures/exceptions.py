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
    """A Mellin-Barnes integrand whose left and right pole families meet.

    No contour separates the two families there, so the Fox H-function is
    undefined.  Poles of one side that coincide or nearly coincide are
    summed, at any order.
    """


class SignError(CauchyBuresError):
    """A quantity that must be positive came out non-positive."""


class SingularPointError(CauchyBuresError):
    """Evaluation point sits on a non-removable singularity of the kernel."""


class ComplexityError(CauchyBuresError):
    """A route invoked beyond the sizes it can evaluate (a brute-force
    oracle's matrix size, a float quadrature's exponent range)."""
