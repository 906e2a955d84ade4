"""Exception types shared across the package.

ValidationError and its subclasses signal bad inputs (CLI exit code 2).
The ArithmeticError subclasses signal numerical trouble discovered while
computing (CLI exit code 3).
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class GridTooCoarseError(ValidationError):
    """Sampling grid cannot resolve the requested Fourier index range."""


class NonNormalizedDensityError(ValidationError):
    """Density samples do not integrate (or sum) to one within tolerance."""


class DomainError(ValidationError):
    """Scalar argument lies outside its mathematical domain."""


class DivergenceError(ArithmeticError):
    """A Fisher-type integrand diverges on the sampling grid."""


class NumericalFailureError(ArithmeticError):
    """Computed quantities are inconsistent beyond roundoff tolerances."""


class NonConvergenceError(ArithmeticError):
    """Iterative refinement did not reach the requested stability."""
