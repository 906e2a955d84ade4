"""Exception types shared across the package, one per CLI exit code.

ValidationError signals bad input (exit code 2). NumericalFailureError
signals numerical trouble discovered while computing (exit code 3). A
divergent Fisher integral raises nothing: sigma_squared returns inf, the
report carries the flag "divergent", and the CLI prints it and exits 3.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericalFailureError(ArithmeticError):
    """A computation failed: inconsistent results or no convergence."""
