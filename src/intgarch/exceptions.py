"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 2 (bad input),
NumericalError -> 3 (numerical failure), ConvergenceError -> 4.
"""

__all__ = ["IntGarchError", "DataError", "ModelError", "NumericalError", "ConvergenceError"]


class IntGarchError(Exception):
    """Base class for package errors."""


class DataError(IntGarchError, ValueError):
    """Invalid, malformed, or insufficient input data."""


class ModelError(IntGarchError, ValueError):
    """Model specification or parameter-region violation."""


class NumericalError(IntGarchError, ArithmeticError):
    """Numerical failure (overflow, singular matrix, invalid region)."""


class ConvergenceError(IntGarchError, RuntimeError):
    """An iterative procedure failed to converge."""
