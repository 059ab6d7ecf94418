"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 2 (bad input) and
NumericalError -> 3; exit 4, an unconverged fit, is fit's own result.
"""

__all__ = ["IntGarchError", "DataError", "ModelError", "NumericalError"]


class IntGarchError(Exception):
    """Base class for package errors."""


class DataError(IntGarchError, ValueError):
    """Invalid, malformed, or insufficient input data."""


class ModelError(IntGarchError, ValueError):
    """Model specification or parameter-region violation."""


class NumericalError(IntGarchError, ArithmeticError):
    """Numerical failure (overflow, singular matrix, invalid region)."""
