"""Exception types shared across the package.

The split matters for the CLI: input-contract violations exit with a
different status than numerical non-convergence.
"""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class DimensionError(ValidationError):
    """Shapes or dimensions are inconsistent with the operation."""


class SizeLimitError(ValidationError):
    """A tensor-power dimension or a random draw exceeds its configured cap."""


class IdenticalGatesError(ValidationError):
    """Two gates coincide (up to global phase); no finite copy count separates them."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance within the iteration limit."""
