"""Exception types shared across the package."""


class BetaOTError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BetaOTError, ValueError):
    """An argument lies outside the domain of a generator or its conjugate."""


class DimensionMismatchError(BetaOTError, ValueError):
    """Array shapes are incompatible for the requested operation."""


class InfeasibleToleranceError(BetaOTError, ValueError):
    """The distance tolerance z does not exceed lambda/(beta-1)."""


class BudgetExhaustedError(BetaOTError, ValueError):
    """The derived iteration budget is below 1 or, at 2**49 or more, cannot finish."""


class AutoScaleError(BetaOTError, ValueError):
    """No scale factor places the iteration budget inside the target range."""


class UnsupportedGeneratorError(BetaOTError, ValueError):
    """The requested solver supports cofinite generators only."""


class NumericalUnderflowError(BetaOTError, ArithmeticError):
    """A solve left the floats: the spread of ``cost/lam``, a scaling or the LP overflowed."""


class SizeError(BetaOTError, ValueError):
    """The instance exceeds the size supported by the exact reference solver."""


class FormatError(BetaOTError, ValueError):
    """A file does not conform to the expected CSV layout."""
