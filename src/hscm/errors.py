"""Exception hierarchy shared by all modules."""


class HscmError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HscmError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConvergenceError(HscmError, RuntimeError):
    """An iterative solver did not converge within its iteration budget."""


class InsufficientTailError(HscmError, ValueError):
    """Not enough usable tail data for a tail-exponent fit."""


class ParseError(HscmError, ValueError):
    """An input file could not be parsed; names the file and its 1-based line."""

    def __init__(self, path, line_number, message):
        self.path = path
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")
