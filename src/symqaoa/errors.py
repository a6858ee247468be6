"""Exception types shared across the package, each with the CLI's exit code."""


class WorkbenchError(Exception):
    """Base class for all package errors; exit code 2, invalid input."""

    exit_code = 2


class InvalidParamsError(WorkbenchError):
    """Arguments outside an operation's domain (bad family params, bad angles, ...)."""


class ParseError(InvalidParamsError):
    """Malformed input text (edge lists, configs, model files)."""


class SizeLimitError(WorkbenchError):
    """Instance exceeds a documented size cap (memory or enumeration bound)."""

    exit_code = 3


class SearchBudgetError(WorkbenchError):
    """Backtracking search exceeded its node budget; the instance is pathological."""

    exit_code = 3


class NotBijectionError(InvalidParamsError):
    """A supplied bitstring mapping is not a bijection."""


class NotInvariantError(WorkbenchError):
    """A diagonal is not constant on the supplied orbits; the group is not a symmetry."""

    exit_code = 4


class SingularSystemError(WorkbenchError):
    """Kernel system is singular (lambda = 0 with duplicated rows)."""


class InsufficientDataError(WorkbenchError):
    """Too few rows/records for the requested fit."""


class DegenerateLabelsError(WorkbenchError):
    """Labels cannot be split by any requested cutoff."""


class ConstantInputError(WorkbenchError):
    """Correlation is undefined for a constant sequence."""
