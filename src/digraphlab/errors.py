"""Exception types mapped onto the CLI exit-code contract."""

from __future__ import annotations


class DigraphLabError(Exception):
    """Base class for package errors."""


class ParseError(DigraphLabError):
    """Malformed input document (edge list, weight string, family export)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PreconditionError(DigraphLabError):
    """Operation invoked outside its stated contract."""


class BudgetError(PreconditionError):
    """Instance exceeds the desk-scale budget for the requested mode."""


class ContainerBuildError(BudgetError):
    """The container construction tripped a hard guard (round cap, fingerprint
    budget, node budget); never returns a silent partial family."""


class VerificationError(DigraphLabError):
    """An exact check failed."""
