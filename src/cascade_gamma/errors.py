"""Exception hierarchy shared by every module in the package.

All failures raised on purpose derive from CascadeError so callers can
catch one base class at process boundaries (the CLI does exactly that).
"""

from __future__ import annotations

__all__ = [
    "CascadeError",
    "DomainError",
    "NoSignChangeError",
    "ToleranceError",
    "CriticalityError",
]


class CascadeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CascadeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoSignChangeError(CascadeError):
    """A bracketing root solve was handed endpoints with the same sign."""


class ToleranceError(CascadeError):
    """A result was produced but its error estimate exceeds the request.

    The partial result, when one exists, travels on the ``result``
    attribute so callers can still report it.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class CriticalityError(CascadeError):
    """A quantity was requested in a criticality regime where it is undefined."""
