"""Exception hierarchy.

Every error raised by this package derives from :class:`HytetError`, so
callers can catch one type at the boundary.  The split below mirrors how the
CLI maps failures to exit codes: bad input values (64), geometric
impossibility or degeneracy (2), and internal numerical inconsistency (70).
:func:`shown` is how a message echoes the value it refuses.
"""

from __future__ import annotations

# an error message echoes at most this many characters of a refused value
_ECHO_CHARS = 20


def shown(value) -> str:
    """repr of a refused value for an error message; past _ECHO_CHARS
    characters, their first _ECHO_CHARS and the full length."""
    text = repr(value)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


class HytetError(Exception):
    """Base class for all package errors."""


class DomainError(HytetError):
    """An input value is outside the domain of the operation.

    Examples: a negative or non-finite edge length, an angle outside
    [0, pi], a zero hinge length where a positive one is required.
    """


class NotATetrahedronError(HytetError):
    """The data cannot come from a compact hyperbolic tetrahedron."""


class ExistenceError(NotATetrahedronError):
    """Existence test failed; carries the full report.

    Attributes
    ----------
    report : ExistenceReport
        The report whose ``exists`` field is False.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report

    @classmethod
    def from_report(cls, report) -> "ExistenceError":
        """The error for a report whose ``exists`` field is False, naming
        each failed condition."""
        return cls("no compact hyperbolic tetrahedron has these edge lengths: "
                   + ", ".join(report.failed), report=report)


class DegenerateError(NotATetrahedronError):
    """The configuration is flat (zero volume) where a solid one is needed."""


class InconsistentAnglesError(NotATetrahedronError):
    """Dihedral angles do not define a compact hyperbolic tetrahedron."""


class NumericalError(HytetError):
    """Internal cross-checks disagree beyond tolerance.

    Raised when two expressions that are mathematically identical differ
    numerically by more than the configured bound, or when a quantity
    leaves its provable range by more than rounding can explain.
    """
