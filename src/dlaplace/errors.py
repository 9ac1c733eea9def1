"""Exception hierarchy.

``DlaplaceError`` is the root of everything raised deliberately by this
package.  ``CapabilityError`` groups the cases where the input is
well-formed but falls outside what the exact engine can factor or invert;
callers that drive the solver (the CLI in particular) treat that branch as
"not solvable here" rather than "broken input".
"""

from __future__ import annotations


class DlaplaceError(Exception):
    """Base class for all errors raised by this package."""


class RadicandMismatch(DlaplaceError):
    """Two quadratic-extension values with different nonzero radicands met."""


class CapabilityError(DlaplaceError):
    """The request is valid but outside the engine's exact capabilities."""


class UnsupportedFactorization(CapabilityError):
    """A denominator does not split into linear factors over Q(sqrt(d))."""


class UnsupportedForcing(CapabilityError):
    """A forcing term outside the supported family c n^p b^n."""


class DegreeLimitExceeded(CapabilityError):
    """A power-of-n request exceeded the configured degree limit."""


class ImproperRational(DlaplaceError):
    """A quotient with a polynomial part, the transform of no sequence: a
    rule made one from initial values that disagree with the series it
    transforms, or partial fractions were asked of one."""


class VerificationFailed(DlaplaceError):
    """A computed closed form disagreed with direct recursion.

    Reaching this indicates a bug in the solver pipeline, not bad input; it
    is raised so that a wrong closed form can never be returned silently.
    """


class CheckFailed(DlaplaceError):
    """A numeric series/transform comparison exceeded its tolerance."""

    def __init__(self, message: str, s: float | None = None,
                 terms: int | None = None,
                 discrepancy: float | None = None) -> None:
        super().__init__(message)
        self.s = s
        self.terms = terms
        self.discrepancy = discrepancy


class DivergenceGuard(DlaplaceError):
    """A series evaluation was requested at s inside the divergence region."""


class SeriesCapExceeded(DlaplaceError):
    """Reaching the requested tolerance would need too many series terms,
    terms past the double range, or more precision than doubles carry."""


class ParseError(DlaplaceError):
    """Recurrence text that does not match the grammar."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SemanticError(DlaplaceError):
    """Recurrence text that cannot be read, or grammatical text that does
    not describe a solvable IVP."""
