"""The paper's running example, shared by the tests: the roots of
t^2 - t - 1 in Q(sqrt(5)) and the Fibonacci recurrence."""

from fractions import Fraction

from dlaplace.exact import QuadExt
from dlaplace.solver import RecurrenceSpec

SQRT5 = QuadExt(0, 1, 5)
# The two roots of t^2 - t - 1: the golden ratio and its conjugate.
PHI = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
PSI = PHI.conjugate()


def fibonacci(a1=1, a2=1):
    """a(n+2) = a(n+1) + a(n) with the given two starting values."""
    return RecurrenceSpec(2, (1, 1), (a1, a2))
