"""Initial value problems for linear constant-coefficient recurrences.

A problem is

    a(n+k) = c_{k-1} a(n+k-1) + ... + c_0 a(n) + forcing(n),   n >= 1,

with rational coefficients, rational initial values a(1)..a(k) and forcing
built from terms c n^p b^n (p bounded, b a nonzero rational).  Each term's
transform is one quotient with the single pole b, which may coincide with
a characteristic root.  Transforming both sides with the shift rule and
solving for the unknown transform L gives

    L = (initial polynomial + forcing transform) / characteristic polynomial

which the sequence engine then inverts into a closed form.  Every solve
re-checks its own answer against direct recursion before returning; a
mismatch raises ``VerificationFailed`` and means a bug, never bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Union

from .errors import UnsupportedForcing, VerificationFailed
from .exact import QuadExt
from .polys import Poly
from .transforms import MAX_N_POWER, TransformExpr, n_power
from .sequences import (ClosedFormSequence, equal_prefix, fibonacci_normal,
                        inverse_transform)

RationalLike = Union[int, Fraction]


@dataclass(frozen=True)
class ForcingTerm:
    """coefficient * n^exponent * base^n as a forcing summand."""

    coefficient: Fraction
    exponent: int = 0
    base: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient", Fraction(self.coefficient))
        object.__setattr__(self, "base", Fraction(self.base))
        if self.exponent < 0:
            raise UnsupportedForcing("negative powers of n are not supported")
        if self.exponent > MAX_N_POWER:
            raise UnsupportedForcing(
                f"n^{self.exponent} exceeds the degree limit {MAX_N_POWER}")
        if not self.base:
            raise UnsupportedForcing("a forcing base must be nonzero")


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order, coefficients c_0..c_{k-1}, forcing terms and initial values."""

    order: int
    coefficients: tuple[Fraction, ...]
    initials: tuple[Fraction, ...]
    forcing: tuple[ForcingTerm, ...] = ()

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be at least 1")
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        inits = tuple(Fraction(v) for v in self.initials)
        if len(coeffs) != self.order:
            raise ValueError(
                f"order {self.order} needs {self.order} coefficients")
        if len(inits) != self.order:
            raise ValueError(
                f"order {self.order} needs {self.order} initial values")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "initials", inits)
        object.__setattr__(self, "forcing", tuple(self.forcing))

    @property
    def is_homogeneous(self) -> bool:
        return not self.forcing

    def characteristic(self) -> Poly:
        """t^k - c_{k-1} t^(k-1) - ... - c_0."""
        return Poly(tuple(-c for c in self.coefficients) + (1,))

    def forcing_value(self, n: int) -> Fraction:
        total = Fraction(0)
        for term in self.forcing:
            base = term.base
            value = n ** term.exponent * base.numerator ** n
            if base.denominator > 1:
                value = Fraction(value, base.denominator ** n)
            total += term.coefficient * value
        return total

    @classmethod
    def fibonacci(cls, a1: RationalLike = 1, a2: RationalLike = 1,
                  ) -> "RecurrenceSpec":
        """a(n+2) = a(n+1) + a(n) with the given two starting values."""
        return cls(2, (Fraction(1), Fraction(1)),
                   (Fraction(a1), Fraction(a2)))


class RecursiveSequence:
    """Direct iteration of a RecurrenceSpec, memoized; the ground truth."""

    def __init__(self, spec: RecurrenceSpec) -> None:
        self.spec = spec
        self._values: list[Fraction] = list(spec.initials)

    def __call__(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("sequences start at n = 1")
        spec = self.spec
        while len(self._values) < n:
            m = len(self._values) - spec.order + 1
            nxt = spec.forcing_value(m)
            for j, c in enumerate(spec.coefficients):
                if c:
                    nxt += c * self._values[m - 1 + j]
            self._values.append(nxt)
        return self._values[n - 1]


def _initial_polynomial(spec: RecurrenceSpec) -> Poly:
    """Initial data contributed by shifting both sides of the recurrence.

    Shifting a by k contributes sum_i a(i) t^(k-i); each right-hand shift
    by j contributes -c_j * sum_{i<=j} a(i) t^(j-i).
    """
    k = spec.order
    total = Poly(tuple(reversed(spec.initials)))
    for j in range(1, k):
        c = spec.coefficients[j]
        if c:
            piece = Poly(tuple(reversed(spec.initials[:j])))
            total = total - Poly.constant(c) * piece
    return total


@dataclass
class SolutionReport:
    """Everything a solve produces, ready for rendering or JSON."""

    spec: RecurrenceSpec
    transform: TransformExpr
    closed_form: ClosedFormSequence
    verified_upto: int

    @cached_property
    def coefficient_decomposition(self) -> Optional[
            tuple[ClosedFormSequence, ClosedFormSequence]]:
        """a(n) = first(n) a(1) + second(n) a(2) for a homogeneous order-2
        problem, each part self-checked like the solve; None otherwise."""
        spec = self.spec
        if spec.order != 2 or not spec.is_homogeneous:
            return None
        return tuple(solve_ivp(RecurrenceSpec(2, spec.coefficients, start),
                               self.verified_upto).closed_form
                     for start in ((1, 0), (0, 1)))

    def values(self, count: int = 10) -> list[Fraction]:
        """a(1)..a(count), read off the recursion the closed form matches."""
        reference = RecursiveSequence(self.spec)
        return [reference(n) for n in range(1, count + 1)]

    def closed_form_text(self) -> str:
        pretty = fibonacci_normal(self.closed_form)
        return pretty if pretty is not None else str(self.closed_form)

    def to_json_dict(self, count: int = 10) -> dict:
        folded = self.transform.rational
        return {
            "closed_form": {
                "text": self.closed_form_text(),
                "terms": [{
                    "coefficient": _quadext_json(t.coefficient),
                    "root": _quadext_json(t.root),
                    "multiplicity": t.multiplicity,
                } for t in self.closed_form.terms],
                "deltas": {str(j): _quadext_json(c)
                           for j, c in self.closed_form.deltas.items()},
            },
            "transform": {
                "text": self.transform.render("e^s"),
                "num": [_quadext_json(c) for c in folded.num.coefficients],
                "den": [_quadext_json(c) for c in folded.den.coefficients],
            },
            "values": [str(v) for v in self.values(count)],
            "verified_upto": self.verified_upto,
        }


def _quadext_json(value: QuadExt) -> dict:
    return {
        "rational": str(value.rational_part),
        "radical": str(value.radical_part),
        "radicand": value.radicand,
    }


def transform_of(spec: RecurrenceSpec) -> TransformExpr:
    """The transform L = (init*fden + fnum)/(char*fden) of the IVP, where
    fnum/fden is the forcing over one common denominator: one reduction."""
    char = spec.characteristic()
    # (numerator, pole b, order k) of each num/(t - b)^k; a pole shared
    # with char only raises that root's multiplicity
    pieces = [(n_power(term.exponent, term.base).rational.num
               * term.coefficient, term.base, term.exponent + 1)
              for term in spec.forcing]
    orders = {b: max(k for _, c, k in pieces if c == b) for _, b, _ in pieces}
    fden = Poly.from_roots(*(b for b, k in orders.items() for _ in range(k)))
    fnum = sum((num * (fden // Poly.from_roots(*[b] * k))
                for num, b, k in pieces), Poly())
    return TransformExpr.from_ratfunc(_initial_polynomial(spec) * fden + fnum,
                                      char * fden)


def solve_ivp(spec: RecurrenceSpec, verify_upto: int = 64,
              ) -> SolutionReport:
    """Solve the IVP exactly and self-check against direct recursion."""
    expr = transform_of(spec)
    closed = inverse_transform(expr)
    check = verify_solution(spec, closed, verify_upto)
    if not check.passed:
        raise VerificationFailed(
            f"closed form disagrees with recursion: {check.detail}")
    return SolutionReport(spec, expr, closed, verify_upto)


@dataclass
class VerificationReport:
    """Outcome of checking a proposed solution against its spec."""

    passed: bool
    checked_upto: int
    first_failure: Optional[int] = None
    detail: str = ""


def verify_solution(spec: RecurrenceSpec, seq: Callable[[int], object],
                    upto: int = 64) -> VerificationReport:
    """Check the initial values and the recurrence for n + order <= upto:
    both hold exactly when seq agrees with direct recursion that far."""
    k = spec.order
    passed, n = equal_prefix(seq, RecursiveSequence(spec), max(upto, k))
    if passed:
        return VerificationReport(True, upto)
    if n <= k:
        got = QuadExt.of(seq(n))  # type: ignore[arg-type]
        return VerificationReport(
            False, upto, n,
            f"initial value a({n}) is {got}, expected {spec.initials[n - 1]}")
    return VerificationReport(False, upto, n,
                              f"recurrence fails producing a({n})")
