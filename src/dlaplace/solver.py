"""Initial value problems for linear constant-coefficient recurrences.

A problem is

    a(n+k) = c_{k-1} a(n+k-1) + ... + c_0 a(n) + forcing(n),   n >= 1,

with rational coefficients, rational initial values a(1)..a(k) and forcing
built from terms c n^p b^n (p bounded, b a nonzero rational).  Each term's
transform is one quotient with the single pole b, which may coincide with
a characteristic root.  Transforming both sides with the shift rule and
solving for the unknown transform L gives

    L = (initial polynomial + forcing transform) / characteristic polynomial

which the sequence engine then inverts into a closed form.  Numerator and
denominator are assembled as integer vectors, each pole (v t - u)^k of a
base u/v built from binomials, and reduced once.

Every solve re-checks its own answer against direct recursion before
returning; a mismatch raises ``VerificationFailed`` and means a bug, never
bad input.  The recursion steps in integers: it keeps a(n) times one
common denominator M S^n, advances each b^n by one multiplication, and
makes one ``Fraction`` per value read.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, lcm
from typing import Callable, Iterable, Optional, Union

from ._record import Record
from .errors import CapabilityError, UnsupportedForcing, VerificationFailed
from .exact import QuadExt
from .polys import Poly, RatFunc
from .transforms import MAX_N_POWER, n_power
from .sequences import ClosedFormSequence, equal_prefix, inverse_transform

RationalLike = Union[int, Fraction]


class ForcingTerm(Record):
    """coefficient * n^exponent * base^n as a forcing summand."""

    __slots__ = ("coefficient", "exponent", "base")

    def __init__(self, coefficient: RationalLike, exponent: int = 0,
                 base: RationalLike = Fraction(1)) -> None:
        object.__setattr__(self, "coefficient", Fraction(coefficient))
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "base", Fraction(base))
        if exponent < 0:
            raise UnsupportedForcing("negative powers of n are not supported")
        if exponent > MAX_N_POWER:
            raise UnsupportedForcing(
                f"n^{exponent} exceeds the degree limit {MAX_N_POWER}")
        if not self.base:
            raise UnsupportedForcing("a forcing base must be nonzero")


class RecurrenceSpec(Record):
    """Order, coefficients c_0..c_{k-1}, forcing terms and initial values."""

    __slots__ = ("order", "coefficients", "initials", "forcing")

    def __init__(self, order: int, coefficients: Iterable[RationalLike],
                 initials: Iterable[RationalLike],
                 forcing: Iterable[ForcingTerm] = ()) -> None:
        if order < 1:
            raise ValueError("order must be at least 1")
        coeffs = tuple(Fraction(c) for c in coefficients)
        inits = tuple(Fraction(v) for v in initials)
        if len(coeffs) != order:
            raise ValueError(f"order {order} needs {order} coefficients")
        if len(inits) != order:
            raise ValueError(f"order {order} needs {order} initial values")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "initials", inits)
        object.__setattr__(self, "forcing", tuple(forcing))

    @property
    def is_homogeneous(self) -> bool:
        return not self.forcing

    def characteristic(self) -> Poly:
        """t^k - c_{k-1} t^(k-1) - ... - c_0."""
        return Poly(tuple(-c for c in self.coefficients) + (1,))


def _scaled(x: Fraction, multiple: int) -> int:
    """x * multiple, for a multiple of x's denominator, in integers."""
    return x.numerator * (multiple // x.denominator)


class RecursiveSequence:
    """Direct iteration of a RecurrenceSpec, memoized; the ground truth.

    With S the lcm of the coefficient and base denominators and M that of
    the initial and forcing-coefficient denominators, A(n) = a(n) M S^n
    obeys A(m+k) = sum_j c_j S^(k-j) A(m+j) + sum_i M S^k c_i m^p_i (S b_i)^m
    in integers.  Each (S b_i)^m advances by one multiplication, and a read
    divides by M S^n once.
    """

    def __init__(self, spec: RecurrenceSpec) -> None:
        k, forcing = spec.order, spec.forcing
        s = lcm(*(c.denominator for c in spec.coefficients),
                *(term.base.denominator for term in forcing))
        m = lcm(*(v.denominator for v in spec.initials),
                *(term.coefficient.denominator for term in forcing))
        self.spec, self._scale, self._clear = spec, s, m
        self._steps = [(j, _scaled(c, s) * s ** (k - 1 - j))
                       for j, c in enumerate(spec.coefficients) if c]
        self._forcing = [(_scaled(term.coefficient, m) * s ** k,
                          term.exponent, _scaled(term.base, s))
                         for term in forcing]
        # (S b_i)^m for the next step's m, which starts at 1
        self._powers = [sb for _, _, sb in self._forcing]
        self._values = [_scaled(v, m) * s ** i
                        for i, v in enumerate(spec.initials, 1)]

    def __call__(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("sequences start at n = 1")
        values, powers = self._values, self._powers
        while len(values) < n:
            m = len(values) - self.spec.order + 1
            nxt = sum(c * values[m - 1 + j] for j, c in self._steps)
            for i, (c, p, sb) in enumerate(self._forcing):
                nxt += c * m ** p * powers[i]
                powers[i] *= sb
            values.append(nxt)
        return Fraction(values[n - 1], self._clear * self._scale ** n)


def _initial_polynomial(spec: RecurrenceSpec) -> list[Fraction]:
    """Initial data contributed by shifting both sides of the recurrence,
    lowest degree first.

    Shifting a by k contributes sum_i a(i) t^(k-i); each right-hand shift
    by j contributes -c_j * sum_{i<=j} a(i) t^(j-i).
    """
    a = spec.initials
    total = list(reversed(a))
    for j, c in enumerate(spec.coefficients):
        if c:
            for i in range(1, j + 1):
                total[j - i] -= c * a[i - 1]
    return total


class SolutionReport:
    """Everything a solve produces, ready for rendering or JSON."""

    def __init__(self, spec: RecurrenceSpec, transform: RatFunc,
                 closed_form: ClosedFormSequence, verified_upto: int,
                 ) -> None:
        self.spec = spec
        self.transform = transform
        self.closed_form = closed_form
        self.verified_upto = verified_upto

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

    def value_texts(self, count: int = 10) -> list[str]:
        """The values as text; one with more digits than the interpreter
        converts to a string is refused."""
        texts = []
        for n, value in enumerate(self.values(count), 1):
            try:
                texts.append(str(value))
            except ValueError:
                raise CapabilityError(
                    f"a({n}) is too large to print: it has more than "
                    f"{sys.get_int_max_str_digits()} digits") from None
        return texts

    def to_json_dict(self, count: int = 10) -> dict:
        return {
            "closed_form": {
                "text": str(self.closed_form),
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
                "num": [_quadext_json(c)
                        for c in self.transform.num.coefficients],
                "den": [_quadext_json(c)
                        for c in self.transform.den.coefficients],
            },
            "values": self.value_texts(count),
            "verified_upto": self.verified_upto,
        }


def _quadext_json(value: QuadExt) -> dict:
    return {
        "rational": str(value.rational_part),
        "radical": str(value.radical_part),
        "radicand": value.radicand,
    }


def _int_mul(p: list[int], q: list[int]) -> list[int]:
    """The product of two integer vectors, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q, i):
                out[j] += x * y
    return out


def _pole(base: Fraction, k: int) -> list[int]:
    """(v t - u)^k for base u/v, from binomials."""
    u, v = base.numerator, base.denominator
    return [comb(k, i) * v ** i * (-u) ** (k - i) for i in range(k + 1)]


def _integer_vector(fracs: list[Fraction]) -> tuple[list[int], int]:
    """(fracs * L, L) for L the lcm of the denominators."""
    scale = lcm(*(x.denominator for x in fracs))
    return [_scaled(x, scale) for x in fracs], scale


def transform_of(spec: RecurrenceSpec) -> RatFunc:
    """The transform L = (init*fden + fnum)/(char*fden) of the IVP, where
    fnum/fden is the forcing over one common denominator: the product of
    (v t - u)^k over the bases u/v, each k the highest pole order there.

    Both sides are assembled as integer vectors and reduced once."""
    # (numerator, coefficient, base, order) of each c*num/(t - b)^k; a
    # pole shared with char only raises that root's multiplicity
    pieces = [(n_power(term.exponent, term.base).num,
               term.coefficient, term.base, term.exponent + 1)
              for term in spec.forcing]
    orders: dict[Fraction, int] = {}
    for _, _, b, k in pieces:
        orders[b] = max(orders.get(b, 0), k)
    poles = {b: _pole(b, k) for b, k in orders.items()}
    fden = reduce(_int_mul, poles.values(), [1])
    # fnum * coeff_scale in integers, the lcm of the forcing coefficients'
    # denominators; num/(t - b)^k = v^k num/(v t - u)^k, v^k num integral
    coeff_scale = lcm(*(c.denominator for _, c, _, _ in pieces))
    fnum = [0] * len(fden)
    for num, c, b, k in pieces:
        vk = b.denominator ** k
        top = [_scaled(x.as_fraction(), vk) * _scaled(c, coeff_scale)
               for x in num.coefficients]
        cofactor = reduce(_int_mul, (p for other, p in poles.items()
                                     if other != b),
                          _pole(b, orders[b] - k))
        for i, x in enumerate(_int_mul(top, cofactor)):
            fnum[i] += x
    init, init_scale = _integer_vector(_initial_polynomial(spec))
    char, char_scale = _integer_vector(
        [-c for c in spec.coefficients] + [Fraction(1)])
    # both sides times init_scale * coeff_scale * char_scale
    num = [x * char_scale * coeff_scale for x in _int_mul(init, fden)]
    for i, x in enumerate(fnum):
        num[i] += x * char_scale * init_scale
    den = [x * init_scale * coeff_scale for x in _int_mul(char, fden)]
    return RatFunc(num, den)


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


class VerificationReport:
    """Outcome of checking a proposed solution against its spec."""

    __slots__ = ("passed", "checked_upto", "first_failure", "detail")

    def __init__(self, passed: bool, checked_upto: int,
                 first_failure: Optional[int] = None, detail: str = "",
                 ) -> None:
        self.passed = passed
        self.checked_upto = checked_upto
        self.first_failure = first_failure
        self.detail = detail


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
