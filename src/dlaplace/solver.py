"""Initial value problems for linear constant-coefficient recurrences.

A problem is

    a(n+k) = c_{k-1} a(n+k-1) + ... + c_0 a(n) + forcing(n),   n >= 1,

with rational coefficients, rational initial values a(1)..a(k) and forcing
built from terms c n^p b^n (p bounded, b a nonzero rational).  With E the
shift, P(E) = char(E) prod_b (E - b)^(e_b), e_b one more than the top
power of n at the base b (which may be a characteristic root), annihilates
the recursion.  The shift rule applied to P(E)a = 0 leaves a polynomial N
of degree below deg P, read off a(1)..a(deg P) in integers, so

    L = N / P

is the transform, which the sequence engine then inverts into a closed
form.  L is reduced once.

Every solve re-checks its own answer against direct recursion before
returning; a mismatch raises ``VerificationFailed`` and means a bug, never
bad input.  The recursion steps in integers: it keeps a(n) times one
common denominator M S^n and advances each b^n by one multiplication.  The
check compares that integer with the closed form's, over C Q^(n-1), by
cross-products, so it takes no gcd and makes no ``Fraction``.

The check proves its whole horizon from deg P values.  P, the
denominator of L before any cancellation, is monic, and P(E) kills the
recursion; when each root of the closed form, to its multiplicity, is a
root of P, which is checked by exact division in Z[t], P(E) kills the
closed form too.  Their difference then vanishes for all n once it
vanishes for n = 1..deg P (Kauers and Paule, *The Concrete Tetrahedron*,
ch. 4; Petkovsek, Wilf and Zeilberger, *A = B*), so a first mismatch lies
at n <= deg P and the comparison stops there.  When a division fails, it
runs over the whole horizon.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import lcm, prod
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Union

from ._record import Record
from .errors import CapabilityError, UnsupportedForcing, VerificationFailed
from .exact import QuadExt
from . import polys
from .polys import Poly, RatFunc, _quotient
from .transforms import MAX_N_POWER
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
    in integers.  Each (S b_i)^m advances by one multiplication; a read
    divides by M S^n once, and ``ratios`` gives A(n) and M S^n as they are.
    """

    def __init__(self, spec: RecurrenceSpec) -> None:
        k, forcing = spec.order, spec.forcing
        s = lcm(*(c.denominator for c in spec.coefficients),
                *(term.base.denominator for term in forcing))
        m = lcm(*(v.denominator for v in spec.initials),
                *(term.coefficient.denominator for term in forcing))
        self.spec, self._scale, self._clear = spec, s, m
        self._weights = [_scaled(c, s) * s ** (k - 1 - j)
                         for j, c in enumerate(spec.coefficients)]
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
        return Fraction(self._fill(n)[n - 1], self._clear * self._scale ** n)

    def ratios(self, upto: int) -> Iterator[tuple[int, int]]:
        """a(n) as A(n) over M S^n, not reduced, at least to n = upto."""
        s = self._scale
        return zip(self._fill(upto), accumulate(repeat(s), mul,
                                                initial=self._clear * s))

    def _fill(self, n: int) -> list[int]:
        values, powers, k = self._values, self._powers, self.spec.order
        while len(values) < n:
            m = len(values) - k + 1
            nxt = sum(map(mul, self._weights, values[-k:]))
            for i, (c, p, sb) in enumerate(self._forcing):
                nxt += c * m ** p * powers[i]
                powers[i] *= sb
            values.append(nxt)
        return values


class SolutionReport:
    """Everything a solve produces, ready for rendering or JSON."""

    def __init__(self, spec: RecurrenceSpec, transform: RatFunc,
                 closed_form: ClosedFormSequence, verified_upto: int,
                 recursion: RecursiveSequence) -> None:
        self.spec = spec
        self.transform = transform
        self.closed_form = closed_form
        self.verified_upto = verified_upto
        self.recursion = recursion

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
        """a(1)..a(count), read off the recursion the self-check stepped."""
        return [self.recursion(n) for n in range(1, count + 1)]

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

    def json_text(self, count: int = 10) -> str:
        """The report as JSON: the bytes of ``json.dumps(payload,
        indent=2)`` written straight from the solve, each exact value an
        object {"rational", "radical", "radicand"} and the transform's
        coefficients lowest degree first.  A number with more digits than
        the interpreter converts to a string raises ValueError, or, for a
        value, the CapabilityError of ``value_texts``."""
        # here, so that importing the package loads no json
        from json.encoder import encode_basestring_ascii
        closed, transform = self.closed_form, self.transform
        # in the payload's order, so the first number too large to print
        # is the one that refuses
        text = encode_basestring_ascii(str(closed))
        terms = [f'{{{_P4}"coefficient": {_quad_text(t.coefficient, _P4)},'
                 f'{_P4}"root": {_quad_text(t.root, _P4)},'
                 f'{_P4}"multiplicity": {t.multiplicity}{_P3}}}'
                 for t in closed.terms]
        deltas = [f'"{j}": {_quad_text(c, _P3)}'
                  for j, c in closed.deltas.items()]
        transform_text = encode_basestring_ascii(transform.render("e^s"))
        num = [_exact_text(x, 0, 0, _P3) for x in transform.num.fractions]
        den = [_exact_text(x, 0, 0, _P3) for x in transform.den.fractions]
        values = [f'"{v}"' for v in self.value_texts(count)]
        return (f'{{{_P1}"closed_form": {{{_P2}"text": {text},'
                f'{_P2}"terms": {_block(terms, "[]", _P2)},'
                f'{_P2}"deltas": {_block(deltas, "{}", _P2)}{_P1}}},'
                f'{_P1}"transform": {{{_P2}"text": {transform_text},'
                f'{_P2}"num": {_block(num, "[]", _P2)},'
                f'{_P2}"den": {_block(den, "[]", _P2)}{_P1}}},'
                f'{_P1}"values": {_block(values, "[]", _P1)},'
                f'{_P1}"verified_upto": {self.verified_upto}\n}}')

    def to_json_dict(self, count: int = 10) -> dict:
        """The payload ``json_text`` writes, as a dict."""
        from json import loads
        return loads(self.json_text(count))


# json.dumps(indent=2) line starts, by nesting depth
_P1, _P2, _P3, _P4 = ("\n" + "  " * depth for depth in range(1, 5))


def _exact_text(rational: Fraction, radical: Fraction | int, radicand: int,
                pad: str) -> str:
    """rational + radical*sqrt(radicand) as a JSON object whose closing
    brace starts at pad."""
    return (f'{{{pad}  "rational": "{rational}",'
            f'{pad}  "radical": "{radical}",'
            f'{pad}  "radicand": {radicand}{pad}}}')


def _quad_text(value: QuadExt, pad: str) -> str:
    """A QuadExt as the JSON object of ``_exact_text``."""
    return _exact_text(value.rational_part, value.radical_part,
                       value.radicand, pad)


def _block(items: list[str], brackets: str, pad: str) -> str:
    """A JSON array or object of items already written one level below
    pad, where its closing bracket starts."""
    if not items:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{pad}{brackets[1]}"


def _poles(spec: RecurrenceSpec) -> dict[Fraction, int]:
    """Each forcing base b with e_b, one more than the top power of n at
    b: (t - b)^(e_b) annihilates every forcing term at b, so P =
    char * prod_b (t - b)^(e_b) annihilates the recursion."""
    poles: dict[Fraction, int] = {}
    for term in spec.forcing:
        poles[term.base] = max(poles.get(term.base, 0), term.exponent + 1)
    return poles


def transform_of(spec: RecurrenceSpec, *,
                 recursion: Optional[RecursiveSequence] = None) -> RatFunc:
    """The transform L = N/P of the IVP, P = char * prod_b (t - b)^(e_b)
    from ``_poles``: P(E) annihilates the recursion, so N is read off its
    first deg P values (``polys.annihilated_numerator``).  recursion, if
    given, stands for ``RecursiveSequence(spec)`` and keeps those values.

    L is reduced by g = gcd(N, char) when N(b) != 0 at every base b: then
    no t - b divides N, so g = gcd(N, P), and the remainder sequence runs
    on char, not on the longer P.  Otherwise, and for N = 0, ``RatFunc``
    reduces by gcd(N, P)."""
    poles = _poles(spec)
    char = spec.characteristic()
    den = prod((Poly((-b, 1)) ** e for b, e in poles.items()), start=char)
    if recursion is None:
        recursion = RecursiveSequence(spec)
    num = polys.annihilated_numerator(den, recursion.ratios(den.degree))
    # N(p/q) = 0 exactly when q t - p divides N
    if num.is_zero or any(_quotient(num._ints, [-b.numerator, b.denominator])
                          is not None for b in poles):
        return RatFunc(num, den)
    # through the module, so a wrapper set on polys.poly_gcd sees the call
    return RatFunc._reduced(*polys._cancel(num, den,
                                           polys.poly_gcd(num, char)))


def solve_ivp(spec: RecurrenceSpec, verify_upto: int = 64,
              ) -> SolutionReport:
    """Solve the IVP exactly and self-check against direct recursion."""
    recursion = RecursiveSequence(spec)
    expr = transform_of(spec, recursion=recursion)
    closed = inverse_transform(expr)
    check = verify_solution(spec, closed, verify_upto, recursion=recursion)
    if not check.passed:
        raise VerificationFailed(
            f"closed form disagrees with recursion: {check.detail}")
    return SolutionReport(spec, expr, closed, verify_upto, recursion)


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


def _proof_horizon(spec: RecurrenceSpec, seq: ClosedFormSequence,
                   ) -> Optional[int]:
    """deg P when P(E) provably annihilates seq, else None.

    P = char * prod_b (t - b)^(e_b), with the e_b of ``_poles``,
    annihilates the recursion; it is read off the spec, never the
    transform.  seq is annihilated by the product of its root factors f^M
    (``ClosedFormSequence.root_factors``), which are prime to each other,
    so P(E) annihilates seq when each f^M divides P.
    P's factors other than char are the t - b, so that holds when
    f^(M - e_b) divides char at f = q t - p for a base b = p/q, and f^M
    does at every other f.  Each division runs on the quotient the last
    one left, and the first that leaves a remainder settles it.
    """
    poles = _poles(spec)
    char: Optional[list[int]] = list(spec.characteristic()._ints)
    for factor, top in seq.root_factors():
        if len(factor) == 2:
            top -= poles.get(Fraction(-factor[0], factor[1]), 0)
        for _ in range(top):
            char = _quotient(char, factor)
            if char is None:
                return None
    return spec.order + sum(poles.values())


def verify_solution(spec: RecurrenceSpec, seq: Callable[[int], object],
                    upto: int = 64, *,
                    recursion: Optional[RecursiveSequence] = None,
                    ) -> VerificationReport:
    """Check the initial values and the recurrence for n + order <= upto:
    both hold exactly when seq agrees with direct recursion that far.

    For a closed form annihilated by the recursion's annihilator P (see
    ``_proof_horizon``), seq minus the recursion is annihilated by the
    monic P(E), so it vanishes for all n once it vanishes for
    n = 1..deg P, and a first mismatch, if any, lies at n <= deg P: the
    comparison stops there, with the same report as over the whole
    horizon (Kauers and Paule, *The Concrete Tetrahedron*, ch. 4).  Any
    other seq is compared over the whole horizon.  recursion, if given,
    stands for ``RecursiveSequence(spec)``."""
    k = spec.order
    reference = RecursiveSequence(spec) if recursion is None else recursion
    horizon = max(upto, k)
    if isinstance(seq, ClosedFormSequence):
        horizon = min(horizon, _proof_horizon(spec, seq) or horizon)
    passed, n = equal_prefix(seq, reference, horizon)
    if passed:
        return VerificationReport(True, upto)
    if n <= k:
        got = QuadExt.of(seq(n))  # type: ignore[arg-type]
        return VerificationReport(
            False, upto, n,
            f"initial value a({n}) is {got}, expected {spec.initials[n - 1]}")
    return VerificationReport(False, upto, n,
                              f"recurrence fails producing a({n})")
