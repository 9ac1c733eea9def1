"""Exact arithmetic in Q and in real quadratic extensions Q(sqrt(d)).

Rationals are plain ``fractions.Fraction``.  ``QuadExt`` represents
``a + b*sqrt(d)`` with rational ``a``, ``b`` and an integer radicand
``d >= 0``, made squarefree by the constructor and trusted by arithmetic
on normalised operands; pure rationals normalize to ``d == 0``, so roots,
closed-form coefficients and values have one type whether or not they
are radical.  Polynomial coefficients are rationals, which
``polys.Poly`` holds as a content times integers.  A radicand whose
square part bounded trial division cannot settle is refused with
``CapabilityError``.  All field operations and an exact
sign are available, plus a float conversion that brackets sqrt(d)
tightly enough to land within a couple of ulps.

In normal form ``d == 0`` exactly when ``b == 0``.  So arithmetic on two
rational operands, and the inverse of one, is a single ``Fraction``
operation, and ints and Fractions are wrapped without the constructor.
The constructor with a zero radical part makes one ``Fraction`` and
never splits the radicand.  Equality between a rational value and an
int, a ``Fraction`` or another rational value compares the
``Fraction`` directly, without wrapping the other side, and a rational
value hashes as its ``Fraction``, so equal values find each other in a
dict or set whichever type they have.

Values from two different extensions (both radicands nonzero and unequal)
cannot be combined; such an attempt raises ``RadicandMismatch`` instead of
silently working in a larger field.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Union

from .errors import CapabilityError, RadicandMismatch

RationalLike = Union[int, Fraction]
_NO_RADICAL = Fraction(0)


# Radicands are split by trial division by 2 and the odd numbers up to
# this bound; see _squarefree_split.
_SPLIT_BOUND = 1 << 16


def _exact_sqrt(n: int) -> int | None:
    """The square root of n when n is the square of an integer, else None."""
    if n < 0:
        return None
    root = isqrt(n)
    return root if root * root == n else None


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (m, d0) with d == m*m*d0 and d0 squarefree.

    Each trial divisor p up to ``_SPLIT_BOUND`` is divided out of the
    cofactor c completely, so the loop also stops once p*p > c, when c
    is 1 or a prime.  A cofactor left with every prime factor at least p
    and c < p^3 is p1, p1^2 or p1*p2, and a perfect-square test tells
    them apart; a larger one is refused with ``CapabilityError`` rather
    than factored."""
    m, d0, c, p = 1, 1, d, 2
    while p <= _SPLIT_BOUND:
        if p * p > c:
            return m, d0 * c
        if c % p == 0:
            e = 0
            while c % p == 0:
                c, e = c // p, e + 1
            m *= p ** (e // 2)
            if e % 2:
                d0 *= p
        p += 1 if p == 2 else 2
    if c >= p ** 3:
        part = "it" if c == d else f"its factor {_int_text(c)}"
        raise CapabilityError(
            f"cannot split the radicand {_int_text(d)}: {part} has no prime "
            f"factor below {p} and is too large to classify")
    root = _exact_sqrt(c)
    return (m * root, d0) if root else (m, d0 * c)


def _int_text(x: int) -> str:
    """x in decimal, or its bit length when it has more digits than the
    interpreter converts to a string."""
    try:
        return str(x)
    except ValueError:
        return f"of {x.bit_length()} bits"


class QuadExt:
    """An exact value a + b*sqrt(d) with a, b in Q and d squarefree."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, rational: RationalLike = 0,
                 radical: RationalLike = 0, radicand: int = 0) -> None:
        if radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if not radical:
            self._a, self._b, self._d = Fraction(rational), _NO_RADICAL, 0
            return
        a, b = Fraction(rational), Fraction(radical)
        m, d = _squarefree_split(radicand)
        if d <= 1:      # sqrt(0) = 0 and sqrt(m*m) = m
            a, b, d = a + b * m * d, _NO_RADICAL, 0
        self._a, self._b, self._d = a, b * m, d

    @classmethod
    def _normalised(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """a + b*sqrt(d) for a squarefree d (or 0), without re-splitting."""
        value = object.__new__(cls)
        value._a, value._b, value._d = a, b, (d if d and b else 0)
        return value

    @classmethod
    def of(cls, value: "QuadExt | RationalLike") -> "QuadExt":
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, int):
            return cls._normalised(Fraction(value), _NO_RADICAL, 0)
        if isinstance(value, Fraction):
            return cls._normalised(value, _NO_RADICAL, 0)
        raise TypeError(f"cannot interpret {value!r} as an exact value")

    @property
    def rational_part(self) -> Fraction:
        return self._a

    @property
    def radical_part(self) -> Fraction:
        return self._b

    @property
    def radicand(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return not self._d

    def conjugate(self) -> "QuadExt":
        """The image of the map sqrt(d) -> -sqrt(d)."""
        return QuadExt._normalised(self._a, -self._b, self._d)

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1, decided without floating point."""
        sa = (self._a > 0) - (self._a < 0)
        sb = (self._b > 0) - (self._b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        # a and b*sqrt(d) pull in opposite directions; compare a^2 vs b^2 d.
        diff = self._a * self._a - self._b * self._b * self._d
        return sa * ((diff > 0) - (diff < 0))

    def inverse(self) -> "QuadExt":
        if not self:
            raise ZeroDivisionError("division by zero")
        if not self._d:
            return QuadExt._normalised(1 / self._a, _NO_RADICAL, 0)
        norm = self._a * self._a - self._b * self._b * self._d
        return QuadExt._normalised(self._a / norm, -self._b / norm, self._d)

    def to_float(self) -> float:
        """Round to the nearest double within a couple of ulps.

        sqrt(d) is bracketed by integer square roots at growing precision
        until the enclosing interval for the whole value is relatively
        smaller than 2^-52.
        """
        if self._b == 0:
            return float(self._a)
        if self.sign() == 0:
            return 0.0
        bits = 64
        while True:
            scale = 1 << bits
            m = isqrt(self._d * scale * scale)
            lo, hi = Fraction(m, scale), Fraction(m + 1, scale)
            if self._b > 0:
                x_lo, x_hi = self._a + self._b * lo, self._a + self._b * hi
            else:
                x_lo, x_hi = self._a + self._b * hi, self._a + self._b * lo
            mid = (x_lo + x_hi) / 2
            if mid and (x_hi - x_lo) * (1 << 52) <= abs(mid):
                return float(mid)
            bits *= 2

    def _coerce(self, other: object) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt.of(other)
        return None

    def _common_radicand(self, other: "QuadExt") -> int:
        if self._d == other._d:
            return self._d
        if self._d == 0:
            return other._d
        if other._d == 0:
            return self._d
        raise RadicandMismatch(
            f"cannot combine sqrt({self._d}) with sqrt({other._d})")

    def __add__(self, other: object) -> "QuadExt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self._d or o._d):
            return QuadExt._normalised(self._a + o._a, _NO_RADICAL, 0)
        d = self._common_radicand(o)
        return QuadExt._normalised(self._a + o._a, self._b + o._b, d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadExt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self._d or o._d):
            return QuadExt._normalised(self._a - o._a, _NO_RADICAL, 0)
        d = self._common_radicand(o)
        return QuadExt._normalised(self._a - o._a, self._b - o._b, d)

    def __mul__(self, other: object) -> "QuadExt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self._d or o._d):
            return QuadExt._normalised(self._a * o._a, _NO_RADICAL, 0)
        d = self._common_radicand(o)
        return QuadExt._normalised(self._a * o._a + self._b * o._b * d,
                                   self._a * o._b + self._b * o._a, d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "QuadExt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, exponent: int) -> "QuadExt":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if not self._d:
            return QuadExt._normalised(self._a ** exponent, _NO_RADICAL, 0)
        # square the integer pair (u, v) = q*self and divide once by q^e
        q = lcm(self._a.denominator, self._b.denominator)
        u, v = _integer_pair(self, q)
        d, x, y, e = self._d, 1, 0, exponent
        while e:
            if e & 1:
                x, y = x * u + y * v * d, x * v + y * u
            e >>= 1
            if e:
                u, v = u * u + v * v * d, 2 * u * v
        den = q ** exponent
        return QuadExt._normalised(Fraction(x, den), Fraction(y, den), d)

    def __neg__(self) -> "QuadExt":
        return QuadExt._normalised(-self._a, -self._b, self._d)

    def __abs__(self) -> "QuadExt":
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            if self._d or other._d:
                return self._a == other._a and self._b == other._b and \
                    self._d == other._d
            other = other._a
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        # both normalised: equal rationals have equal terms
        a = self._a
        return not self._d and a.numerator == other.numerator and \
            a.denominator == other.denominator

    def __hash__(self) -> int:
        # a rational value hashes as its Fraction, which it equals
        return hash((self._a, self._b, self._d)) if self._d else \
            hash(self._a)

    def __float__(self) -> float:
        return self.to_float()

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        if self._b == 1:
            rad = f"sqrt({self._d})"
        elif self._b == -1:
            rad = f"-sqrt({self._d})"
        else:
            rad = f"{self._b}*sqrt({self._d})"
        if self._a == 0:
            return rad
        if rad.startswith("-"):
            return f"{self._a} - {rad[1:]}"
        return f"{self._a} + {rad}"

    def __repr__(self) -> str:
        return f"QuadExt({self._a!r}, {self._b!r}, {self._d})"


def _integer_pair(value: QuadExt, scale: int) -> tuple[int, int]:
    """(x, y) with x + y*sqrt(d) == scale * value; scale clears both
    denominators."""
    a, b = value.rational_part, value.radical_part
    return (a.numerator * (scale // a.denominator),
            b.numerator * (scale // b.denominator))


def sort_key(value: QuadExt) -> tuple[int, Fraction, Fraction]:
    """A deterministic ordering key usable across different radicands."""
    return (value.radicand, value.rational_part, value.radical_part)
