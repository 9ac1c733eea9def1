"""The transform calculus for sequences f: {1, 2, ...} -> R.

The transform is F(s) = sum_{n>=1} f(n) e^{-sn}.  Writing t = e^s makes
every transform in scope a strictly proper rational function of t.  That
includes sequences supported on finitely many points: c at n = j and 0
elsewhere is c * e^(-js) = c/t^j, a pole of order j at t = 0, and the
spike at n = 1 is the geometric sequence of base 0 (0^0 = 1).

Rules, all exact in t:

    geometric     a^(n-1)            ->  1/(t - a)
    shift         f(n+k)             ->  t^k F - sum_{i=1..k} f(i) t^(k-i)
    difference    (Df)(n)=f(n+1)-f(n)->  (t - 1) F - f(1)
    times_n       n f(n)             ->  -dF/ds  =  -t dF/dt
    convolve      sum_{k<n} f(k)g(n-k) -> F * G
    partial_sum   sum_{k<n} f(k)     ->  F/(t - 1)
    n_power       n^k b^n            ->  b t^k A_k(b/t)/(t - b)^(k+1)

A rule that would produce a polynomial part raises ``ImproperResult``; that
only happens when the supplied initial values contradict the series F
actually encodes.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence, Union

from .errors import DegreeLimitExceeded, ImproperResult
from .exact import QuadExt
from .polys import Poly, RatFunc, T

Scalar = Union[int, Fraction, QuadExt]

# Highest power of n accepted by n_power and by forcing terms.
MAX_N_POWER = 12

_ZERO_RF = RatFunc()


class TransformExpr:
    """A transform value: a strictly proper rational function of t."""

    __slots__ = ("_rational",)

    def __init__(self, rational: RatFunc = _ZERO_RF) -> None:
        if not rational.is_strictly_proper:
            raise ValueError("rational part must be strictly proper")
        self._rational = rational

    @classmethod
    def from_ratfunc(cls, num, den=1) -> "TransformExpr":
        """Wrap num/den as a transform; accepts Poly, scalar, or
        a coefficient sequence (lowest degree first)."""
        return _proper(RatFunc(num, den))

    @property
    def rational(self) -> RatFunc:
        return self._rational

    @property
    def is_zero(self) -> bool:
        return self._rational.is_zero

    def __add__(self, other: object) -> "TransformExpr":
        if not isinstance(other, TransformExpr):
            return NotImplemented
        return TransformExpr(self._rational + other._rational)

    def __sub__(self, other: object) -> "TransformExpr":
        if not isinstance(other, TransformExpr):
            return NotImplemented
        return TransformExpr(self._rational - other._rational)

    def __neg__(self) -> "TransformExpr":
        return TransformExpr(-self._rational)

    def __mul__(self, other: object) -> "TransformExpr":
        if isinstance(other, TransformExpr):
            return convolve(self, other)
        if isinstance(other, (int, Fraction, QuadExt)):
            return TransformExpr(self._rational * QuadExt.of(other))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransformExpr):
            return NotImplemented
        return self._rational == other._rational

    def __hash__(self) -> int:
        return hash(self._rational)

    def eval_float(self, t0: float) -> float:
        return self._rational.eval_float(t0)

    def render(self, var: str = "t") -> str:
        return self._rational.render(var)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"TransformExpr({self._rational!r})"


def _proper(quotient: RatFunc) -> TransformExpr:
    """Wrap an already reduced quotient, refusing a polynomial part."""
    if not quotient.is_strictly_proper:
        raise ImproperResult(
            f"{quotient} has a polynomial part; "
            "not the transform of any sequence")
    return TransformExpr(quotient)


def geometric(a: Scalar) -> TransformExpr:
    """Transform of a^(n-1); base 0 (0^0 = 1) gives 1/t, the spike at n=1."""
    return TransformExpr(RatFunc(Poly((1,)), Poly((-QuadExt.of(a), 1))))


def shift(expr: TransformExpr, k: int, initials: Sequence[Scalar],
          ) -> TransformExpr:
    """Transform of f(n+k) given the first k values of f."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    if len(initials) != k:
        raise ValueError(f"shift by {k} needs exactly {k} initial values")
    head = Poly((QuadExt.of(c) for c in reversed(initials)))
    return _proper(RatFunc(Poly.monomial(k)) * expr.rational - RatFunc(head))


def difference(expr: TransformExpr, first: Scalar) -> TransformExpr:
    """Transform of (Df)(n) = f(n+1) - f(n) given f(1)."""
    return _proper(RatFunc(Poly((-1, 1))) * expr.rational - RatFunc(
        Poly((QuadExt.of(first),))))


def times_n(expr: TransformExpr) -> TransformExpr:
    """Transform of n*f(n): -dF/ds = -t dF/dt, so c/t^j becomes j*c/t^j."""
    return TransformExpr(-expr.rational.d_ds())


def convolve(left: TransformExpr, right: TransformExpr) -> TransformExpr:
    """Transform of the convolution sum_{k=1}^{n-1} f(k) g(n-k)."""
    return _proper(left.rational * right.rational)


def partial_sum(expr: TransformExpr) -> TransformExpr:
    """Transform of n -> sum_{k=1}^{n-1} f(k); divides by (t - 1)."""
    return _proper(expr.rational / RatFunc(Poly((-1, 1))))


def n_power(k: int, base: Union[int, Fraction] = 1) -> TransformExpr:
    """Transform of n^k b^n: b t^k A_k(b/t)/(t - b)^(k+1), with the
    Eulerian numbers A(k, m) as the coefficients of A_k (Concrete
    Mathematics 6.2), and b/(t - b) at k = 0.  The numerator is
    b^(k+1) k! at t = b, so the quotient is already reduced."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if k > MAX_N_POWER:
        raise DegreeLimitExceeded(
            f"n^{k} exceeds the degree limit {MAX_N_POWER}")
    if not base:
        raise ValueError("base must be nonzero")
    b = Fraction(base)
    b = b.numerator if b.denominator == 1 else b    # ints stay ints
    num = [0] * (k + 1)
    for m in range(max(k, 1)):   # coefficient A(k, m) b^(m+1) of t^(k-m)
        num[k - m] = b ** (m + 1) * sum(
            (-1) ** j * comb(k + 1, j) * (m + 1 - j) ** k
            for j in range(m + 1))
    den = [comb(k + 1, i) * (-b) ** (k + 1 - i) for i in range(k + 2)]
    return TransformExpr(RatFunc._reduced(Poly(num), Poly(den)))
