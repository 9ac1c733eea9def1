"""The transform calculus for sequences f: {1, 2, ...} -> R.

The transform is F(s) = sum_{n>=1} f(n) e^{-sn}.  Writing t = e^s makes
every transform in scope a strictly proper rational function of t.  That
includes sequences supported on finitely many points: c at n = j and 0
elsewhere is c * e^(-js) = c/t^j, a pole of order j at t = 0, and the
spike at n = 1 is the geometric sequence of base 0 (0^0 = 1).

A transform is therefore a plain ``RatFunc``: every rule below takes and
returns one.  Rules, all exact in t:

    geometric     a^(n-1)            ->  1/(t - a)
    shift         f(n+k)             ->  t^k F - sum_{i=1..k} f(i) t^(k-i)
    difference    (Df)(n)=f(n+1)-f(n)->  (t - 1) F - f(1)
    times_n       n f(n)             ->  -dF/ds  =  -t dF/dt
    convolve      sum_{k<n} f(k)g(n-k) -> F * G
    partial_sum   sum_{k<n} f(k)     ->  F/(t - 1)
    n_power       n^k b^n            ->  b t^k A_k(b/t)/(t - b)^(k+1)

Every rule checks its result: one with a polynomial part is the transform
of no sequence and raises ``ImproperResult``.  Given strictly proper
inputs, that only happens when the supplied initial values contradict the
series F actually encodes.
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


def _proper(quotient: RatFunc) -> RatFunc:
    """The quotient itself, refusing a polynomial part."""
    if not quotient.is_strictly_proper:
        raise ImproperResult(
            f"{quotient} has a polynomial part; "
            "not the transform of any sequence")
    return quotient


def geometric(a: Scalar) -> RatFunc:
    """Transform of a^(n-1); base 0 (0^0 = 1) gives 1/t, the spike at n=1."""
    return _proper(RatFunc(Poly((1,)), Poly((-QuadExt.of(a), 1))))


def shift(expr: RatFunc, k: int, initials: Sequence[Scalar]) -> RatFunc:
    """Transform of f(n+k) given the first k values of f."""
    if k < 0:
        raise ValueError("shift must be nonnegative")
    if len(initials) != k:
        raise ValueError(f"shift by {k} needs exactly {k} initial values")
    head = Poly((QuadExt.of(c) for c in reversed(initials)))
    return _proper(RatFunc(Poly.monomial(k)) * expr - RatFunc(head))


def difference(expr: RatFunc, first: Scalar) -> RatFunc:
    """Transform of (Df)(n) = f(n+1) - f(n) given f(1)."""
    return _proper(RatFunc(Poly((-1, 1))) * expr - RatFunc(
        Poly((QuadExt.of(first),))))


def times_n(expr: RatFunc) -> RatFunc:
    """Transform of n*f(n): -dF/ds = -t dF/dt, so c/t^j becomes j*c/t^j."""
    return _proper(-expr.d_ds())


def convolve(left: RatFunc, right: RatFunc) -> RatFunc:
    """Transform of the convolution sum_{k=1}^{n-1} f(k) g(n-k)."""
    return _proper(left * right)


def partial_sum(expr: RatFunc) -> RatFunc:
    """Transform of n -> sum_{k=1}^{n-1} f(k); divides by (t - 1)."""
    return _proper(expr / RatFunc(Poly((-1, 1))))


def n_power(k: int, base: Union[int, Fraction] = 1) -> RatFunc:
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
    return _proper(RatFunc._reduced(Poly(num), Poly(den)))
