"""Polynomials and rational functions in the formal variable t = e^s.

Every transform in scope is a rational function of integers: radicals
appear only in its roots and in its partial-fraction coefficients.  So
``Poly`` holds rational coefficients only, in the standard form content
times primitive part: a positive ``Fraction`` and a tuple of integers with
gcd 1, lowest degree first (Cohen, *A Course in Computational Algebraic
Number Theory*, 3.2).  A radical coefficient raises ``ValueError``.  By
Gauss's lemma a product of primitive vectors is primitive, so a product
is one integer convolution and one product of contents.  ``fractions``
and ``coefficients`` read the coefficients as ``Fraction``s and as
rational ``QuadExt`` values, for JSON and other readers that also meet
radical values.  The zero polynomial has no integers and reports degree
-1.  ``RatFunc`` keeps a quotient normalized: gcd cancelled and the
denominator monic, so equality is plain comparison of the parts.

Every exact algorithm below reads the primitive parts directly.
``poly_gcd`` runs a primitive remainder sequence in Z[t]: each
pseudo-remainder is divided by its content, so no ``Fraction`` arithmetic
runs until the monic gcd is built (Cohen, 3.3).  ``RatFunc`` divides both
primitive parts by that gcd exactly, and the contents only set the
numerator's content once the denominator is made monic.

``factor_roots`` finds the complete root multiset of a monic denominator
when it splits over Q or over real quadratic extensions, each quadratic
factor in its own; anything deeper raises ``UnsupportedFactorization``.
The denominator's primitive part f is read in one pass over its
squarefree factors g, from Yun's squarefree factorization in Z[t] (Yun,
SYMSAC 1976), whose gcds run the remainder sequence ``poly_gcd`` runs.  A
quadratic g is solved from its one integer discriminant.  Any other g
gives its rational roots by formula when linear; a larger one has its
real roots isolated by a Sturm sequence in integers, so the time grows
with the degree and the coefficients' bit lengths, not with their
divisors (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*,
ch. 2).  As g is squarefree, each root p/q divides it once: it takes g's
multiplicity and is divided out by synthetic division by (q t - p), which
is exact and keeps the vector primitive by Gauss's lemma (Cohen, 3.4).
What is left of g has no rational root, and a quadratic left is solved
from its discriminant.

``partial_fractions`` expands a strictly proper quotient over those roots
into ``Term``s c/(t - r)^m, the records a closed form reads as its
summands c C(n-1, m-1) r^(n-m), so inverting a transform copies nothing.
It works by local expansion at each root, which needs no linear system
and keeps repeated roots on the same code path as simple ones.  The
Taylor shift to a root is one synthetic division on integer pairs (x, y),
standing for x + y*sqrt(d), over one common denominator, with d the
root's radicand (0 for a rational root); so at a rational root the
quotient is expanded in integers and ``Fraction``s, without ``QuadExt``
arithmetic.  The conjugate of a radical root takes the conjugate
expansion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from ._record import Record
from .errors import ImproperRational, PoleEvaluation, UnsupportedFactorization
from .exact import (QuadExt, RationalLike, _exact_sqrt, _integer_pair,
                    _squarefree_split, sort_key)

Scalar = Union[int, Fraction, QuadExt]
_ZERO = QuadExt(0)


def _rational(c: Scalar) -> RationalLike:
    """c as an int or a Fraction; a radical c raises ValueError and an
    inexact one TypeError."""
    if isinstance(c, (int, Fraction)):
        return c
    if not isinstance(c, QuadExt):
        raise TypeError(f"cannot interpret {c!r} as an exact value")
    if c.radicand:
        raise ValueError(f"radical coefficient {c}: polynomials are over Q")
    return c.rational_part


class Poly:
    """A dense univariate polynomial over Q, held as its content times its
    primitive part: a positive ``Fraction`` and a tuple of integers with
    gcd 1, lowest degree first (Cohen, *A Course in Computational Algebraic
    Number Theory*, 3.2).  This form is unique, so equal polynomials have
    equal parts.  It is built from ints, Fractions or rational QuadExt
    values; a radical coefficient raises ValueError and an inexact one
    TypeError."""

    __slots__ = ("_content", "_ints", "_fractions")

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        values = [_rational(c) for c in coeffs]
        scale = lcm(*(x.denominator for x in values))
        p = Poly._normal([x.numerator * (scale // x.denominator)
                          for x in values], 1, scale)
        self._content, self._ints, self._fractions = p._content, p._ints, None

    @classmethod
    def _of(cls, content: Fraction, ints: tuple[int, ...]) -> "Poly":
        """content * ints, already in the canonical form."""
        p = object.__new__(cls)
        p._content, p._ints, p._fractions = content, ints, None
        return p

    @classmethod
    def _normal(cls, ints: list[int], top: int, bottom: int) -> "Poly":
        """(top/bottom) * ints for any integer vector and top, bottom > 0."""
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            return _ZERO_POLY
        common = gcd(*ints)
        if common > 1:
            ints = [v // common for v in ints]
        return cls._of(Fraction(top * common, bottom), tuple(ints))

    @classmethod
    def monomial(cls, degree: int, coefficient: Scalar = 1) -> "Poly":
        return cls((0,) * degree + (coefficient,))

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        if self._fractions is None:
            c = self._content
            self._fractions = tuple(c * v for v in self._ints) if c != 1 \
                else tuple(map(Fraction, self._ints))
        return self._fractions

    @property
    def coefficients(self) -> tuple[QuadExt, ...]:
        """The coefficients as rational QuadExt values, lowest degree
        first, for readers that also meet radical values."""
        return tuple(map(QuadExt.of, self.fractions))

    @property
    def degree(self) -> int:
        # -1 flags the zero polynomial.
        return len(self._ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def is_monic(self) -> bool:
        c = self._content
        return bool(self._ints) and c.numerator == 1 and \
            self._ints[-1] == c.denominator

    def coefficient(self, k: int) -> QuadExt:
        return QuadExt.of(self.fractions[k] if 0 <= k < len(self._ints)
                          else 0)

    def _coerce(self, other: object) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, QuadExt)):
            return Poly((other,))
        return None

    def _plus(self, o: "Poly", sign: int) -> "Poly":
        """self + sign * o, over the lcm of the contents' denominators."""
        a, b = self._content, o._content
        bottom = lcm(a.denominator, b.denominator)
        x = a.numerator * (bottom // a.denominator)
        y = b.numerator * (bottom // b.denominator)
        top = gcd(x, y)
        x, y = x // top, sign * y // top
        return Poly._normal([x * u + y * v for u, v in
                             zip_longest(self._ints, o._ints, fillvalue=0)],
                            top, bottom)

    def __add__(self, other: object) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __sub__(self, other: object) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other: object) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, -1)

    def __neg__(self) -> "Poly":
        return Poly._of(self._content, tuple(-v for v in self._ints))

    def __mul__(self, other: object) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, QuadExt)):
                return NotImplemented
            c = _rational(other)
            if not (c and self._ints):
                return _ZERO_POLY
            ints = self._ints if c > 0 else tuple(-v for v in self._ints)
            return Poly._of(self._content * abs(c), ints)
        f, g = self._ints, other._ints
        if not (f and g):
            return _ZERO_POLY
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g, i):
                    out[j] += a * b
        # a product of primitive vectors is primitive (Gauss's lemma)
        a, b = self._content, other._content
        return Poly._of(b if a == 1 else a if b == 1 else a * b, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = _ONE_POLY
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._ints == o._ints and self._content == o._content

    def __hash__(self) -> int:
        return hash((self._content, self._ints))

    def __bool__(self) -> bool:
        return bool(self._ints)

    def derivative(self) -> "Poly":
        c = self._content
        return Poly._normal([i * v for i, v in enumerate(self._ints) if i],
                            c.numerator, c.denominator)

    def __call__(self, x: Scalar) -> QuadExt:
        point = QuadExt.of(x)
        acc = _ZERO
        for c in reversed(self.fractions):
            acc = acc * point + c
        return acc

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.fractions):
            acc = acc * x + float(c)
        return acc

    def render(self, var: str = "t") -> str:
        if self.is_zero:
            return "0"
        return _sum_text([_term_text(c, k, var) for k, c in
                          reversed(list(enumerate(self.fractions))) if c])

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.fractions]})"


def _sum_text(parts: list[str]) -> str:
    """The parts joined by + and -, a part's leading minus made the sign."""
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _power_text(k: int, var: str) -> str:
    if var == "e^s":
        return "e^s" if k == 1 else f"e^({k}s)"
    return var if k == 1 else f"{var}^{k}"


def _term_text(c: Fraction, k: int, var: str) -> str:
    if k == 0:
        return str(c)
    text = _power_text(k, var)
    if c == 1:
        return text
    if c == -1:
        return f"-{text}"
    return f"{c}*{text}"


# the formal variable, importable as a building block
_ZERO_POLY = Poly._of(Fraction(1), ())
T = Poly((0, 1))
_ONE_POLY = Poly((1,))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(p, 0) is monic(p).  The remainder sequence runs on
    the primitive parts."""
    if not (a or b):
        raise ValueError("gcd(0, 0) is undefined")
    h = _integer_gcd(a._ints, b._ints)
    return _monic_poly(h) if len(h) > 1 else _ONE_POLY


def _integer_gcd(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """gcd(f, g) in Z[t] as a primitive vector with a positive leading
    coefficient, [1] when f and g are coprime; not both zero."""
    if len(f) < len(g):
        f, g = g, f
    h = _remainder_sequence(f, g)[-1] if g else f
    if len(h) == 1:
        return [1]
    h = _primitive(h)
    return h if h[-1] > 0 else [-c for c in h]


def _remainder_sequence(f: list[int], g: list[int]) -> list[list[int]]:
    """f, g (nonzero, len(f) >= len(g)) and the primitive pseudo-remainders
    r_(k+1) of r_(k-1) by r_k that follow them, down to the last nonzero
    one, which is gcd(f, g) up to a scalar.

    Each pseudo-remainder is a positive multiple of the remainder, so
    negating the entries at positions 2 and 3 mod 4 gives the sequence
    s_(k+1) = -(s_(k-1) mod s_k) up to positive factors: for g = f' a
    Sturm sequence of f."""
    seq = [f, g]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_primitive(r))
    return seq


def _monic_poly(ints: list[int]) -> Poly:
    """ints / ints[-1], for a primitive ints with a positive leading
    coefficient."""
    return Poly._of(Fraction(1, ints[-1]), tuple(ints))


def _derivative(ints: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(ints) if i]


def _exact_quotient(f: list[int], h: list[int]) -> list[int]:
    """f/h for an integer vector h that divides f in Z[t], by long
    division from the top; every step divides exactly."""
    r, lead = list(f), h[-1]
    out = [0] * (len(f) - len(h) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = r[k + len(h) - 1] // lead
        if c:
            for i, x in enumerate(h, k):
                r[i] -= c * x
    return out


def _quotient(f: list[int], h: list[int]) -> list[int] | None:
    """f/h in Z[t] for a primitive h, or None when h does not divide f.
    By Gauss's lemma a division in Q[t] by a primitive h is one in Z[t],
    so the first step that leaves a remainder settles it."""
    r, lead, top = list(f), h[-1], len(h) - 1
    out = [0] * max(len(f) - top, 0)
    for k in range(len(out) - 1, -1, -1):
        c, left = divmod(r[k + top], lead)
        if left:
            return None
        out[k] = c
        if c:
            for i in range(top):
                r[k + i] -= c * h[i]
    return None if any(r[:top]) else out


def _primitive(ints: list[int]) -> list[int]:
    """ints divided by their content (the gcd of the entries)."""
    content = gcd(*ints)
    return [v // content for v in ints] if content > 1 else ints


def _pseudo_remainder(f: list[int], g: list[int]) -> list[int]:
    """A positive integer multiple of f mod g, trailing zeros dropped.
    Each step scales the running remainder only by |lc(g)|/gcd(lc(g),
    lc(r)), so its entries grow no more than the division needs."""
    r, lead, body = list(f), g[-1], g[:-1]
    while len(r) >= len(g):
        shift = len(r) - len(g)
        top = r.pop()
        common = gcd(lead, top)
        scale, top = abs(lead) // common, top // common
        if lead < 0:
            top = -top
        if scale != 1:
            r = [v * scale for v in r]
        for i, c in enumerate(body, shift):
            r[i] -= top * c
        while r and not r[-1]:
            r.pop()
    return r


def _yun(f: Sequence[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree factorization of f in Z[t]: the pairs (g_i, i)
    with f = c * prod g_i^i, each g_i nonconstant, squarefree, primitive
    and with a positive leading coefficient; none for a constant f.  Every
    division is exact in Z[t], by Gauss's lemma.  Once the product w of
    the factors not yet found is linear, it is the last one, and its
    multiplicity is the degree not yet accounted for: a pole (t - 1)^15
    takes one step, not fifteen."""
    df = _derivative(f)
    c = _integer_gcd(f, df)
    w, y = _exact_quotient(f, c), _exact_quotient(df, c)
    out, i = [], 1
    while len(w) > 2:
        z = [a - b for a, b in zip_longest(y, _derivative(w), fillvalue=0)]
        while z and not z[-1]:
            z.pop()
        g = _integer_gcd(w, z)
        if len(g) > 1:
            out.append((g, i))
        w, y = _exact_quotient(w, g), _exact_quotient(z, g)
        i += 1
    if len(w) == 2:
        w = _primitive(w if w[-1] > 0 else [-a for a in w])
        out.append((w, len(f) - 1 - sum(k * (len(g) - 1) for g, k in out)))
    return out


def _rational_roots(core: list[int]) -> list[tuple[int, int]]:
    """The rational roots of a squarefree integer vector with a nonzero
    constant term, as coprime pairs (p, q) with q > 0.

    With lead = lc(core) > 0 and n = deg(core), G(u) = lead^(n-1) *
    core(u/lead) is monic in Z[u], and p/q is a root of the core exactly
    when lead*p/q is an integer root of G (Gauss's lemma: q | lead).  A
    linear core reads its root off, and a larger one goes to
    ``_integer_roots``; ``factor_roots`` solves a quadratic from its
    discriminant instead."""
    if core[-1] < 0:
        core = [-c for c in core]
    n, lead = len(core) - 1, core[-1]
    if n == 1:
        us = [-core[0]]
    else:
        us = _integer_roots(
            [c * lead ** (n - 1 - i) for i, c in enumerate(core[:-1])] + [1])
    out = []
    for u in us:
        common = gcd(u, lead)
        out.append((u // common, lead // common))
    return out


def _integer_roots(g: list[int]) -> list[int]:
    """The integer roots of a monic squarefree g in Z[u].

    A Sturm sequence s_0 = g, s_1 = g', ... counts the distinct real roots
    in (a, b] as V(a) - V(b), with V(x) the number of sign changes of
    s_i(x) (Basu, Pollack and Roy, *Algorithms in Real Algebraic
    Geometry*, 2.2).  Every root lies in (-2^e, 2^e] for the Fujiwara
    bound 2^e, where V equals its limit at -inf and +inf, read off the
    leading coefficients.  The interval is halved on the integer grid;
    one holding a single root is narrowed on the sign of g alone, and a
    short one holding several is tested point by point."""
    chain, at_minus, at_plus = _sturm_chain(g)
    n = len(g) - 1
    e = 1 + max(-(-g[n - i].bit_length() // i) for i in range(1, n + 1))
    roots: list[int] = []
    todo = [(-(1 << e), 1 << e, at_minus, at_plus)]
    while todo:
        a, b, va, vb = todo.pop()
        if va == vb:
            continue
        if b - a <= 4:
            roots += [x for x in range(a + 1, b + 1) if not _horner(g, x)]
        elif va - vb == 1:
            roots += _lone_integer_root(g, a, b)
        else:
            mid = (a + b) // 2
            vm = _sign_changes([_horner(s, mid) for s in chain] if mid else
                               [s[0] for s in chain])
            todo += [(a, mid, va, vm), (mid, b, vm, vb)]
    return roots


def _sturm_chain(g: list[int]) -> tuple[list[list[int]], int, int]:
    """A Sturm sequence of the squarefree g, with its sign changes V at
    -inf and at +inf; V(-inf) - V(+inf) is the number of real roots."""
    chain = [s if k % 4 < 2 else [-c for c in s] for k, s in
             enumerate(_remainder_sequence(g, _derivative(g)))]
    at_minus = _sign_changes([s[-1] if len(s) % 2 else -s[-1]
                              for s in chain])
    at_plus = _sign_changes([s[-1] for s in chain])
    return chain, at_minus, at_plus


def _lone_integer_root(g: list[int], a: int, b: int) -> list[int]:
    """[x] when the one root of the squarefree g in (a, b] is the integer
    x, else []; g changes sign only at that root."""
    value = _horner(g, b)
    if not value:
        return [b]
    sign_b = value > 0
    while b - a > 1:
        mid = (a + b) // 2
        value = _horner(g, mid)
        if not value:
            return [mid]
        if (value > 0) == sign_b:
            b = mid
        else:
            a = mid
    return []


def _horner(ints: list[int], x: int) -> int:
    acc = 0
    for c in ints[::-1]:
        acc = acc * x + c
    return acc


def _sign_changes(values: list[int]) -> int:
    """Sign changes along values, zeros skipped."""
    count, last = 0, 0
    for v in values:
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _deflate(ints: list[int], p: int, q: int) -> list[int]:
    """The quotient of sum ints[i] t^i by (q t - p), for a root p/q in
    lowest terms, by synthetic division from the top.  Every step is
    exact and a primitive vector stays primitive (Gauss's lemma)."""
    out = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        carry = (ints[i] + p * carry) // q
        out[i - 1] = carry
    return out


def _quadratic_roots(g: list[int]) -> list[QuadExt]:
    """Roots of a squarefree integer quadratic c + b t + a t^2 with a > 0,
    exact over Q(sqrt(d)): (-b +- sqrt(D))/(2a) for the one integer
    discriminant D = b^2 - 4ac.  A square D gives two rational roots, and
    otherwise D = m^2 d with d squarefree."""
    c, b, a = g
    disc = b * b - 4 * a * c
    if disc < 0:
        raise UnsupportedFactorization(
            f"quadratic factor {_monic_poly(g)} has complex roots")
    assert disc, "repeated root escaped squarefree splitting"
    s = _exact_sqrt(disc)
    if s is not None:
        return [QuadExt.of(Fraction(-b + s, 2 * a)),
                QuadExt.of(Fraction(-b - s, 2 * a))]
    m, d = _squarefree_split(disc)
    x, y = Fraction(-b, 2 * a), Fraction(m, 2 * a)
    return [QuadExt._normalised(x, y, d), QuadExt._normalised(x, -y, d)]


def factor_roots(f: Poly) -> list[tuple[QuadExt, int]]:
    """Complete root multiset of a monic denominator, or raise: one pass
    over its squarefree factors, each giving its rational roots and then
    the quadratic formula on what is left."""
    if f.degree < 1:
        raise ValueError("denominator must have degree >= 1")
    if not f.is_monic:
        raise ValueError("denominator must be monic")
    found: dict[QuadExt, int] = {}
    ints = f._ints
    zeros = 0
    while not ints[zeros]:
        zeros += 1
    if zeros:
        found[_ZERO] = zeros
    for g, mult in _yun(ints[zeros:]):
        if len(g) != 3:
            # g is squarefree, so each rational root divides it once
            for p, q in _rational_roots(g):
                g = _deflate(g, p, q)
                found[QuadExt.of(Fraction(p, q))] = mult
        degree = len(g) - 1
        if degree == 2:
            for root in _quadratic_roots(g):
                found[root] = mult
        elif degree == 3:     # no rational root, so irreducible over Q
            raise UnsupportedFactorization(
                f"irreducible factor of degree 3: {_monic_poly(g)}")
        elif degree > 3:
            _, at_minus, at_plus = _sturm_chain(g)
            if at_minus - at_plus < degree:
                raise UnsupportedFactorization(
                    f"factor {_monic_poly(g)} has complex roots")
            raise UnsupportedFactorization(
                f"no rational root, and factors of degree {degree} "
                f"are not split: {_monic_poly(g)}")
    return sorted(found.items(), key=lambda item: sort_key(item[0]))


def _as_poly(value: "Poly | Scalar | Sequence[Scalar]") -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly(value if isinstance(value, (tuple, list)) else (value,))


class RatFunc:
    """A normalized quotient of polynomials in t.

    Numerator and denominator are each a ``Poly``, a scalar or a
    coefficient sequence, lowest degree first, with rational coefficients;
    a radical one raises ValueError.  The gcd and the exact division by it
    run on the primitive parts, and the contents only set the numerator's
    content once the denominator is made monic."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: Poly | Scalar | Sequence[Scalar] = 0,
                 den: Poly | Scalar | Sequence[Scalar] = 1) -> None:
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self._num, self._den = num, _ONE_POLY
            return
        f, g = num._ints, den._ints
        common = poly_gcd(num, den)
        if common.degree > 0:
            f = tuple(_exact_quotient(f, common._ints))
            g = tuple(_exact_quotient(g, common._ints))
        # num/den = (a/b) f/g, and the monic denominator is g/lead
        lead, a, b = g[-1], num._content, den._content
        if lead < 0:
            lead, f, g = -lead, tuple(-x for x in f), tuple(-x for x in g)
        self._num = Poly._of(Fraction(a.numerator * b.denominator,
                                      a.denominator * b.numerator * lead), f)
        self._den = Poly._of(Fraction(1, lead), g)

    @classmethod
    def _reduced(cls, num: Poly, den: Poly) -> "RatFunc":
        """num/den already coprime with den monic: skips the gcd."""
        quotient = object.__new__(cls)
        quotient._num, quotient._den = num, den
        return quotient

    @property
    def num(self) -> Poly:
        return self._num

    @property
    def den(self) -> Poly:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_strictly_proper(self) -> bool:
        return self._num.degree < self._den.degree

    def _coerce(self, other: object) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, QuadExt, Poly)):
            return RatFunc(other)
        return None

    def __add__(self, other: object) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self._num * o._den + o._num * self._den,
                       self._den * o._den)

    __radd__ = __add__

    def __sub__(self, other: object) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self._num * o._den - o._num * self._den,
                       self._den * o._den)

    def __rsub__(self, other: object) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self._num, self._den)

    def __mul__(self, other: object) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self._num * o._den, self._den * o._num)

    def __rtruediv__(self, other: object) -> "RatFunc":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._num == o._num and self._den == o._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def d_ds(self) -> "RatFunc":
        """d/ds of A(e^s), written back in t: t * dA/dt."""
        n, d = self._num, self._den
        return RatFunc(T * (n.derivative() * d - n * d.derivative()), d * d)

    def __call__(self, x: Scalar) -> QuadExt:
        bottom = self._den(x)
        if not bottom:
            raise PoleEvaluation(f"evaluation at pole t = {QuadExt.of(x)}")
        return self._num(x) / bottom

    def eval_float(self, x: float) -> float:
        return self._num.eval_float(x) / self._den.eval_float(x)

    def render(self, var: str = "t") -> str:
        if self.is_zero:
            return "0"
        num_text = self._num.render(var)
        if self._den == _ONE_POLY:
            return num_text
        if sum(1 for c in self._num._ints if c) > 1:
            num_text = f"({num_text})"
        den_text = self._den.render(var)
        if sum(1 for c in self._den._ints if c) > 1 or \
                not self._den.is_monic:
            den_text = f"({den_text})"
        return f"{num_text}/{den_text}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"RatFunc({self._num!r}, {self._den!r})"


class Term(Record):
    """One pole term, read on either side of the transform: the partial
    fraction coefficient/(t - root)^multiplicity, and the sequence summand
    coefficient * C(n-1, multiplicity-1) * root^(n-multiplicity) whose
    transform it is (Concrete Mathematics 7.3)."""

    __slots__ = ("coefficient", "root", "multiplicity")

    def __init__(self, coefficient: QuadExt, root: QuadExt,
                 multiplicity: int) -> None:
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "multiplicity", multiplicity)


def _taylor(p: Poly, r: QuadExt, count: int) -> list[Fraction | QuadExt]:
    """First count coefficients of p(r + u): Fractions when r is rational,
    QuadExt otherwise.

    With d the radicand of r, r = R/Q and p = (a/b) P for R in Z[sqrt(d)]
    and P the primitive part of p, p(r + u) = a H(R + Q u)/(b Q^deg) for
    H_i = P_i Q^(deg - i).  Synthetic division by (z - R) on integer pairs
    (x, y), standing for x + y sqrt(d), gives the Taylor coefficients h_k
    of H at R, and the coefficient of u^k is a h_k/(b Q^(deg - k))."""
    d = r.radicand
    q = lcm(r.rational_part.denominator, r.radical_part.denominator)
    u, v = _integer_pair(r, q)
    vd = v * d
    xs, q_power = [], 1     # H, highest degree first
    for c in reversed(p._ints):
        xs.append(c * q_power)
        q_power *= q
    ys = [0] * len(xs)
    top, den, out = (p._content.numerator,
                     p._content.denominator * q_power // q, [])
    for _ in range(min(count, len(xs))):
        acc_x = acc_y = 0
        quo_x, quo_y = [], []
        for cx, cy in zip(xs, ys):
            acc_x, acc_y = (acc_x * u + acc_y * vd + cx,
                            acc_x * v + acc_y * u + cy)
            quo_x.append(acc_x)
            quo_y.append(acc_y)
        hx, hy = top * quo_x.pop(), top * quo_y.pop()
        out.append(QuadExt._normalised(Fraction(hx, den), Fraction(hy, den),
                                       d) if d else Fraction(hx, den))
        xs, ys, den = quo_x, quo_y, den // q
    return out + [_ZERO if d else Fraction(0)] * (count - len(out))


def partial_fractions(a: RatFunc) -> list[Term]:
    """Expand a strictly proper quotient as sum c/(t - r)^j, exactly, one
    ``Term(c, r, j)`` per nonzero coefficient; a quotient with a
    polynomial part raises ``ImproperRational``.

    Local expansion at each root r of multiplicity m (Bronstein and Salvy,
    ISSAC 1993): at t = r + u the first m terms of the series num/Q, where
    Q = den/(t - r)^m, are the coefficients of 1/(t - r)^m .. 1/(t - r), and
    the conjugate root takes their conjugates.  Zero coefficients are
    dropped.  The Taylor shifts run in integers, and at a rational root the
    series quotient runs in Fractions.
    """
    if a.is_zero:
        return []
    if not a.is_strictly_proper:
        raise ImproperRational(
            f"degree {a.num.degree} over degree {a.den.degree}")
    local: dict[QuadExt, list[QuadExt]] = {}    # root -> series
    for root, mult in factor_roots(a.den):
        if root.conjugate() in local:
            series = [c.conjugate() for c in local[root.conjugate()]]
        else:
            num = _taylor(a.num, root, mult)
            den = _taylor(a.den, root, 2 * mult)
            assert not any(den[:mult]), "root of lower multiplicity"
            q, inv, series = den[mult:], 1 / den[mult], []
            for i in range(mult):
                series.append(inv * (num[i] - sum(
                    q[j] * series[i - j] for j in range(1, i + 1))))
            series = [QuadExt.of(c) for c in series]
        local[root] = series
    return [Term(c, root, j) for root, series in local.items()
            for j, c in enumerate(reversed(series), 1) if c]
