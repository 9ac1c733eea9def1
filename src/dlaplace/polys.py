"""Polynomials and rational functions in the formal variable t = e^s.

Every transform in scope is a rational function of integers: radicals
appear only in its roots and in its partial-fraction coefficients.  So
``Poly`` holds rational coefficients only, lowest degree first, as
``QuadExt`` values with radicand 0; a radical coefficient raises
``ValueError``.  The zero polynomial is the empty tuple and reports degree
-1.  ``RatFunc`` keeps a quotient normalized: gcd cancelled and the
denominator monic, so equality is plain coefficient comparison.

``poly_gcd`` scales each operand to a primitive integer vector and runs a
primitive remainder sequence in Z[t]: each pseudo-remainder is divided by
its content, so no ``Fraction`` or ``QuadExt`` arithmetic runs until the
monic gcd is built (Cohen, *A Course in Computational Algebraic Number
Theory*, 3.3).  ``RatFunc`` reduces a quotient the same way: the gcd, the
exact division by it and the monic scaling run on the primitive integer
vectors of its two sides, and the ``Poly``s are built once, from the
reduced vectors.

``factor_roots`` finds the complete root multiset of a monic denominator
when it splits over Q or over real quadratic extensions, each quadratic
factor in its own; anything deeper raises ``UnsupportedFactorization``.
The denominator is scaled to a primitive integer vector f, and its
rational roots are those of the squarefree core f/gcd(f, f'), the gcd
taken by the remainder sequence ``poly_gcd`` runs.  A core of degree 1
or 2 gives its rational roots by formula; a larger one has its real
roots isolated by a Sturm sequence in integers, so the time grows with
the degree and the coefficients' bit lengths, not with their divisors
(Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).
Each root p/q is confirmed in integers as sum c_i p^i q^(deg - i) == 0
and divided out of f by synthetic division by (q t - p) as often as it
divides, which is exact and keeps the vector primitive by Gauss's lemma,
so no polynomial division over ``QuadExt`` runs (Cohen, *A Course in
Computational Algebraic Number Theory*, 3.4).  What has no rational root
is split by Yun's squarefree factorization in Z[t] (Yun, SYMSAC 1976),
and its quadratic factors are solved by the quadratic formula.

``partial_fractions`` expands a strictly proper quotient over those roots
into ``Term``s c/(t - r)^m, the records a closed form reads as its
summands c C(n-1, m-1) r^(n-m), so inverting a transform copies nothing.
It works by local expansion at each root, which needs no linear system
and keeps repeated roots on the same code path as simple ones.  The
Taylor shift to a root is one synthetic division on integer pairs (x, y),
standing for x + y*sqrt(d), over one common denominator, with d the
root's radicand (0 for a rational root); so at a rational root the
quotient is expanded in integers and ``Fraction``s, without ``QuadExt``
arithmetic.  The
conjugate of a radical root takes the conjugate expansion.
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
_ONE = QuadExt(1)
_MINUS_ONE = QuadExt(-1)


def _rational_values(values: Iterable[Scalar]) -> list[RationalLike]:
    """The values as ints and Fractions, trailing zeros dropped; a radical
    one raises ValueError."""
    out: list[RationalLike] = []
    for c in values:
        if isinstance(c, QuadExt):
            if c.radicand:
                raise ValueError(f"radical coefficient {c}: "
                                 "polynomials are over Q")
            c = c.rational_part
        elif not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot interpret {c!r} as an exact value")
        out.append(c)
    while out and not out[-1]:
        out.pop()
    return out


class Poly:
    """A dense univariate polynomial over Q, its coefficients rational
    QuadExt values; a radical coefficient raises ValueError and an inexact
    one TypeError."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [QuadExt.of(c) for c in coeffs]
        for c in cs:
            if c.radicand:
                raise ValueError(f"radical coefficient {c}: "
                                 "polynomials are over Q")
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def monomial(cls, degree: int, coefficient: Scalar = 1) -> "Poly":
        return cls((0,) * degree + (coefficient,))

    @classmethod
    def from_roots(cls, *roots: Scalar) -> "Poly":
        """The monic polynomial with exactly the given roots."""
        p = cls((1,))
        for r in roots:
            p = p * cls((-QuadExt.of(r), 1))
        return p

    @property
    def coefficients(self) -> tuple[QuadExt, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        # -1 flags the zero polynomial.
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self) -> QuadExt:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self._coeffs) and self._coeffs[-1] == _ONE

    def coefficient(self, k: int) -> QuadExt:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else _ZERO

    def _coerce(self, other: object) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, QuadExt)):
            return Poly((other,))
        return None

    def __add__(self, other: object) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self._coeffs), len(o._coeffs))
        return Poly((self.coefficient(i) + o.coefficient(i) for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other: object) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self._coeffs), len(o._coeffs))
        return Poly((self.coefficient(i) - o.coefficient(i) for i in range(n)))

    def __rsub__(self, other: object) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "Poly":
        return Poly((-c for c in self._coeffs))

    def __mul__(self, other: object) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Poly()
        out = [_ZERO] * (len(self._coeffs) + len(o._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if not a:
                continue
            for j, b in enumerate(o._coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = Poly((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: object) -> tuple["Poly", "Poly"]:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        db, lead = o.degree, o.leading
        q = [_ZERO] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            f = rem[-1] / lead
            k = len(rem) - 1 - db
            q[k] = f
            for i, bc in enumerate(o._coeffs):
                rem[k + i] = rem[k + i] - f * bc
            while rem and not rem[-1]:
                rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other: object) -> "Poly":
        return divmod(self, other)[0]

    def __truediv__(self, scalar: object) -> "Poly":
        if isinstance(scalar, (int, Fraction, QuadExt)):
            inv = QuadExt.of(scalar).inverse()
            return Poly((c * inv for c in self._coeffs))
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._coeffs == o._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def derivative(self) -> "Poly":
        return Poly((i * c for i, c in enumerate(self._coeffs) if i))

    def __call__(self, x: Scalar) -> QuadExt:
        point = QuadExt.of(x)
        acc = _ZERO
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * x + c.to_float()
        return acc

    def render(self, var: str = "t") -> str:
        if self.is_zero:
            return "0"
        return _sum_text([_term_text(c, k, var) for k, c in
                          reversed(list(enumerate(self._coeffs))) if c])

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self._coeffs]})"


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


def _term_text(c: QuadExt, k: int, var: str) -> str:
    if k == 0:
        return str(c)
    text = _power_text(k, var)
    if c == _ONE:
        return text
    if c == _MINUS_ONE:
        return f"-{text}"
    return f"{c}*{text}"


# the formal variable, importable as a building block
T = Poly((0, 1))
_ONE_POLY = Poly((1,))


def poly_gcd(a: Poly | list[int], b: Poly | list[int]) -> Poly:
    """Monic gcd; gcd(p, 0) is monic(p).  The operands are both Polys or
    both integer vectors, lowest degree first; the remainder sequence runs
    on primitive integer vectors."""
    if isinstance(a, Poly):
        a, b = _integer_coefficients(a), _integer_coefficients(b)
    if not (a or b):
        raise ValueError("gcd(0, 0) is undefined")
    h = _integer_gcd(a, b)
    return _monic_poly(h) if len(h) > 1 else _ONE_POLY


def _integer_gcd(f: list[int], g: list[int]) -> list[int]:
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
    """The monic Poly with the integer coefficients ints, up to a scalar."""
    return Poly(Fraction(c, ints[-1]) for c in ints)


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


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Split f into [(g_i, i)] with f = prod g_i^i up to a constant, each
    g_i monic and squarefree."""
    if f.degree < 1:
        return []
    return [(_monic_poly(g), i) for g, i in _yun(_integer_coefficients(f))]


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree factorization of a nonconstant f in Z[t]: the
    pairs (g_i, i) with f = c * prod g_i^i, each g_i nonconstant,
    squarefree, primitive and with a positive leading coefficient.  Every
    division is exact in Z[t], by Gauss's lemma."""
    df = _derivative(f)
    c = _integer_gcd(f, df)
    w, y = _exact_quotient(f, c), _exact_quotient(df, c)
    out, i = [], 1
    while len(w) > 1:
        z = [a - b for a, b in zip_longest(y, _derivative(w), fillvalue=0)]
        while z and not z[-1]:
            z.pop()
        g = _integer_gcd(w, z)
        if len(g) > 1:
            out.append((g, i))
        w, y = _exact_quotient(w, g), _exact_quotient(z, g)
        i += 1
    return out


def _integer_coefficients(f: Poly) -> list[int]:
    """Scale a polynomial to primitive integers."""
    return _primitive_part([c.rational_part for c in f.coefficients])[0]


def _primitive_part(values: list[RationalLike]) -> tuple[list[int], Fraction]:
    """(f, c) with values == c * f and f a primitive integer vector."""
    scale = lcm(*(x.denominator for x in values))
    ints = [x.numerator * (scale // x.denominator) for x in values]
    content = gcd(*ints) or 1
    return [v // content for v in ints], Fraction(content, scale)


def _rational_roots(core: list[int]) -> list[tuple[int, int]]:
    """The rational roots of a squarefree integer vector with a nonzero
    constant term, as coprime pairs (p, q) with q > 0.

    With lead = lc(core) > 0 and n = deg(core), G(u) = lead^(n-1) *
    core(u/lead) is monic in Z[u], and p/q is a root of the core exactly
    when lead*p/q is an integer root of G (Gauss's lemma: q | lead).  A
    linear core reads its root off, a quadratic one tests its
    discriminant for a square, and a larger one goes to
    ``_integer_roots``."""
    if core[-1] < 0:
        core = [-c for c in core]
    n, lead = len(core) - 1, core[-1]
    if n == 1:
        us = [-core[0]]
    elif n == 2:
        c, b = core[0], core[1]
        s = _exact_sqrt(b * b - 4 * lead * c)
        us = [] if s is None else [(s - b) // 2, (-s - b) // 2]
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


def _vanishes_at(ints: list[int], p: int, q: int) -> bool:
    """Whether p/q is a root of sum ints[i] t^i, tested in integers as
    sum ints[i] p^i q^(deg - i) == 0 by homogeneous Horner."""
    acc, q_power = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * q_power
        q_power *= q
    return acc == 0


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


def _quadratic_roots(h: Poly) -> list[QuadExt]:
    """Roots of a monic rational quadratic, exact over Q(sqrt(d))."""
    b = h.coefficient(1).as_fraction()
    c = h.coefficient(0).as_fraction()
    disc = b * b - 4 * c
    if disc < 0:
        raise UnsupportedFactorization(
            f"quadratic factor {h} has complex roots")
    assert disc != 0, "repeated root escaped squarefree splitting"
    half = Fraction(1, 2)
    top, bottom = _exact_sqrt(disc.numerator), _exact_sqrt(disc.denominator)
    if top is not None and bottom is not None:
        root = Fraction(top, bottom)
        return [QuadExt(half * (-b + root)), QuadExt(half * (-b - root))]
    # the product is not a square, so d0 > 1 and is squarefree already
    m, d0 = _squarefree_split(disc.numerator * disc.denominator)
    root_rad = Fraction(m, disc.denominator)  # sqrt(disc) = root_rad*sqrt(d0)
    return [QuadExt._normalised(-b * half, half * root_rad, d0),
            QuadExt._normalised(-b * half, -half * root_rad, d0)]


def factor_roots(f: Poly) -> list[tuple[QuadExt, int]]:
    """Complete root multiset of a monic denominator, or raise: rational
    root isolation, then the quadratic formula on what is left."""
    if f.degree < 1:
        raise ValueError("denominator must have degree >= 1")
    if not f.is_monic:
        raise ValueError("denominator must be monic")
    found: dict[QuadExt, int] = {}
    zeros = 0
    while not f.coefficient(zeros):
        zeros += 1
    if zeros:
        found[_ZERO] = zeros
    ints = _integer_coefficients(f)[zeros:]
    rest: list[tuple[list[int], int]] = []
    if len(ints) > 1:
        # the rational roots of the squarefree core, each divided out of
        # ints as often as it divides
        repeated = _integer_gcd(ints, _derivative(ints))
        core = _exact_quotient(ints, repeated) if len(repeated) > 1 else ints
        for p, q in _rational_roots(core):
            m = 0
            while _vanishes_at(ints, p, q):
                ints = _deflate(ints, p, q)
                m += 1
            if m:
                found[QuadExt.of(Fraction(p, q))] = m
        # what has no rational root; squarefree already when ints was
        if len(ints) > 1:
            rest = _yun(ints) if len(repeated) > 1 else [(ints, 1)]
    for g, mult in rest:
        h = _monic_poly(g)
        if h.degree == 2:
            for root in _quadratic_roots(h):
                found[root] = found.get(root, 0) + mult
        elif h.degree == 3:     # no rational root, so irreducible over Q
            raise UnsupportedFactorization(
                f"irreducible factor of degree 3: {h}")
        else:
            _, at_minus, at_plus = _sturm_chain(g)
            if at_minus - at_plus < h.degree:
                raise UnsupportedFactorization(
                    f"factor {h} has complex roots")
            raise UnsupportedFactorization(
                f"no rational root, and factors of degree {h.degree} "
                f"are not split: {h}")
    return sorted(found.items(), key=lambda item: sort_key(item[0]))


def _coefficient_list(value: "Poly | Scalar | Sequence[Scalar]",
                      ) -> Sequence[Scalar]:
    if isinstance(value, Poly):
        return value.coefficients
    if isinstance(value, (tuple, list)):
        return value
    return (value,)


class RatFunc:
    """A normalized quotient of polynomials in t.

    Numerator and denominator are each a ``Poly``, a scalar or a
    coefficient sequence, lowest degree first, with rational coefficients;
    a radical one raises ValueError.  The gcd, the exact division by it and
    the monic scaling run on their primitive integer vectors."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: Poly | Scalar | Sequence[Scalar] = 0,
                 den: Poly | Scalar | Sequence[Scalar] = 1) -> None:
        num, den = _coefficient_list(num), _coefficient_list(den)
        top, bottom = _rational_values(num), _rational_values(den)
        if not bottom:
            raise ZeroDivisionError("rational function with zero denominator")
        if not top:
            self._num, self._den = Poly(), _ONE_POLY
            return
        (f, f_content), (g, g_content) = \
            _primitive_part(top), _primitive_part(bottom)
        common = poly_gcd(f, g)
        if common.degree > 0:
            h = _integer_coefficients(common)
            f, g = _exact_quotient(f, h), _exact_quotient(g, h)
        lead = g[-1]
        scale = f_content / (g_content * lead)
        top, bottom = scale.numerator, scale.denominator
        self._num = Poly(Fraction(x * top, bottom) for x in f)
        self._den = Poly(Fraction(x, lead) for x in g)

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
            return RatFunc(other if isinstance(other, Poly) else Poly((other,)))
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
        if sum(1 for c in self._num.coefficients if c) > 1:
            num_text = f"({num_text})"
        den_text = self._den.render(var)
        if sum(1 for c in self._den.coefficients if c) > 1 or \
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

    With d the radicand of r, r = R/Q and p = P/L for R in Z[sqrt(d)] and
    the P_i in Z, p(r + u) = H(R + Q u)/(L Q^deg) for H_i = P_i Q^(deg - i).
    Synthetic division by (z - R) on integer pairs (x, y), standing for
    x + y sqrt(d), gives the Taylor coefficients h_k of H at R, and the
    coefficient of u^k is h_k/(L Q^(deg - k))."""
    coeffs = p.coefficients
    d = r.radicand
    q = lcm(r.rational_part.denominator, r.radical_part.denominator)
    u, v = _integer_pair(r, q)
    vd = v * d
    scale = lcm(*(c.rational_part.denominator for c in coeffs))
    xs, q_power = [], 1     # H, highest degree first
    for c in reversed(coeffs):
        x = c.rational_part
        xs.append(x.numerator * (scale // x.denominator) * q_power)
        q_power *= q
    ys = [0] * len(xs)
    den, out = scale * q_power // q, []
    for _ in range(min(count, len(xs))):
        acc_x = acc_y = 0
        quo_x, quo_y = [], []
        for cx, cy in zip(xs, ys):
            acc_x, acc_y = (acc_x * u + acc_y * vd + cx,
                            acc_x * v + acc_y * u + cy)
            quo_x.append(acc_x)
            quo_y.append(acc_y)
        hx, hy = quo_x.pop(), quo_y.pop()
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
